"""The benchmark's workloads and the correctness check run on every iteration.

A workload is a list of ``levitomo`` CLI invocations (argument lists without
the interpreter) run one after another into one fresh output directory, plus a
check of what they wrote. The reasons for each workload are in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The acceptance suite's tolerances (tests/test_acceptance.py).
NORMALIZATION_TOL = 0.01
OMEGA_REL_TOL = 0.01
FOCK_MIN_CEILING = -0.2
FOCK_MIN_REL_TOL = 0.35

# Record length of the thermal workloads: 0.1 s at the reference 1 MHz, not
# the reference 1 s, so that a 60 s run holds a dozen iterations and reports
# their median instead of the time of one or two.
RECORD = "sim_duration_s=0.1"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, out_dir, root, overrides) -> CLI argument lists, run in order
    steps: Callable[[int, Path, Path, tuple[str, ...]], list[list[str]]]
    # (out_dir, root) -> list of problems; empty means correct
    check: Callable[[Path, Path], list[str]]
    # extra ``key=value`` settings appended as ``--set``; empty for real runs
    overrides: tuple[str, ...] = ()

    def argv_lists(self, seed: int, out_dir: Path, root: Path) -> list[list[str]]:
        return self.steps(seed, out_dir, root, self.overrides)


def _sets(pairs) -> list[str]:
    args: list[str] = []
    for pair in pairs:
        args += ["--set", pair]
    return args


def _common(root: Path, seed: int, out_dir: Path, overrides) -> list[str]:
    return ["--config", str(root / "reference.cfg"), "--seed", str(seed), "--out", str(out_dir)] + _sets(
        overrides
    )


def _pipeline_thermal_steps(seed, out_dir, root, overrides):
    return [["pipeline"] + _common(root, seed, out_dir, (RECORD,) + tuple(overrides))]


def _stages_readback_steps(seed, out_dir, root, overrides):
    common = _common(root, seed, out_dir, (RECORD,) + tuple(overrides))
    traj = ["--traj", str(out_dir / "trajectory.csv")]
    return [["simulate"] + common] + [[stage] + common + traj for stage in ("detect", "psd", "tomo")]


def _fock_steps(seed, out_dir, root, overrides):
    sets = _sets(("n_angles=720", "marginal_grid_points=513") + tuple(overrides))
    return [["pipeline", "--state", "fock1"] + sets + ["--seed", str(seed), "--out", str(out_dir)]]


# ---------------------------------------------------------------------------
# correctness checks


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def check_manifest(out_dir: Path, root: Path) -> list[str]:
    """Every output digest matches its file; every input digest matches a known file."""
    problems: list[str] = []
    manifest = _read_json(out_dir / "manifest.json", problems)
    if manifest is None:
        return problems
    known = {_sha256(root / "reference.cfg")}
    try:
        for stage in manifest["stages"]:
            for rel, digest in stage["outputs"].items():
                path = out_dir / rel
                actual = _sha256(path) if path.is_file() else None
                if actual != digest:
                    problems.append(f"manifest digest mismatch for {rel}")
                known.add(digest)
        for stage in manifest["stages"]:
            for key, digest in stage["inputs"].items():
                if digest not in known:
                    problems.append(f"manifest input {key!r} of stage {stage['name']!r} matches no file")
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"manifest.json: malformed ({exc!r})")
    return problems


def check_thermal(out_dir: Path, root: Path) -> list[str]:
    """|integral of W - 1| < 0.01 and every fitted omega0 within 1 % of the derived omega_s."""
    problems: list[str] = []
    report = _read_json(out_dir / "analyze.json", problems)
    if report is not None:
        total = report.get("total_integral")
        if not isinstance(total, (int, float)) or not abs(total - 1.0) < NORMALIZATION_TOL:
            problems.append(f"Wigner normalization {total!r} is not within {NORMALIZATION_TOL} of 1")
    if (out_dir / "derived.json").is_file():
        derived = _read_json(out_dir / "derived.json", problems)
        omega_s = derived.get("omega_s_rad_s") if derived else None
    else:
        sidecar = _read_json(out_dir / "trajectory.json", problems)
        omega_s = sidecar.get("meta", {}).get("omega_s_rad_s") if sidecar else None
    fits = sorted(out_dir.glob("fit*.json"))
    if not fits:
        problems.append("no fit*.json written")
    for path in fits:
        fit = _read_json(path, problems)
        omega0 = fit.get("omega0_rad_s") if fit else None
        if not (
            isinstance(omega0, (int, float))
            and isinstance(omega_s, (int, float))
            and abs(omega0 - omega_s) <= OMEGA_REL_TOL * omega_s
        ):
            problems.append(f"{path.name}: omega0 {omega0!r} not within 1 % of omega_s {omega_s!r}")
    return problems


def check_fock(out_dir: Path, root: Path) -> list[str]:
    """Wigner minimum <= -0.2 and within 35 % of -1/pi."""
    problems: list[str] = []
    report = _read_json(out_dir / "analyze.json", problems)
    w_min = report.get("min_value") if report else None
    target = -1.0 / math.pi
    if not (
        isinstance(w_min, (int, float))
        and w_min <= FOCK_MIN_CEILING
        and abs(w_min - target) <= FOCK_MIN_REL_TOL * abs(target)
    ):
        problems.append(f"Wigner minimum {w_min!r} is not <= {FOCK_MIN_CEILING} and within 35 % of -1/pi")
    return problems


def _both(*checks):
    def check(out_dir: Path, root: Path) -> list[str]:
        return [problem for fn in checks for problem in fn(out_dir, root)]

    return check


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "pipeline-thermal",
            "reference config with a 0.1 s record at 1 MHz, both schemes: every layer, write-bound",
            _pipeline_thermal_steps,
            _both(check_manifest, check_thermal),
        ),
        Workload(
            "stages-readback",
            "simulate, then detect/psd/tomo each re-reading the 0.1 s trajectory: artifact readers and 4 imports",
            _stages_readback_steps,
            check_thermal,
        ),
        Workload(
            "fock-oracle-hires",
            "fock1 oracle at 720 angles x 513 points: tomography-bound, no record and no bulk I/O",
            _fock_steps,
            _both(check_manifest, check_fock),
        ),
    )
}
