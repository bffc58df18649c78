"""Benchmark of the levitomo measurement chain, run from the repository root.

    python3 bench/run.py --workload pipeline-thermal --seed 1 --seconds 60 --trace 0

One closed-loop client: each iteration runs the workload's ``levitomo`` CLI
invocations one at a time, each in a fresh interpreter (``python3 -m
levitomo.cli`` with ``src`` on ``PYTHONPATH``) writing into a fresh temporary
``--out`` under ``.bench_run/tmp``, which is deleted once its bytes and digests
are measured. Iterations repeat until the next one would end after
``--seconds`` (at least one runs); with tracing off, every second one is
preceded by a fresh ``import levitomo.cli`` that is timed for ``setup_s``.
Every iteration is checked for correctness; failures count in ``failed`` and
in ``error_rate``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` pairs every
untraced iteration with a traced one (``tracer.py`` runs the same CLI
arguments in-process with every layer's functions wrapped) and reports the
per-layer metrics and the tracing overhead. The last line of stdout is the
result as JSON; earlier lines print every metric with its unit, the sample
counts and the provenance. Results and spans are also written under
``.bench_run``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
TRACER = Path(tracer.__file__).resolve()
SETUP_EVERY = 2  # iterations per set-up sample
IMPORT_PROFILE_SAMPLES = 3
RUN_DEADLINE_S = 170.0
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB", "setup_s": "s"}
STAGES = ("derive", "simulate", "detect", "invert", "spectral", "tomography", "decoherence", "plot-style")
LAYER_FUNCTIONS = (
    "physics.derive",
    "physics.decoherence_curve",
    "dynamics.simulate_thermal",
    "dynamics.save_trajectory",
    "dynamics.load_trajectory",
    "detection.detect_linear",
    "detection.invert_counts",
    "detection.compare_noise_floor",
    "detection.save_count_record",
    "spectral.estimate_psd",
    "spectral.fit_lorentzian",
    "tomography.bin_marginals",
    "tomography.inverse_radon",
    "tomography.analyze",
)
# per-layer metric name -> key of tracer.summarize's output
PER_LAYER_ALIASES = {
    "dynamics.samples": "dynamics.simulate_thermal.samples",
    "dynamics.save_trajectory_bytes": "dynamics.save_trajectory.bytes",
    "detection.save_count_record_bytes": "detection.save_count_record.bytes",
    "dynamics.load_trajectory.calls": "dynamics.load_trajectory.calls",
    "detection.invert_counts.calls": "detection.invert_counts.calls",
    "spectral.estimate_psd.calls": "spectral.estimate_psd.calls",
    "tomography.fbp_points": "tomography.inverse_radon.points",
    "cli.digest_s": "cli._sha256_s",
    "cli.digest_bytes": "cli._sha256.bytes",
}
TOMOGRAPHY_SAVES = ("tomography.save_marginals", "tomography.save_wigner", "tomography.save_report")
PER_LAYER_NAMES = (
    ("import.levitomo_cli_s", "import.scipy_signal_s")
    + tuple(f"{fn}_s" for fn in LAYER_FUNCTIONS)
    + tuple(PER_LAYER_ALIASES)
    + ("tomography.dropped_fraction", "tomography.save_s", "tomography.save_bytes")
    + tuple(f"cli.stage.{stage}_s" for stage in STAGES)
    + tuple(f"{layer}.{kind}" for layer in tracer.LAYERS for kind in ("self_s", "calls"))
    + ("trace.overhead_s",)
)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_fraction"):
        return "ratio"
    return "count"


@dataclass
class Context:
    root: Path
    env: dict
    tmp: Path
    deadline: float  # time.monotonic() after which no child may keep running


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    artifact_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def make_context() -> Context:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    tmp = RUN_DIR / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)  # what a killed run left behind
    tmp.mkdir(parents=True)
    return Context(root=ROOT, env=env, tmp=tmp, deadline=time.monotonic() + RUN_DEADLINE_S)


def spawn(argv: list[str], ctx: Context, log_path: Path):
    """Run one child to completion; return (exit code, wall s, user+sys CPU s, max RSS in KiB)."""
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        # The child is reaped only by the wait4 below, so its pid stays valid for this kill.
        timer = threading.Timer(max(ctx.deadline - time.monotonic(), 1.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def _log_tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


def run_iteration(wl: Workload, seed: int, ctx: Context, traced: bool) -> Iteration:
    """Run every step of the workload into a fresh directory, measure, check and delete it."""
    it = Iteration(traced=traced)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ctx.tmp))
    out = work / "out"
    try:
        for k, args in enumerate(wl.argv_lists(seed, out, ctx.root)):
            if traced:
                argv = [sys.executable, str(TRACER), str(work / f"spans-{k}.json"), "--"] + args
            else:
                argv = [sys.executable, "-m", "levitomo.cli"] + args
            log = work / f"log-{k}.txt"
            code, wall, cpu, maxrss_kib = spawn(argv, ctx, log)
            it.wall_s += wall
            it.cpu_s += cpu
            it.peak_rss_mb = max(it.peak_rss_mb, maxrss_kib * 1024 / 1e6)
            if traced and (work / f"spans-{k}.json").is_file():
                for local, span in enumerate(json.loads((work / f"spans-{k}.json").read_text())):
                    it.spans.append(dict(span, proc=k, local=local))
            if code != 0:
                it.problems.append(f"{args[0]} exited with code {code}: {_log_tail(log)}")
                break
        it.artifact_mb = _tree_bytes(out) / 1e6
        if not it.problems:
            it.problems += wl.check(out, ctx.root)
            if (out / "timings.json").is_file():
                it.timings = json.loads((out / "timings.json").read_text())["timings_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return it


def _import_child(ctx: Context, extra: list[str]):
    work = Path(tempfile.mkdtemp(prefix="import-", dir=ctx.tmp))
    try:
        log = work / "log.txt"
        code, wall, _, _ = spawn([sys.executable] + extra + ["-c", "import levitomo.cli"], ctx, log)
        if code != 0:
            raise RuntimeError(f"import levitomo.cli exited with code {code}: {_log_tail(log)}")
        return wall, log.read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_profile(ctx: Context) -> tuple[float, float]:
    """``-X importtime`` seconds of ``import levitomo.cli`` and of the ``scipy.signal`` inside it."""
    _, text = _import_child(ctx, ["-X", "importtime"])
    cli_us = signal_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name_field = line[len("import time:") :].split("|")
        name = name_field.strip()
        top_level = len(name_field) - len(name_field.lstrip()) == 1
        if top_level and name in ("levitomo", "levitomo.cli"):
            cli_us += int(cumulative)
        elif name == "scipy.signal" and not signal_us:
            signal_us = int(cumulative)
    return cli_us / 1e6, signal_us / 1e6


def per_layer_metrics(it: Iteration, untraced: Iteration) -> dict[str, float]:
    summary = tracer.summarize(it.spans)
    values = {name: summary.get(PER_LAYER_ALIASES.get(name, name), 0.0) for name in PER_LAYER_NAMES}
    samples = summary.get("tomography.bin_marginals.samples", 0)
    values["tomography.dropped_fraction"] = summary.get("tomography.bin_marginals.dropped", 0) / samples if samples else 0.0
    values["tomography.save_s"] = sum(summary.get(f"{fn}_s", 0.0) for fn in TOMOGRAPHY_SAVES)
    values["tomography.save_bytes"] = sum(summary.get(f"{fn}.bytes", 0) for fn in TOMOGRAPHY_SAVES)
    for stage in STAGES:
        values[f"cli.stage.{stage}_s"] = it.timings.get(stage, 0.0)
    values["trace.overhead_s"] = it.wall_s - untraced.wall_s
    return values


def provenance(ctx: Context, wl: Workload, seed: int, seconds: int, trace: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit, dirty = "unknown (not a git checkout)", None
    if (ctx.root / ".git").exists():
        git = ["git", "-C", str(ctx.root)]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
        dirty = bool(status.stdout.strip())
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "overrides": list(wl.overrides),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "git_dirty": dirty,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def run_benchmark(wl: Workload, seed: int, seconds: int, trace: bool, ctx: Context) -> dict:
    """Measure one workload; return the result line plus samples and provenance."""
    _import_child(ctx, [])  # warm-up: bytecode and file caches, as every later CLI call has them
    setup: list[float] = []
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    start = time.monotonic()
    while True:
        # Set-up samples are spread over the run, so that they see the same host speeds as the iterations.
        if not trace and len(untraced) % SETUP_EVERY == 0:
            setup.append(_import_child(ctx, [])[0])
        # In trace mode the pair's order alternates, so drift does not bias the overhead.
        if trace and len(traced) % 2:
            traced.append(run_iteration(wl, seed, ctx, traced=True))
        untraced.append(run_iteration(wl, seed, ctx, traced=False))
        if trace and len(traced) < len(untraced):
            traced.append(run_iteration(wl, seed, ctx, traced=True))
        now = time.monotonic()
        per_iteration = (now - start) / len(untraced)
        if now - start + per_iteration > seconds or now + 2 * per_iteration > ctx.deadline:
            break

    def median_of(iterations, key):
        good = [it for it in iterations if not it.problems] or iterations
        return statistics.median(getattr(it, key) for it in good)

    if trace:
        profiles = [import_profile(ctx) for _ in range(IMPORT_PROFILE_SAMPLES)]
        per_pair = [per_layer_metrics(t, u) for t, u in zip(traced, untraced)]
        values = {name: statistics.median(p[name] for p in per_pair) for name in PER_LAYER_NAMES}
        values["import.levitomo_cli_s"] = statistics.median(p[0] for p in profiles)
        values["import.scipy_signal_s"] = statistics.median(p[1] for p in profiles)
    else:
        values = {name: median_of(untraced, name) for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = statistics.median(setup)
    everything = untraced + traced
    failed = sum(1 for it in everything if it.problems)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(everything),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
        },
        "samples": {
            "setup_s": setup,
            "iterations": [
                {k: v for k, v in vars(it).items() if k != "spans"} for it in everything
            ],
        },
        "spans": [dict(span, iteration=i) for i, it in enumerate(traced) for span in it.spans],
        "provenance": provenance(ctx, wl, seed, seconds, int(trace)),
    }


def report(outcome: dict, stream=sys.stdout) -> None:
    """Print every metric with its unit and sample count, error_rate and provenance, then the result line."""
    result = outcome["result"]
    samples = outcome["samples"]
    n_iter = sum(1 for it in samples["iterations"] if not it["traced"])
    n_traced = len(samples["iterations"]) - n_iter
    print("provenance: " + json.dumps(outcome["provenance"], sort_keys=True), file=stream)
    for name, metric in result["metrics"].items():
        if name == "setup_s":
            basis = f"median of {len(samples['setup_s'])} fresh imports"
        elif name.startswith("import."):
            basis = f"median of {IMPORT_PROFILE_SAMPLES} -X importtime runs"
        elif n_traced:
            basis = f"median of {n_traced} traced iterations"
        else:
            basis = f"median of {n_iter} iterations"
        print(f"{name} = {metric['value']:.6g} {metric['unit']} ({basis})", file=stream)
    rate = result["failed"] / result["attempted"]
    print(f"error_rate = {rate:g} ({result['failed']} failed of {result['attempted']} attempted)", file=stream)
    print(json.dumps(result), file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/levitomo/cli.py", "reference.cfg") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a levitomo source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    ctx = make_context()
    outcome = run_benchmark(wl, args.seed, args.seconds, bool(args.trace), ctx)
    for i, it in enumerate(outcome["samples"]["iterations"]):
        for problem in it["problems"]:
            print(f"bench: iteration {i} failed: {problem}", file=sys.stderr)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RUN_DIR / "results").mkdir(parents=True, exist_ok=True)
    (RUN_DIR / "results" / f"{stem}.json").write_text(
        json.dumps({k: v for k, v in outcome.items() if k != "spans"}, indent=2, sort_keys=True) + "\n"
    )
    if args.trace:
        (RUN_DIR / "traces").mkdir(parents=True, exist_ok=True)
        (RUN_DIR / "traces" / f"{stem}.json").write_text(json.dumps(outcome["spans"]) + "\n")
    report(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
