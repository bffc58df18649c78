"""Command-line pipeline: reproducible end-to-end runs with CSV/JSON artifacts.

Subcommands
    derive       closed-form derived quantities -> JSON
    simulate     thermal/coherent trajectory -> CSV
    detect       trajectory -> count records (single and/or balanced scheme)
    psd          trajectory -> Welch PSD and oscillator-line fit
    tomo         trajectory -> marginals, Wigner grid, analysis report
    decoherence  superposition-size decoherence curve -> CSV
    pipeline     simulate -> detect -> invert -> PSD/fit -> bin -> reconstruct

Each subcommand other than ``pipeline`` loads its input and runs one stage of
the pipeline through the same function and with the same stage seed, so
``simulate`` then ``detect`` with one ``--seed`` write the pipeline's files.
Every run is reproducible: (config, seed) determine all artifacts, and
``manifest.json`` records the resolved configuration plus a digest of every
file the run read or wrote. Wall-clock timings go to a sibling
``timings.json``, deliberately outside the manifest so re-runs are
byte-identical. Exit codes: 0 success, 2 usage/config error, 3 stage failure
or a file that cannot be read or written; a failed ``pipeline`` run renames
every file it wrote to ``<name>.partial``.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, artifacts, detection, dynamics, spectral, tomography
from .constants import KB, TWO_PI
from .errors import ConfigError, LevitomoError
from .physics import (
    ExperimentConfig,
    decoherence_curve,
    default_config,
    derive,
    load_key_values,
    typed_fields,
)

# allowed values of the settings that name a choice
_CHOICES = {
    "sim_state": ("thermal", "coherent", "fock1"),
    "scheme": ("ch", "cbh", "both"),
    "detection_model": ("linear", "exact"),  # exact handles large excursions, e.g. 300 K
    "calibration": ("auto", "linear", "equipartition"),
}


@dataclass(frozen=True)
class PipelineSettings:
    """Run-level knobs, merged from the config file and ``--set`` overrides.

    ``sim_temperature_K`` is the effective motional temperature of the
    simulated record (an amplitude knob): the default 30 mK keeps the
    interferometer response linear, while the environment temperature in
    ``ExperimentConfig`` still drives gas damping. ``cutoff_fraction`` < 1
    suppresses histogram shot noise in the reconstruction.
    """

    sim_duration_s: float = 1.0
    sim_sample_rate_hz: float = 1e6
    sim_temperature_K: float = 0.03
    sim_state: str = "thermal"
    coherent_amplitude_m: float = 2e-9
    coherent_phase_rad: float = 0.0
    scheme: str = "both"
    detection_model: str = "linear"
    shot_noise: bool = True
    electronic_noise_counts_rms: float = 0.0
    linearity_guard: float = 0.35
    calibration: str = "auto"  # auto: equipartition for a thermal record with shot noise, else linear
    n_angles: int = 90
    marginal_grid_points: int = 129
    marginal_span_sigmas: float = 5.0
    wigner_grid_size: int = 128
    cutoff_fraction: float = 0.5
    psd_segment_len: int = 0  # 0 = auto: largest power of two <= n/4, capped at 2^17
    psd_overlap: float = 0.5
    decoherence_zmin_m: float = 1e-12
    decoherence_zmax_m: float = 1e-6
    decoherence_points: int = 200

    _POSITIVE = ("sim_duration_s", "sim_sample_rate_hz", "sim_temperature_K", "marginal_span_sigmas", "linearity_guard")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineSettings":
        return cls(**typed_fields(cls, mapping))

    def __post_init__(self):
        """Reject settings that no stage can run with, before any stage runs."""
        for name in self._POSITIVE:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        noise = self.electronic_noise_counts_rms
        if not (math.isfinite(noise) and noise >= 0):
            raise ConfigError(f"electronic_noise_counts_rms must be finite and non-negative, got {noise!r}")
        for name, least in (("n_angles", tomography.MIN_ANGLES), ("wigner_grid_size", tomography.MIN_GRID_SIZE)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        segment, least = self.psd_segment_len, spectral.MIN_SEGMENT_LEN
        if segment and (segment < least or segment & (segment - 1)):
            raise ConfigError(f"psd_segment_len must be 0 (auto) or a power of two >= {least}, got {segment!r}")
        if not 0 <= self.psd_overlap < 1:
            raise ConfigError(f"psd_overlap must be in [0, 1), got {self.psd_overlap!r}")
        zmin, zmax, npoints = self.decoherence_zmin_m, self.decoherence_zmax_m, self.decoherence_points
        if not (0 < zmin < zmax and math.isfinite(zmax) and npoints >= 1):
            raise ConfigError(
                "need 0 < decoherence_zmin_m < decoherence_zmax_m (finite) and decoherence_points >= 1,"
                f" got {zmin!r}, {zmax!r}, {npoints!r}"
            )
        if not 0 < self.cutoff_fraction <= 1:
            raise ConfigError(f"cutoff_fraction must be in (0, 1], got {self.cutoff_fraction!r}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {getattr(self, name)!r}")
        points = self.marginal_grid_points
        if self.sim_state == "fock1":  # the oracle reconstructs onto its marginal grid
            if points < tomography.MIN_GRID_SIZE:
                raise ConfigError(
                    f"marginal_grid_points must be at least {tomography.MIN_GRID_SIZE} for fock1, got {points!r}"
                )
        elif points < 3 or points % 2 == 0:
            raise ConfigError(f"marginal_grid_points must be odd and at least 3 to contain 0, got {points!r}")


def resolve_settings(
    config_path: str | None, overrides: list[str]
) -> tuple[ExperimentConfig, PipelineSettings, dict]:
    """Merge config file (or built-in defaults) with ``--set key=value`` overrides.

    Returns the experiment config, the validated pipeline settings and the
    resolved snapshot mapping that goes into the manifest. Unknown keys are an
    error.
    """
    pipe_keys = {f.name for f in fields(PipelineSettings)}
    mapping: dict = {}
    if config_path is not None:
        mapping.update(load_key_values(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        mapping[key] = value
    exp_mapping = {k: v for k, v in mapping.items() if k not in pipe_keys}
    config = replace(default_config(), **typed_fields(ExperimentConfig, exp_mapping))
    settings = PipelineSettings.from_mapping({k: v for k, v in mapping.items() if k in pipe_keys})
    return config, settings, {**asdict(config), **asdict(settings)}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """Per-stage record of inputs, outputs and content digests."""

    def __init__(self, snapshot: dict, seed: int, out_dir: Path):
        self.snapshot = snapshot
        self.seed = seed
        self.out_dir = out_dir
        self.stages: list[dict] = []
        self.timings: dict[str, float] = {}
        self.written: list[Path] = []  # every stage's outputs, failed stages too, for mark_partial

    def record(self, name: str, inputs: dict[str, Path], outputs: list[Path], elapsed_s: float):
        self.stages.append(
            {
                "name": name,
                "inputs": {key: _sha256(path) for key, path in sorted(inputs.items())},
                "outputs": {
                    str(path.relative_to(self.out_dir)): _sha256(path) for path in sorted(outputs)
                },
            }
        )
        self.timings[name] = elapsed_s

    def write(self) -> Path:
        manifest = {
            "package_version": __version__,
            "seed": self.seed,
            "config": self.snapshot,
            "stages": self.stages,
        }
        artifacts.write_json(self.out_dir / "timings.json", {"timings_s": self.timings})
        return artifacts.write_json(self.out_dir / "manifest.json", manifest)

    def mark_partial(self) -> None:
        for path in self.written:
            if path.is_file():
                path.rename(path.with_name(path.name + ".partial"))


def _auto_segment_len(n_samples: int, requested: int) -> int:
    if requested:
        return requested
    target = max(n_samples // 4, 8)
    return min(1 << int(math.floor(math.log2(target))), 1 << 17)


# ---------------------------------------------------------------------------
# stages: each computes one step of the chain and writes its artifacts into
# ``out_dir``, appending each path to ``outputs`` before the file is written so
# a write that fails part-way still leaves every written file listed


def _stage_seeds(seed: int) -> tuple[int, int, int]:
    """Seeds of the simulate, ch-detect and cbh-detect stages of run seed ``seed``."""
    sim, ch, cbh = (int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(3))
    return sim, ch, cbh


def _simulate(config, settings, dq, seed, out_dir, outputs) -> dynamics.Trajectory:
    if settings.sim_state == "thermal":
        traj = dynamics.simulate_thermal(
            config,
            dq,
            settings.sim_duration_s,
            settings.sim_sample_rate_hz,
            _stage_seeds(seed)[0],
            temperature_K=settings.sim_temperature_K,
        )
    elif settings.sim_state == "coherent":
        traj = dynamics.simulate_coherent(
            dq,
            settings.coherent_amplitude_m,
            settings.coherent_phase_rad,
            settings.sim_duration_s,
            settings.sim_sample_rate_hz,
        )
    else:
        raise ConfigError(
            f"state {settings.sim_state!r} has no trajectory simulation (fock1 is an oracle state)"
        )
    path = out_dir / "trajectory.csv"
    outputs += [path, artifacts.sidecar(path)]
    dynamics.save_trajectory(traj, path)
    return traj


def _detect(config, settings, traj, seed, out_dir, outputs) -> dict[str, detection.CountRecord]:
    detect = detection.detect_exact if settings.detection_model == "exact" else detection.detect_linear
    records = {}
    for scheme, det_seed in zip(detection.SCHEMES, _stage_seeds(seed)[1:]):
        if settings.scheme not in (scheme, "both"):
            continue
        params = detection.params_from_config(
            config,
            scheme,
            shot_noise=settings.shot_noise,
            electronic_noise_counts_rms=settings.electronic_noise_counts_rms,
            linearity_guard=settings.linearity_guard,
        )
        records[scheme] = detect(traj, params, seed=det_seed)
        path = out_dir / f"counts_{scheme}.csv"
        outputs += [path, artifacts.sidecar(path)]
        detection.save_count_record(records[scheme], path)
    return records


def _invert(settings, dq, record, out_dir, outputs) -> dynamics.Trajectory:
    """Calibrated positions; ``auto`` rescales to equipartition only a thermal record with shot noise."""
    calibration = settings.calibration
    if calibration == "auto":
        thermal_noisy = settings.sim_state == "thermal" and settings.shot_noise
        calibration = "equipartition" if thermal_noisy else "linear"
    target_var = KB * settings.sim_temperature_K / (dq.mass_kg * dq.omega_s_rad_s**2)
    inverted = detection.invert_counts(record, calibration=calibration, target_variance_m2=target_var)
    path = out_dir / "inverted.csv"
    outputs += [path, artifacts.sidecar(path)]
    dynamics.save_trajectory(inverted, path)
    return inverted


def _fit_line(series, dq, settings) -> tuple[spectral.Psd, spectral.LorentzianFit]:
    segment = _auto_segment_len(len(series.z_m), settings.psd_segment_len)
    psd = spectral.estimate_psd(series.z_m, series.sample_rate_Hz, segment, settings.psd_overlap)
    f0 = dq.omega_s_rad_s / TWO_PI
    return psd, spectral.fit_lorentzian(psd, (0.5 * f0, 1.5 * f0))


def _save_line(psd, fit, out_dir, suffix, outputs) -> None:
    """Write ``psd<suffix>.csv`` and the line fit ``fit<suffix>.json``."""
    psd_path, fit_path = out_dir / f"psd{suffix}.csv", out_dir / f"fit{suffix}.json"
    outputs += [psd_path, fit_path]
    artifacts.write_columns(psd_path, ["freq_Hz", "power"], [psd.freqs_Hz, psd.power])
    artifacts.write_json(
        fit_path,
        {
            "omega0_rad_s": fit.omega0_rad_s,
            "linewidth_rad_s": fit.linewidth_rad_s,
            "amplitude": fit.amplitude,
            "noise_floor": fit.noise_floor,
            "residual_rms": fit.residual_rms,
            "covariance": fit.covariance.tolist(),
            "snr_db": spectral.noise_floor_and_snr(psd, fit).snr_db,
        },
    )


def _reconstruct(marginals, grid_size, cutoff_fraction, out_dir, outputs) -> tomography.WignerReport:
    wigner = tomography.inverse_radon(marginals, grid_size, cutoff_fraction=cutoff_fraction)
    report = tomography.analyze(wigner)
    paths = [out_dir / "marginals.csv", out_dir / "wigner.csv", out_dir / "analyze.json"]
    outputs += paths
    tomography.save_marginals(marginals, paths[0])
    tomography.save_wigner(wigner, paths[1])
    tomography.save_report(report, paths[2])
    return report


def _tomography(series, omega_rad_s, settings, out_dir, outputs) -> tomography.WignerReport:
    grid = tomography.default_z_grid(series.z_m, settings.marginal_grid_points, settings.marginal_span_sigmas)
    marginals = tomography.bin_marginals(series, omega_rad_s, settings.n_angles, grid)
    return _reconstruct(marginals, settings.wigner_grid_size, settings.cutoff_fraction, out_dir, outputs)


def _decoherence(settings, dq, out_dir, outputs) -> None:
    zmin, zmax, n = settings.decoherence_zmin_m, settings.decoherence_zmax_m, settings.decoherence_points
    grid = np.logspace(math.log10(zmin), math.log10(zmax), n) if n > 1 else np.array([zmin])
    curve = np.array(decoherence_curve(grid, dq))
    path = out_dir / "decoherence.csv"
    outputs.append(path)
    artifacts.write_columns(path, ["delta_z_m", "tau_s"], [curve[:, 0], curve[:, 1]])


# ---------------------------------------------------------------------------
# subcommands


def _load(args) -> tuple[ExperimentConfig, PipelineSettings, dict]:
    """Resolve ``--config`` and ``--set``; a flag named after a setting (``--state``) overrides both."""
    overrides = list(args.set or [])
    for f in fields(PipelineSettings):
        if getattr(args, f.name, None) is not None:
            overrides.append(f"{f.name}={getattr(args, f.name)}")
    return resolve_settings(args.config, overrides)


def _out_dir(args) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _print_written(outputs: list[Path]) -> int:
    print("wrote " + ", ".join(str(path) for path in outputs))
    return 0


def cmd_derive(args) -> int:
    config, _, _ = _load(args)
    payload = asdict(derive(config))
    artifacts.write_json(_out_dir(args) / "derived.json", payload)
    print(artifacts.dumps(payload))
    return 0


def cmd_simulate(args) -> int:
    config, settings, _ = _load(args)
    outputs: list[Path] = []
    _simulate(config, settings, derive(config), args.seed, _out_dir(args), outputs)
    return _print_written(outputs)


def cmd_detect(args) -> int:
    config, settings, _ = _load(args)
    outputs: list[Path] = []
    _detect(config, settings, dynamics.load_trajectory(args.traj), args.seed, _out_dir(args), outputs)
    return _print_written(outputs)


def cmd_psd(args) -> int:
    config, settings, _ = _load(args)
    psd, fit = _fit_line(dynamics.load_trajectory(args.traj), derive(config), settings)
    outputs: list[Path] = []
    _save_line(psd, fit, _out_dir(args), "", outputs)
    return _print_written(outputs)


def cmd_tomo(args) -> int:
    config, settings, _ = _load(args)
    traj = dynamics.load_trajectory(args.traj)
    _, fit = _fit_line(traj, derive(config), settings)
    report = _tomography(traj, fit.omega0_rad_s, settings, _out_dir(args), [])
    print(artifacts.dumps(asdict(report)))
    return 0


def cmd_decoherence(args) -> int:
    config, settings, _ = _load(args)
    outputs: list[Path] = []
    _decoherence(settings, derive(config), _out_dir(args), outputs)
    return _print_written(outputs)


def cmd_pipeline(args) -> int:
    config, settings, snapshot = _load(args)
    out_dir = _out_dir(args)
    manifest = RunManifest(snapshot, args.seed, out_dir)
    config_inputs = {"config_file": Path(args.config)} if args.config else {}
    try:
        _run_pipeline(config, settings, args.seed, out_dir, manifest, config_inputs)
        manifest.write()
    except (LevitomoError, OSError) as exc:
        manifest.mark_partial()
        print(f"pipeline stage failed: {exc}", file=sys.stderr)
        return 3
    except BaseException:
        manifest.mark_partial()
        raise
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


@contextmanager
def _stage(manifest: RunManifest, name: str, inputs: dict[str, Path]):
    """Yield the list a stage appends its outputs to; record them and the timing if it succeeds."""
    outputs: list[Path] = []
    start = time.perf_counter()
    try:
        yield outputs
    finally:
        manifest.written.extend(outputs)
    manifest.record(name, inputs, outputs, time.perf_counter() - start)


def _run_pipeline(config, settings, seed, out_dir, manifest, config_inputs):
    """Run every stage in order; ``plotdata/style.json`` names each figure's source file."""
    dq = derive(config)
    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(exist_ok=True)
    figures: dict = {}

    with _stage(manifest, "derive", config_inputs) as outputs:
        path = out_dir / "derived.json"
        outputs.append(path)
        artifacts.write_json(path, asdict(dq))

    if settings.sim_state == "fock1":
        # oracle reconstruction of the first excited state, in natural units (s = 1)
        with _stage(manifest, "tomography", {}) as outputs:
            angles = TWO_PI * np.arange(settings.n_angles) / settings.n_angles
            grid = np.linspace(-5.0, 5.0, settings.marginal_grid_points)
            marginals = tomography.oracle_marginals("fock1", angles, grid, z_zpf_m=1.0 / math.sqrt(2.0))
            report = _reconstruct(marginals, settings.marginal_grid_points, 1.0, out_dir, outputs)
            print(artifacts.dumps(asdict(report)))
        figures["fig2c"] = {
            "file": "wigner.csv",
            "matrix": "rows z, columns p (natural units)",
            "kind": "heatmap",
        }
    else:
        with _stage(manifest, "simulate", config_inputs) as outputs:
            traj = _simulate(config, settings, dq, seed, out_dir, outputs)

        with _stage(manifest, "detect", {"trajectory": out_dir / "trajectory.csv"}) as outputs:
            records = _detect(config, settings, traj, seed, out_dir, outputs)
        primary = "cbh" if "cbh" in records else "ch"

        with _stage(manifest, "invert", {}) as outputs:
            inverted = _invert(settings, dq, records[primary], out_dir, outputs)
            n_plot = min(len(inverted.z_m), 2000)
            fig2a = plot_dir / "fig2a_position_signal.csv"
            outputs.append(fig2a)
            artifacts.write_columns(fig2a, ["t_s", "z_m"], [inverted.times_s[:n_plot], inverted.z_m[:n_plot]])
        figures["fig2a"] = {"file": "plotdata/" + fig2a.name, "x": "t_s", "y": "z_m", "kind": "line"}

        psds: dict[str, spectral.Psd] = {}
        fits: dict[str, spectral.LorentzianFit] = {}
        with _stage(manifest, "spectral", {}) as outputs:
            for scheme, rec in records.items():
                psds[scheme], fits[scheme] = _fit_line(detection.invert_counts(rec), dq, settings)
                _save_line(psds[scheme], fits[scheme], out_dir, f"_{scheme}", outputs)
            if len(records) == 2:
                path = out_dir / "noise_floors.json"
                outputs.append(path)
                artifacts.write_json(path, asdict(detection.compare_noise_floor(psds["ch"], psds["cbh"])))
        figures["fig2d"] = {
            "file": [f"psd_{scheme}.csv" for scheme in psds],
            "x": "freq_Hz",
            "y": "power",
            "kind": "line",
            "xscale": "log",
            "yscale": "log",
            "floors": {scheme: fit.noise_floor for scheme, fit in fits.items()},
        }

        with _stage(manifest, "tomography", {}) as outputs:
            _tomography(inverted, fits[primary].omega0_rad_s, settings, out_dir, outputs)
        figures["fig2b"] = {"file": "marginals.csv", "matrix": "rows z, columns theta", "kind": "heatmap"}
        figures["fig2c"] = {"file": "wigner.csv", "matrix": "rows z, columns p/(m omega)", "kind": "heatmap"}

    with _stage(manifest, "decoherence", {}) as outputs:
        _decoherence(settings, dq, out_dir, outputs)
    figures["fig3"] = {
        "file": "decoherence.csv",
        "x": "delta_z_m",
        "y": "tau_s",
        "kind": "line",
        "xscale": "log",
        "yscale": "log",
    }

    with _stage(manifest, "plot-style", {}) as outputs:
        path = plot_dir / "style.json"
        outputs.append(path)
        artifacts.write_json(path, {"figures": figures})


# ---------------------------------------------------------------------------
# argument parsing


def _seed(text: str) -> int:
    """``--seed`` as an integer; a negative seed is a usage error, as numpy's SeedSequence refuses it."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=_seed, default=0, help="run seed, a non-negative integer (default 0)")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI; a flag whose ``dest`` is a setting name overrides that setting."""
    parser = argparse.ArgumentParser(
        prog="levitomo",
        description="Levitated-nanoparticle measurement chain and Wigner tomography",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="closed-form derived quantities")
    _add_common(p_derive)
    p_derive.set_defaults(func=cmd_derive)

    p_sim = sub.add_parser("simulate", help="simulate a trajectory")
    _add_common(p_sim)
    p_sim.add_argument("--state", dest="sim_state", choices=_CHOICES["sim_state"])
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="convert a trajectory into count records")
    _add_common(p_det)
    p_det.add_argument("--traj", required=True, help="trajectory CSV from 'simulate'")
    p_det.add_argument("--scheme", choices=_CHOICES["scheme"])
    p_det.set_defaults(func=cmd_detect)

    p_psd = sub.add_parser("psd", help="Welch PSD and oscillator-line fit")
    _add_common(p_psd)
    p_psd.add_argument("--traj", required=True)
    p_psd.set_defaults(func=cmd_psd)

    p_tomo = sub.add_parser("tomo", help="marginals and Wigner reconstruction")
    _add_common(p_tomo)
    p_tomo.add_argument("--traj", required=True)
    p_tomo.set_defaults(func=cmd_tomo)

    p_dec = sub.add_parser("decoherence", help="superposition-size decoherence curve")
    _add_common(p_dec)
    p_dec.add_argument("--zmin", dest="decoherence_zmin_m", help="smallest superposition size [m]")
    p_dec.add_argument("--zmax", dest="decoherence_zmax_m", help="largest superposition size [m]")
    p_dec.add_argument("--npoints", dest="decoherence_points", help="number of log-spaced points")
    p_dec.set_defaults(func=cmd_decoherence)

    p_pipe = sub.add_parser("pipeline", help="full end-to-end run")
    _add_common(p_pipe)
    p_pipe.add_argument("--state", dest="sim_state", choices=_CHOICES["sim_state"])
    p_pipe.add_argument("--scheme", choices=_CHOICES["scheme"])
    p_pipe.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (LevitomoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
