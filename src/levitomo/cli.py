"""Command-line pipeline: reproducible end-to-end runs with CSV/JSON artifacts.

Subcommands
    derive       closed-form derived quantities -> JSON
    simulate     thermal/coherent trajectory -> CSV
    detect       trajectory -> count records (single and/or balanced scheme)
    psd          trajectory -> Welch PSD and oscillator-line fit
    tomo         trajectory -> marginals, Wigner grid, analysis report
    decoherence  superposition-size decoherence curve -> CSV
    pipeline     simulate -> detect -> invert -> PSD/fit -> bin -> reconstruct

Every run is reproducible: (config, seed) determine all artifacts, and
``manifest.json`` records the resolved configuration plus a digest of every
file the run read or wrote. Wall-clock timings go to a sibling
``timings.json``, deliberately outside the manifest so re-runs are
byte-identical. Exit codes: 0 success, 2 usage/config error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, csvfile, detection, dynamics, spectral, tomography
from .constants import KB
from .errors import ConfigError, LevitomoError
from .physics import (
    DerivedQuantities,
    ExperimentConfig,
    decoherence_curve,
    default_config,
    derive,
    load_key_values,
)

_TWO_PI = 2.0 * math.pi


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
    sim_state: str = "thermal"  # thermal | coherent | fock1
    coherent_amplitude_m: float = 2e-9
    coherent_phase_rad: float = 0.0
    scheme: str = "both"  # ch | cbh | both
    detection_model: str = "linear"  # linear | exact (exact handles large excursions, e.g. 300 K)
    shot_noise: bool = True
    electronic_noise_counts_rms: float = 0.0
    linearity_guard: float = 0.35
    calibration: str = "auto"  # auto | linear | equipartition
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

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineSettings":
        kwargs = {}
        for f in fields(cls):
            if f.name not in mapping:
                continue
            raw = mapping[f.name]
            if f.type == "bool" or isinstance(f.default, bool):
                kwargs[f.name] = _parse_bool(f.name, raw)
            elif isinstance(f.default, int):
                kwargs[f.name] = _parse_int(f.name, raw)
            elif isinstance(f.default, float):
                kwargs[f.name] = _parse_float(f.name, raw)
            else:
                kwargs[f.name] = str(raw)
        return cls(**kwargs)


def _parse_int(key: str, raw) -> int:
    """An integer literal; a fractional or non-numeric value is an error, never truncated."""
    try:
        return int(str(raw))
    except ValueError:
        raise ConfigError(f"cannot parse {key!r}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key!r}: expected a number, got {raw!r}") from None


def _parse_bool(key: str, raw) -> bool:
    if isinstance(raw, bool):
        return raw
    low = str(raw).strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"cannot parse {key!r}: expected a boolean, got {raw!r}")


def resolve_settings(
    config_path: str | None, overrides: list[str]
) -> tuple[ExperimentConfig, PipelineSettings, dict]:
    """Merge config file (or built-in defaults) with ``--set key=value`` overrides.

    Returns the experiment config, pipeline settings and the resolved snapshot
    mapping that goes into the manifest. Unknown keys are an error.
    """
    exp_keys = set(ExperimentConfig.field_names())
    pipe_keys = set(PipelineSettings.field_names())
    mapping: dict = {}
    if config_path is not None:
        mapping.update(load_key_values(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        mapping[key] = value
    unknown = [k for k in mapping if k not in exp_keys and k not in pipe_keys]
    if unknown:
        raise ConfigError(f"unknown configuration key {unknown[0]!r}")

    exp_mapping = {k: v for k, v in mapping.items() if k in exp_keys}
    base = default_config()
    if exp_mapping:
        defaults = {name: getattr(base, name) for name in exp_keys}
        defaults.update(exp_mapping)
        config = ExperimentConfig.from_mapping({k: str(v) for k, v in defaults.items()})
    else:
        config = base
    settings = PipelineSettings.from_mapping({k: v for k, v in mapping.items() if k in pipe_keys})
    snapshot = {name: getattr(config, name) for name in sorted(exp_keys)}
    snapshot.update({name: getattr(settings, name) for name in sorted(pipe_keys)})
    return config, settings, snapshot


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
        self.artifacts: list[Path] = []

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
        self.artifacts.extend(outputs)

    def write(self) -> Path:
        manifest = {
            "package_version": __version__,
            "seed": self.seed,
            "config": {k: v for k, v in sorted(self.snapshot.items())},
            "stages": self.stages,
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        (self.out_dir / "timings.json").write_text(
            json.dumps({"timings_s": self.timings}, indent=2, sort_keys=True) + "\n"
        )
        return path

    def mark_partial(self) -> None:
        for path in self.artifacts:
            if path.is_file():
                path.rename(path.with_name(path.name + ".partial"))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _derived_dict(dq: DerivedQuantities) -> dict:
    return dataclasses.asdict(dq)


def _auto_segment_len(n_samples: int, requested: int) -> int:
    if requested:
        return requested
    target = max(n_samples // 4, 8)
    return min(1 << int(math.floor(math.log2(target))), 1 << 17)


def _columns_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    csvfile.write_columns(path, header, columns)


# ---------------------------------------------------------------------------
# subcommands


def cmd_derive(args) -> int:
    config, _, snapshot = resolve_settings(args.config, args.set or [])
    dq = derive(config)
    payload = _derived_dict(dq)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "derived.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    config, settings, _ = resolve_settings(args.config, args.set or [])
    state = args.state or settings.sim_state
    dq = derive(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if state == "thermal":
        traj = dynamics.simulate_thermal(
            config,
            dq,
            settings.sim_duration_s,
            settings.sim_sample_rate_hz,
            args.seed,
            temperature_K=settings.sim_temperature_K,
        )
    elif state == "coherent":
        traj = dynamics.simulate_coherent(
            dq,
            settings.coherent_amplitude_m,
            settings.coherent_phase_rad,
            settings.sim_duration_s,
            settings.sim_sample_rate_hz,
        )
    else:
        raise ConfigError(f"state {state!r} has no trajectory simulation (fock1 is an oracle state)")
    dynamics.save_trajectory(traj, out_dir / "trajectory.csv")
    print(f"wrote {out_dir / 'trajectory.csv'}")
    return 0


def _detect_schemes(settings: PipelineSettings, scheme_flag: str | None) -> list[str]:
    scheme = scheme_flag or settings.scheme
    if scheme == "both":
        return ["ch", "cbh"]
    if scheme in detection.SCHEMES:
        return [scheme]
    raise ConfigError(f"scheme must be ch, cbh or both, got {scheme!r}")


def _detection_params(config: ExperimentConfig, settings: PipelineSettings, scheme: str):
    return detection.params_from_config(
        config,
        scheme,
        shot_noise=settings.shot_noise,
        electronic_noise_counts_rms=settings.electronic_noise_counts_rms,
        linearity_guard=settings.linearity_guard,
    )


def _detect(traj, params, settings: PipelineSettings, seed: int):
    if settings.detection_model == "exact":
        return detection.detect_exact(traj, params, seed=seed)
    if settings.detection_model == "linear":
        return detection.detect_linear(traj, params, seed=seed)
    raise ConfigError(f"detection_model must be linear or exact, got {settings.detection_model!r}")


def cmd_detect(args) -> int:
    config, settings, _ = resolve_settings(args.config, args.set or [])
    traj = dynamics.load_trajectory(args.traj)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(2)
    for scheme, seed_seq in zip(("ch", "cbh"), seeds):
        if scheme not in _detect_schemes(settings, args.scheme):
            continue
        params = _detection_params(config, settings, scheme)
        rec = _detect(traj, params, settings, int(seed_seq.generate_state(1)[0]))
        detection.save_count_record(rec, out_dir / f"counts_{scheme}.csv")
        print(f"wrote {out_dir / f'counts_{scheme}.csv'}")
    return 0


def cmd_psd(args) -> int:
    config, settings, _ = resolve_settings(args.config, args.set or [])
    traj = dynamics.load_trajectory(args.traj)
    dq = derive(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    segment = _auto_segment_len(len(traj.z_m), settings.psd_segment_len)
    psd = spectral.estimate_psd(traj.z_m, traj.sample_rate_Hz, segment, settings.psd_overlap)
    _columns_csv(out_dir / "psd.csv", ["freq_Hz", "power"], [psd.freqs_Hz, psd.power])
    f0 = dq.omega_s_rad_s / _TWO_PI
    fit = spectral.fit_lorentzian(psd, (0.5 * f0, 1.5 * f0))
    snr = spectral.noise_floor_and_snr(psd, fit)
    _write_json(
        out_dir / "fit.json",
        {
            "omega0_rad_s": fit.omega0_rad_s,
            "linewidth_rad_s": fit.linewidth_rad_s,
            "amplitude": fit.amplitude,
            "noise_floor": fit.noise_floor,
            "residual_rms": fit.residual_rms,
            "covariance": fit.covariance.tolist(),
            "snr_db": snr.snr_db,
        },
    )
    print(f"wrote {out_dir / 'psd.csv'} and {out_dir / 'fit.json'}")
    return 0


def cmd_tomo(args) -> int:
    config, settings, _ = resolve_settings(args.config, args.set or [])
    traj = dynamics.load_trajectory(args.traj)
    dq = derive(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    segment = _auto_segment_len(len(traj.z_m), settings.psd_segment_len)
    psd = spectral.estimate_psd(traj.z_m, traj.sample_rate_Hz, segment, settings.psd_overlap)
    f0 = dq.omega_s_rad_s / _TWO_PI
    fit = spectral.fit_lorentzian(psd, (0.5 * f0, 1.5 * f0))
    grid = tomography.default_z_grid(
        traj.z_m, settings.marginal_grid_points, settings.marginal_span_sigmas
    )
    marginals = tomography.bin_marginals(traj, fit.omega0_rad_s, settings.n_angles, grid)
    wigner = tomography.inverse_radon(
        marginals, settings.wigner_grid_size, cutoff_fraction=settings.cutoff_fraction
    )
    report = tomography.analyze(wigner)
    tomography.save_marginals(marginals, out_dir / "marginals.csv")
    tomography.save_wigner(wigner, out_dir / "wigner.csv")
    tomography.save_report(report, out_dir / "analyze.json")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_decoherence(args) -> int:
    config, settings, _ = resolve_settings(args.config, args.set or [])
    zmin = args.zmin if args.zmin is not None else settings.decoherence_zmin_m
    zmax = args.zmax if args.zmax is not None else settings.decoherence_zmax_m
    npoints = args.npoints if args.npoints is not None else settings.decoherence_points
    if not 0 < zmin < zmax or npoints < 1:
        raise ConfigError(f"need 0 < zmin < zmax and npoints >= 1, got {zmin!r}, {zmax!r}, {npoints!r}")
    dq = derive(config)
    grid = np.logspace(math.log10(zmin), math.log10(zmax), npoints) if npoints > 1 else np.array([zmin])
    curve = decoherence_curve(grid, dq)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _columns_csv(
        out_dir / "decoherence.csv",
        ["delta_z_m", "tau_s"],
        [np.array([dz for dz, _ in curve]), np.array([tau for _, tau in curve])],
    )
    print(f"wrote {out_dir / 'decoherence.csv'}")
    return 0


def cmd_pipeline(args) -> int:
    config, settings, snapshot = resolve_settings(args.config, args.set or [])
    if args.state:
        settings = replace(settings, sim_state=args.state)
        snapshot["sim_state"] = args.state
    if args.scheme:
        settings = replace(settings, scheme=args.scheme)
        snapshot["scheme"] = args.scheme
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(snapshot, args.seed, out_dir)
    config_inputs: dict[str, Path] = {}
    if args.config:
        config_inputs["config_file"] = Path(args.config)

    try:
        _run_pipeline(config, settings, args.seed, out_dir, manifest, config_inputs)
    except LevitomoError as exc:
        manifest.mark_partial()
        print(f"pipeline stage failed: {exc}", file=sys.stderr)
        return 3
    manifest.write()
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def _stage(manifest: RunManifest, name: str, inputs: dict[str, Path]):
    """Context manager recording one stage's outputs and timing."""

    class _Recorder:
        def __init__(self):
            self.outputs: list[Path] = []

        def __enter__(self):
            self._start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                manifest.record(name, inputs, self.outputs, time.perf_counter() - self._start)
            return False

    return _Recorder()


def _run_pipeline(config, settings, seed, out_dir, manifest, config_inputs):
    dq = derive(config)
    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(exist_ok=True)
    style: dict = {"figures": {}}

    with _stage(manifest, "derive", config_inputs) as stage:
        path = out_dir / "derived.json"
        _write_json(path, _derived_dict(dq))
        stage.outputs.append(path)

    if settings.sim_state == "fock1":
        _run_fock_oracle(settings, out_dir, plot_dir, manifest, style)
        _run_decoherence_stage(config, settings, dq, out_dir, plot_dir, manifest, style)
        _write_style(plot_dir, style, manifest)
        return

    seed_seq = np.random.SeedSequence(seed)
    sim_seed, ch_seed, cbh_seed = (int(s.generate_state(1)[0]) for s in seed_seq.spawn(3))

    with _stage(manifest, "simulate", config_inputs) as stage:
        if settings.sim_state == "thermal":
            traj = dynamics.simulate_thermal(
                config,
                dq,
                settings.sim_duration_s,
                settings.sim_sample_rate_hz,
                sim_seed,
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
            raise ConfigError(f"unknown state {settings.sim_state!r}")
        traj_path = out_dir / "trajectory.csv"
        sidecar = dynamics.save_trajectory(traj, traj_path)
        stage.outputs.extend([traj_path, sidecar])

    schemes = _detect_schemes(settings, None)
    records: dict[str, detection.CountRecord] = {}
    with _stage(manifest, "detect", {"trajectory": out_dir / "trajectory.csv"}) as stage:
        for scheme, det_seed in (("ch", ch_seed), ("cbh", cbh_seed)):
            if scheme not in schemes:
                continue
            params = _detection_params(config, settings, scheme)
            records[scheme] = _detect(traj, params, settings, det_seed)
            path = out_dir / f"counts_{scheme}.csv"
            sidecar = detection.save_count_record(records[scheme], path)
            stage.outputs.extend([path, sidecar])

    primary = records.get("cbh") or records["ch"]
    calibration = settings.calibration
    if calibration == "auto":
        calibration = "equipartition" if settings.shot_noise else "linear"
    target_var = KB * settings.sim_temperature_K / (dq.mass_kg * dq.omega_s_rad_s**2)
    with _stage(manifest, "invert", {}) as stage:
        inverted = detection.invert_counts(
            primary,
            calibration=calibration,
            target_variance_m2=target_var if calibration == "equipartition" else None,
        )
        path = out_dir / "inverted.csv"
        sidecar = dynamics.save_trajectory(inverted, path)
        stage.outputs.extend([path, sidecar])
        n_plot = min(len(inverted.z_m), 2000)
        fig2a = plot_dir / "fig2a_position_signal.csv"
        _columns_csv(fig2a, ["t_s", "z_m"], [inverted.times_s[:n_plot], inverted.z_m[:n_plot]])
        stage.outputs.append(fig2a)
        style["figures"]["fig2a"] = {"x": "t_s", "y": "z_m", "kind": "line"}

    f0 = dq.omega_s_rad_s / _TWO_PI
    fits: dict[str, spectral.LorentzianFit] = {}
    psds: dict[str, spectral.Psd] = {}
    with _stage(manifest, "spectral", {}) as stage:
        for scheme, rec in records.items():
            series = detection.invert_counts(rec, calibration="linear")
            segment = _auto_segment_len(len(series.z_m), settings.psd_segment_len)
            psd = spectral.estimate_psd(series.z_m, series.sample_rate_Hz, segment, settings.psd_overlap)
            psds[scheme] = psd
            path = out_dir / f"psd_{scheme}.csv"
            _columns_csv(path, ["freq_Hz", "power"], [psd.freqs_Hz, psd.power])
            stage.outputs.append(path)
            fit = spectral.fit_lorentzian(psd, (0.5 * f0, 1.5 * f0))
            fits[scheme] = fit
            snr = spectral.noise_floor_and_snr(psd, fit)
            fit_path = out_dir / f"fit_{scheme}.json"
            _write_json(
                fit_path,
                {
                    "omega0_rad_s": fit.omega0_rad_s,
                    "linewidth_rad_s": fit.linewidth_rad_s,
                    "amplitude": fit.amplitude,
                    "noise_floor": fit.noise_floor,
                    "residual_rms": fit.residual_rms,
                    "covariance": fit.covariance.tolist(),
                    "snr_db": snr.snr_db,
                },
            )
            stage.outputs.append(fit_path)
        if len(records) == 2:
            report = detection.compare_noise_floor(records["ch"], records["cbh"])
            path = out_dir / "noise_floors.json"
            _write_json(path, dataclasses.asdict(report))
            stage.outputs.append(path)
            common = psds["ch"].freqs_Hz
            fig2d = plot_dir / "fig2d_psd.csv"
            _columns_csv(
                fig2d,
                ["freq_Hz", "psd_ch", "psd_cbh"],
                [common, psds["ch"].power, psds["cbh"].power],
            )
            stage.outputs.append(fig2d)
            style["figures"]["fig2d"] = {
                "x": "freq_Hz",
                "y": ["psd_ch", "psd_cbh"],
                "kind": "line",
                "xscale": "log",
                "yscale": "log",
                "floors": {"ch": fits["ch"].noise_floor, "cbh": fits["cbh"].noise_floor},
            }

    omega_hat = fits["cbh" if "cbh" in fits else "ch"].omega0_rad_s
    with _stage(manifest, "tomography", {}) as stage:
        grid = tomography.default_z_grid(
            inverted.z_m, settings.marginal_grid_points, settings.marginal_span_sigmas
        )
        marginals = tomography.bin_marginals(inverted, omega_hat, settings.n_angles, grid)
        wigner = tomography.inverse_radon(
            marginals, settings.wigner_grid_size, cutoff_fraction=settings.cutoff_fraction
        )
        report = tomography.analyze(wigner)
        paths = {
            "marginals": out_dir / "marginals.csv",
            "wigner": out_dir / "wigner.csv",
            "analyze": out_dir / "analyze.json",
        }
        tomography.save_marginals(marginals, paths["marginals"])
        tomography.save_wigner(wigner, paths["wigner"])
        tomography.save_report(report, paths["analyze"])
        stage.outputs.extend(paths.values())
        fig2b = shutil.copyfile(paths["marginals"], plot_dir / "fig2b_marginals.csv")
        fig2c = shutil.copyfile(paths["wigner"], plot_dir / "fig2c_wigner.csv")
        stage.outputs.extend([fig2b, fig2c])
        style["figures"]["fig2b"] = {"matrix": "rows z, columns theta", "kind": "heatmap"}
        style["figures"]["fig2c"] = {"matrix": "rows z, columns p/(m omega)", "kind": "heatmap"}

    _run_decoherence_stage(config, settings, dq, out_dir, plot_dir, manifest, style)
    _write_style(plot_dir, style, manifest)


def _run_fock_oracle(settings, out_dir, plot_dir, manifest, style):
    """Oracle reconstruction of the first excited state, in natural units (s = 1)."""
    with _stage(manifest, "tomography", {}) as stage:
        angles = _TWO_PI * np.arange(settings.n_angles) / settings.n_angles
        grid = np.linspace(-5.0, 5.0, settings.marginal_grid_points)
        oracle = dynamics.oracle_marginals("fock1", angles, grid, z_zpf_m=1.0 / math.sqrt(2.0))
        marginals = tomography.marginal_set_from_densities(angles, grid, oracle.densities)
        wigner = tomography.inverse_radon(marginals, settings.marginal_grid_points)
        report = tomography.analyze(wigner)
        paths = {
            "marginals": out_dir / "marginals.csv",
            "wigner": out_dir / "wigner.csv",
            "analyze": out_dir / "analyze.json",
        }
        tomography.save_marginals(marginals, paths["marginals"])
        tomography.save_wigner(wigner, paths["wigner"])
        tomography.save_report(report, paths["analyze"])
        stage.outputs.extend(paths.values())
        fig2c = shutil.copyfile(paths["wigner"], plot_dir / "fig2c_wigner.csv")
        stage.outputs.append(fig2c)
        style["figures"]["fig2c"] = {
            "matrix": "rows z, columns p (natural units)",
            "kind": "heatmap",
        }
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))


def _run_decoherence_stage(config, settings, dq, out_dir, plot_dir, manifest, style):
    with _stage(manifest, "decoherence", {}) as stage:
        grid = np.logspace(
            math.log10(settings.decoherence_zmin_m),
            math.log10(settings.decoherence_zmax_m),
            settings.decoherence_points,
        )
        curve = decoherence_curve(grid, dq)
        dz_col = np.array([dz for dz, _ in curve])
        tau_col = np.array([tau for _, tau in curve])
        path = out_dir / "decoherence.csv"
        _columns_csv(path, ["delta_z_m", "tau_s"], [dz_col, tau_col])
        fig3 = shutil.copyfile(path, plot_dir / "fig3_decoherence.csv")
        stage.outputs.extend([path, fig3])
        style["figures"]["fig3"] = {
            "x": "delta_z_m",
            "y": "tau_s",
            "kind": "line",
            "xscale": "log",
            "yscale": "log",
        }


def _write_style(plot_dir, style, manifest):
    with _stage(manifest, "plot-style", {}) as stage:
        path = plot_dir / "style.json"
        _write_json(path, style)
        stage.outputs.append(path)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
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
    p_sim.add_argument("--state", choices=("thermal", "coherent", "fock1"))
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="convert a trajectory into count records")
    _add_common(p_det)
    p_det.add_argument("--traj", required=True, help="trajectory CSV from 'simulate'")
    p_det.add_argument("--scheme", choices=("ch", "cbh", "both"))
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
    p_dec.add_argument("--zmin", type=float, help="smallest superposition size [m]")
    p_dec.add_argument("--zmax", type=float, help="largest superposition size [m]")
    p_dec.add_argument("--npoints", type=int, help="number of log-spaced points")
    p_dec.set_defaults(func=cmd_decoherence)

    p_pipe = sub.add_parser("pipeline", help="full end-to-end run")
    _add_common(p_pipe)
    p_pipe.add_argument("--state", choices=("thermal", "coherent", "fock1"))
    p_pipe.add_argument("--scheme", choices=("ch", "cbh", "both"))
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
    except LevitomoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
