"""Command-line pipeline: reproducible end-to-end runs with .npy and JSON artifacts.

Subcommands
    derive       closed-form derived quantities -> JSON
    simulate     thermal/coherent trajectory -> trajectory.npy + JSON sidecar
    detect       trajectory -> count records (single and/or balanced scheme)
    psd          trajectory -> Welch PSD and oscillator-line fit
    tomo         trajectory and psd's line fit -> marginals binned at the fitted frequency, Wigner grid, analysis report
    decoherence  superposition-size decoherence curve -> decoherence.npy + JSON sidecar
    pipeline     derive -> simulate -> detect -> invert -> spectral -> tomography -> decoherence -> plot style

The other subcommands run the pipeline's own stage bodies with its stage
seeds: ``detect``, ``psd`` and ``tomo`` are its detect, spectral and
tomography stages on ``--traj``, ``tomo`` binning the record at the
``omega0_rad_s`` of the ``fit.json`` that ``psd`` wrote for it (``--fit``),
and the rest the stage of their name. ``pipeline`` calls these bodies in
order, so ``simulate`` then ``detect`` with one ``--seed`` write the
pipeline's files.
Every table is a ``.npy`` array whose axes are in its JSON sidecar: the
three bulk series (``trajectory``, ``counts_ch``, ``counts_cbh``), the head
of the calibrated positions that ``fig2a`` plots, the spectra, the marginals,
the Wigner grid and the decoherence curve. Each is float64, except a count
file that int32 holds exactly (``detection.CountRecord.dtype``). A bulk
series goes through a stage ``artifacts.CHUNK_SAMPLES`` samples at a time:
each stage writes its series chunk by chunk and the next reads the file back
the same way, so no stage holds a whole record and the peak memory of a run
does not grow with the record's length. The calibrated positions are not
written: the invert stage records its map from counts to positions in
``calibration.json``, and the tomography stage bins the primary scheme's
counts file through that map as it reads it back.
The detect stage draws each scheme's counts with ``detection.detect`` under
the run's ``detection_model``. The linear model's guard runs as the counts
are written, so a record that breaks it leaves ``counts_<scheme>.npy`` partial.

Every run is reproducible: (config, seed) determine all artifacts. The
run's manifest, ``manifest.json`` for ``pipeline`` and
``manifest_<command>.json`` for the others, records the settings the run
read, with their resolved values, plus a digest of every file each stage
read or wrote. Each file is digested once, after the last stage, so a failed
run hashes nothing, and a run that draws no random numbers (a fock1
``pipeline``, ``derive``, ``decoherence``, ``psd``, ``tomo``) loads OpenSSL,
for ``hashlib``, only once its stages are done. A run that draws them (a
thermal record, or the counts of ``detect`` and of a thermal or coherent
``pipeline``) holds OpenSSL from its first draw anyway, through
``numpy.random.bit_generator`` -> ``secrets`` -> ``hmac``. Wall-clock timings
go to its sibling ``timings.json`` (``timings_<command>.json``), outside the
manifest so re-runs are byte-identical.

``main`` drives every subcommand the same way, and its exit code says when
the run failed, not what failed it. It resolves and checks the settings
before ``--out`` exists: any package error, file that cannot be read (the
``--config`` file too) or array too large to allocate there exits 2 with one
``configuration error:`` line, and nothing is written. Then it runs the
subcommand's body on a :class:`RunManifest` inside an ``artifacts.journal``
that lists every file the body writes, and writes the manifest. On success
it prints the body's report (``derive``, ``tomo``) or ``wrote`` and every
file written. Any of those failures from here on, of whatever class (a
stage's refusal, a file that cannot be read or written, a report that holds
NaN or infinity, an array too large to allocate), renames every file written
to ``<name>.partial``, and so too the results the same command's earlier
manifest lists in ``--out``, and exits 3 with one ``<command> stage failed:``
line on stderr.
"""
from __future__ import annotations

import os

# set before numpy loads, or OpenBLAS starts a worker per extra CPU that spins idle at start-up, while the package's
# BLAS calls are 4 x 4 and 2 x 2 products; a value the caller exported is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, artifacts, detection, dynamics, spectral, tomography
from .constants import TWO_PI
from .errors import ConfigError, LevitomoError, SimulationError, SpectralError
from .physics import ExperimentConfig, check_fields, decoherence_curve, derive, from_mapping, load_key_values

# allowed values of the settings that name a choice
_CHOICES = {
    "sim_state": ("thermal", "coherent", "fock1"),
    "scheme": ("ch", "cbh", "both"),
    # exact counts pass no linearity guard, yet are inverted with the linear map (ROADMAP item 8)
    "detection_model": detection.MODELS,
}
# samples of the calibrated positions that fig2a plots
FIG2A_ROWS = 2000


@dataclass(frozen=True)
class PipelineSettings:
    """Run-level knobs, merged from the config file and ``--set`` overrides.

    ``sim_temperature_K`` is the effective motional temperature of the
    simulated record (an amplitude knob): the default 30 mK keeps the
    interferometer response linear, while the environment temperature in
    ``ExperimentConfig`` still drives gas damping. Every state is
    reconstructed onto its marginal grid, so ``marginal_grid_points`` is also
    the output grid's size: it is odd, so that a sample falls on the origin,
    and at least ``tomography.MIN_GRID_SIZE``. ``cutoff_fraction`` < 1
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
    n_angles: int = 90
    marginal_grid_points: int = 129
    marginal_span_sigmas: float = 5.0
    cutoff_fraction: float = 0.5
    psd_segment_len: int = 0  # 0 = auto, as spectral.welch_segments picks it
    psd_overlap: float = 0.5
    decoherence_zmin_m: float = 1e-12
    decoherence_zmax_m: float = 1e-6
    decoherence_points: int = 200

    def __post_init__(self):
        """Reject settings that no stage can run with, before any stage runs."""
        positive = ("sim_duration_s", "sim_sample_rate_hz", "sim_temperature_K", "marginal_span_sigmas")
        positive += ("linearity_guard", "decoherence_zmin_m", "decoherence_zmax_m", "decoherence_points")
        check_fields(self, ConfigError, positive, non_negative=("electronic_noise_counts_rms", "coherent_amplitude_m"))
        tomography.check_angles(self.n_angles, error=ConfigError)
        points = self.marginal_grid_points
        if points < tomography.MIN_GRID_SIZE or points % 2 == 0:
            raise ConfigError(f"marginal_grid_points must be odd and >= {tomography.MIN_GRID_SIZE}, got {points!r}")
        spectral.welch_segments(None, self.psd_segment_len, self.psd_overlap, ConfigError)
        zmin, zmax = self.decoherence_zmin_m, self.decoherence_zmax_m
        if not zmin < zmax:
            raise ConfigError(f"decoherence_zmin_m must be below decoherence_zmax_m, got {zmin!r} and {zmax!r}")
        tomography.check_cutoff(self.cutoff_fraction, points, ConfigError)
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {getattr(self, name)!r}")


def resolve_settings(config_path: str | None, overrides: list[str]) -> tuple[ExperimentConfig, PipelineSettings]:
    """Merge config file (or built-in defaults) with ``--set key=value`` overrides.

    Returns the experiment config and the validated pipeline settings. Unknown
    keys are an error.
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
    config = from_mapping(ExperimentConfig, {k: v for k, v in mapping.items() if k not in pipe_keys})
    settings = from_mapping(PipelineSettings, {k: v for k, v in mapping.items() if k in pipe_keys})
    return config, settings


def _sha256(path: Path) -> str:
    # imported here, not with the module: hashlib loads OpenSSL's libcrypto, 3.7 MB resident, and the first digest
    # comes after a run's last stage, outside the peak of the stages before it
    import hashlib

    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """One run's record: per stage its inputs, outputs and content digests, and the settings the run read.

    ``pipeline`` writes it to ``manifest.json`` and its timings to ``timings.json``; every other command to
    ``manifest_<command>.json`` and ``timings_<command>.json``. The stages record paths; :meth:`write` digests
    each distinct file once, after the last stage, so a failed run, which writes no manifest, hashes nothing.
    ``hashlib`` loads OpenSSL only then, unless the run drew random numbers: ``numpy.random.bit_generator`` loads
    it at the first draw, through ``secrets`` and ``hmac``.
    """

    def __init__(self, command: str, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        suffix = "" if command == "pipeline" else f"_{command}"
        self.path, self.timings_path = out_dir / f"manifest{suffix}.json", out_dir / f"timings{suffix}.json"
        self.config: dict = {}  # name -> value of every setting read through a ``recording`` copy
        self.stages: list[tuple[str, dict[str, Path], list[Path]]] = []  # name, inputs, files written
        self.timings: dict[str, float] = {}

    def recording(self, settings):
        """A copy of the frozen dataclass ``settings`` that enters each field read from it, with its value, in the
        manifest's ``config``, so the manifest lists the settings the run read and no other.

        A property's body reads its fields through the copy, so they count as read too.
        """
        names, config = {f.name for f in fields(settings)}, self.config

        class Recording(type(settings)):
            def __getattribute__(self, name):
                value = object.__getattribute__(self, name)
                if name in names:
                    config[name] = value
                return value

        copy = object.__new__(Recording)
        copy.__dict__.update(vars(settings))  # no __init__: its checks would read every field
        return copy

    @contextmanager
    def stage(self, name: str, inputs: dict[str, Path]):
        """Run one stage; if it succeeds, record its time, its inputs and every file it wrote.

        Nothing is digested here: :meth:`write` digests each file once, after the last stage, and a run whose
        stage fails writes no manifest, so it hashes nothing. OpenSSL, which ``hashlib`` loads, thus stays out of
        the stages' peak, unless a draw of random numbers loaded it (``numpy.random`` -> ``secrets`` -> ``hmac``).
        """
        start = time.perf_counter()
        with artifacts.journal() as written:
            yield
        self.timings[name] = time.perf_counter() - start
        self.stages.append((name, inputs, sorted(written)))

    def write(self) -> None:
        """Digest every distinct file the stages read or wrote once, in stage order, and write the timings and the
        manifest."""
        paths = dict.fromkeys(path for _, inputs, outputs in self.stages for path in [*inputs.values(), *outputs])
        digests = {path: _sha256(path) for path in paths}
        stages = [
            {
                "name": name,
                "inputs": {key: digests[path] for key, path in sorted(inputs.items())},
                "outputs": {str(path.relative_to(self.out_dir)): digests[path] for path in outputs},
            }
            for name, inputs, outputs in self.stages
        ]
        manifest = {
            "package_version": __version__,
            "seed": self.seed,
            "config": self.config,
            "stages": stages,
        }
        artifacts.write_json(self.timings_path, {"timings_s": self.timings})
        artifacts.write_json(self.path, manifest)


# ---------------------------------------------------------------------------
# stages: each runs as the stage of its name in ``run``, computes one step of
# the chain and writes its artifacts into ``run.out_dir``


def _stage_seeds(seed: int) -> tuple[int, int, int]:
    """Seeds of the simulate, ch-detect and cbh-detect stages of run seed ``seed``."""
    sim, ch, cbh = (int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(3))
    return sim, ch, cbh


def _config_file(args) -> dict[str, Path]:
    """The input of a stage that reads the configuration: the ``--config`` file, if one is named."""
    return {"config_file": Path(args.config)} if args.config else {}


def _record(config, settings, seed) -> dynamics.Trajectory:
    """The thermal or coherent record of run seed ``seed``, simulated on each pass: building it runs every check of
    its simulator and simulates no sample."""
    duration, rate, dq = settings.sim_duration_s, settings.sim_sample_rate_hz, derive(config)
    if settings.sim_state == "thermal":
        temperature = settings.sim_temperature_K
        return dynamics.simulate_thermal(config, dq, duration, rate, _stage_seeds(seed)[0], temperature_K=temperature)
    return dynamics.simulate_coherent(dq, settings.coherent_amplitude_m, settings.coherent_phase_rad, duration, rate)


def _decoherence_grid(settings) -> np.ndarray:
    """The superposition sizes of the decoherence curve: ``decoherence_points`` log-spaced from
    ``decoherence_zmin_m`` to ``decoherence_zmax_m``."""
    zmin, zmax, n = settings.decoherence_zmin_m, settings.decoherence_zmax_m, settings.decoherence_points
    try:
        return np.logspace(math.log10(zmin), math.log10(zmax), n) if n > 1 else np.array([zmin])
    except ValueError as exc:  # numpy refuses, by size arithmetic, an array it cannot address
        raise ConfigError(f"decoherence_points = {n} is more points than an array can hold ({exc})") from None


def _detection_params(config, settings, scheme) -> detection.DetectionParams:
    knobs = {name: getattr(settings, name) for name in ("shot_noise", "electronic_noise_counts_rms", "linearity_guard")}
    return detection.params_from_config(config, scheme, model=settings.detection_model, **knobs)


def _detect(config, settings, traj_path, seed, run) -> dict[str, detection.CountRecord]:
    """The detect stage on the trajectory at ``traj_path``: each scheme's counts of the run's ``detection_model``,
    drawn and written chunk by chunk in one pass over the trajectory per scheme; the records returned read them back
    from their files."""
    records = {}
    with run.stage("detect", {"trajectory": traj_path}):
        traj = dynamics.load_trajectory(traj_path)
        for scheme, det_seed in zip(detection.SCHEMES, _stage_seeds(seed)[1:]):
            if settings.scheme not in (scheme, "both"):
                continue
            params = _detection_params(config, settings, scheme)
            record, path = detection.detect(traj, params, seed=det_seed), run.out_dir / f"counts_{scheme}.npy"
            detection.save_count_record(record, path)
            records[scheme] = replace(record, counts=artifacts.read_series(path))
    return records


def _invert(settings, dq, record, counts_path, run) -> dynamics.Trajectory:
    """The invert stage: calibrated positions of ``record``, whose counts are read back from ``counts_path``, mapped
    on each pass; only a thermal record with shot noise is rescaled to equipartition, any other is mapped linearly.

    ``calibration.json`` records the map: its constants, the counts file it applies to, and the time axis, so the
    positions can be rebuilt from the counts. ``fig2a.npy`` holds the first ``FIG2A_ROWS`` positions, and its
    sidecar their time axis.
    """
    with run.stage("invert", {"counts": counts_path}):
        target_var = None
        if settings.sim_state == "thermal" and settings.shot_noise:
            target_var = dynamics.thermal_position_variance(dq, settings.sim_temperature_K)
        positions = detection.invert_counts(record, target_variance_m2=target_var)
        axis = {"t0_s": positions.t0_s, "sample_rate_Hz": positions.sample_rate_Hz}
        map_info = {"counts_file": counts_path.name, **positions.meta, **axis, "n_samples": len(positions.z_m)}
        artifacts.write_json(run.out_dir / "calibration.json", map_info)
        head = next(positions.z_m.blocks(FIG2A_ROWS))
        artifacts.write_array(run.out_dir / "fig2a.npy", head, {**axis, "n_samples": head.size})
    return positions


def _save_line(psd, fit, out_dir, scheme) -> None:
    """Write the power ``psd_<scheme>.npy`` (bin k at (k + 1) ``df_Hz``) and the line fit ``fit_<scheme>.json``, or
    ``psd.npy`` and ``fit.json`` for a trajectory's spectrum (``scheme`` None).

    The fit's ``linewidth_resolved`` is false when the fitted linewidth is under one bin, 2 pi ``df_Hz``: the
    spectrum cannot tell that line's width, and the fit drives it towards 0. Its ``snr_db`` is the strongest bin
    over the fitted ``noise_floor``: the peak bin, not the fitted line's peak, which an unresolved line would
    overstate.
    """
    info = {
        "df_Hz": float(psd.freqs_Hz[0]),
        "segment_len": psd.segment_len,
        "n_segments": psd.n_segments,
        "scheme": scheme,
    }
    suffix = f"_{scheme}" if scheme else ""
    artifacts.write_array(out_dir / f"psd{suffix}.npy", psd.power, info)
    artifacts.write_json(
        out_dir / f"fit{suffix}.json",
        {
            "omega0_rad_s": fit.omega0_rad_s,
            "linewidth_rad_s": fit.linewidth_rad_s,
            "amplitude": fit.amplitude,
            "noise_floor": fit.noise_floor,
            "residual_rms": fit.residual_rms,
            "covariance": fit.covariance.tolist(),
            "linewidth_resolved": fit.linewidth_rad_s >= TWO_PI * info["df_Hz"],
            "snr_db": 10.0 * math.log10(float(np.max(psd.power)) / fit.noise_floor),
        },
    )


def _line_window(dq) -> tuple[float, float]:
    """The band, in Hz, in which the spectral stage fits the line: from half to one and a half times the trap
    frequency."""
    f0 = dq.omega_s_rad_s / TWO_PI
    return 0.5 * f0, 1.5 * f0


def _spectral(settings, dq, records, inputs, run) -> dict[str | None, spectral.LorentzianFit]:
    """The spectral stage: each record's spectrum and line fit, whose white floor is the record's noise floor.

    ``records`` maps each scheme to its linearly inverted counts, or ``None``
    to a trajectory. A scheme's spectrum goes to ``psd_<scheme>.npy`` and
    ``fit_<scheme>.json``, a trajectory's to ``psd.npy`` and ``fit.json``.
    Every spectrum is estimated before any line is fitted, so the second
    Welch pass reuses the first one's buffers; only the fits outlive the
    stage.
    """
    with run.stage("spectral", inputs):
        welch = settings.psd_segment_len, settings.psd_overlap
        psds = {key: spectral.estimate_psd(rec.z_m, rec.sample_rate_Hz, *welch) for key, rec in records.items()}
        fits = {}
        for scheme, psd in psds.items():
            fits[scheme] = spectral.fit_lorentzian(psd, _line_window(dq))
            _save_line(psd, fits[scheme], run.out_dir, scheme)
    return fits


def _tomography(settings, inputs, run, record=None, omega0_rad_s=None) -> tomography.WignerReport:
    """The tomography stage: the marginals of ``record`` binned at ``omega0_rad_s`` on a grid of
    ``marginal_span_sigmas``, or with no record the fock1 oracle's; the Wigner function reconstructed onto the
    marginal grid, and its analysis. It saves all three."""
    with run.stage("tomography", inputs):
        if record is None:  # the first excited state's oracle, in natural units (s = 1)
            angles = TWO_PI * np.arange(settings.n_angles) / settings.n_angles
            grid = np.linspace(-5.0, 5.0, settings.marginal_grid_points)
            marginals = tomography.oracle_marginals("fock1", angles, grid, z_zpf_m=1.0 / math.sqrt(2.0))
        else:
            grid = tomography.default_z_grid(record.z_m, settings.marginal_grid_points, settings.marginal_span_sigmas)
            marginals = tomography.bin_marginals(record, omega0_rad_s, settings.n_angles, grid)
        wigner = tomography.inverse_radon(marginals, cutoff_fraction=settings.cutoff_fraction)
        report = tomography.analyze(wigner)
        tomography.save_marginals(marginals, run.out_dir / "marginals.npy")
        tomography.save_wigner(wigner, run.out_dir / "wigner.npy")
        tomography.save_report(report, run.out_dir / "analyze.json")
    return report


# ---------------------------------------------------------------------------
# subcommands: each body gets the resolved config and settings, read through
# ``run``, and ``run`` itself, whose ``out_dir`` exists; it returns the report
# ``main`` prints, or None


def _load(args) -> tuple[ExperimentConfig, PipelineSettings]:
    """Resolve ``--config`` and ``--set``; a flag named after a setting (``--state``) overrides both.

    Every check of the derived quantities, the record, the detection
    parameters and the decoherence curve runs here, before ``--out`` exists:
    each command builds what its stages build, with the builders they call,
    and building a record simulates no sample. ``simulate`` also refuses
    fock1, however the state was set, and ``pipeline`` a record whose counts,
    one sample per detection window, its spectral and tomography stages
    cannot use: too few Welch segments, too few spectrum bins in the line
    fit's window, or too few samples to fill the angle bins, by the rules of
    ``spectral`` and ``tomography``. fock1 simulates nothing, so its record is
    not built. Each check's error refuses the run as the check raised it:
    ``main`` exits 2 on any package error, ``OSError`` or ``MemoryError`` from
    here. Only the sample count's message is reworded, to name the two
    settings it multiplies.
    """
    overrides = list(args.set or [])
    for f in fields(PipelineSettings):
        if getattr(args, f.name, None) is not None:
            overrides.append(f"{f.name}={getattr(args, f.name)}")
    config, settings = resolve_settings(args.config, overrides)
    dq = derive(config)  # on the plain config, so the manifest's settings stay those the stages read
    if args.command == "simulate" and settings.sim_state == "fock1":
        raise ConfigError("state 'fock1' has no trajectory simulation (fock1 is an oracle state)")
    if args.command == "detect" or (args.command == "pipeline" and settings.sim_state != "fock1"):
        _detection_params(config, settings, detection.SCHEMES[0])  # its count bounds are those of every scheme
    if args.command in ("simulate", "pipeline") and settings.sim_state != "fock1":
        try:  # the simulators size a record by this rule too, but name their arguments, not these settings
            n_samples = dynamics.sample_count(settings.sim_duration_s, settings.sim_sample_rate_hz)
        except SimulationError as exc:
            raise SimulationError(f"sim_duration_s and sim_sample_rate_hz: {exc}") from None
        rate = _record(config, settings, args.seed).sample_rate_Hz
        n_windows = n_samples // detection.samples_per_window(config.integration_time_s, rate, n_samples)
        if args.command == "pipeline":
            segment = spectral.welch_segments(n_windows, settings.psd_segment_len, settings.psd_overlap)[0]
            freqs = spectral.bin_frequencies(segment, 1.0 / config.integration_time_s)  # the counts' window rate
            spectral.window_bins(freqs, _line_window(dq))
            tomography.check_angles(settings.n_angles, n_windows)
    if args.command in ("decoherence", "pipeline"):
        decoherence_curve(_decoherence_grid(settings), dq)
    return config, settings


def cmd_derive(args, config, settings, run) -> dict:
    with run.stage("derive", _config_file(args)):
        payload = asdict(derive(config))
        artifacts.write_json(run.out_dir / "derived.json", payload)
    return payload


def cmd_simulate(args, config, settings, run) -> None:
    """The thermal or coherent record, written chunk by chunk; ``_load`` has refused fock1, which has no trajectory."""
    with run.stage("simulate", _config_file(args)):
        dynamics.save_trajectory(_record(config, settings, args.seed), run.out_dir / "trajectory.npy")


def cmd_detect(args, config, settings, run) -> None:
    _detect(config, settings, Path(args.traj), args.seed, run)


def cmd_psd(args, config, settings, run) -> None:
    path = Path(args.traj)
    _spectral(settings, derive(config), {None: dynamics.load_trajectory(path)}, {"trajectory": path}, run)


def _fitted_omega0(path: Path) -> float:
    """The ``omega0_rad_s`` of the line fit that ``psd`` wrote to ``path``; a file that is not JSON or holds no
    finite positive number there raises :class:`SpectralError` naming it."""
    try:
        fit = json.loads(path.read_text())
    except ValueError as exc:
        raise SpectralError(f"{path}: not a JSON line fit ({exc})") from None
    omega0 = fit.get("omega0_rad_s") if isinstance(fit, dict) else None
    if type(omega0) not in (int, float) or not 0 < omega0 <= sys.float_info.max:
        raise SpectralError(f"{path}: omega0_rad_s must be a finite positive number, got {omega0!r}")
    return float(omega0)


def cmd_tomo(args, config, settings, run) -> dict:
    """The tomography stage on the trajectory, binned at the frequency of the line that ``psd`` fitted to it."""
    traj_path, fit_path = Path(args.traj), Path(args.fit)
    omega0, traj = _fitted_omega0(fit_path), dynamics.load_trajectory(traj_path)
    return asdict(_tomography(settings, {"trajectory": traj_path, "fit": fit_path}, run, traj, omega0))


def cmd_decoherence(args, config, settings, run) -> None:
    with run.stage("decoherence", {}):
        curve = np.array(decoherence_curve(_decoherence_grid(settings), derive(config)))
        artifacts.write_array(run.out_dir / "decoherence.npy", curve[:, 1], {"delta_z_m": curve[:, 0].tolist()})


def cmd_pipeline(args, config, settings, run) -> None:
    """Run every stage in order; ``plotdata/style.json`` names each figure's source file.

    The stages are the other subcommands' bodies, each on the files the
    stages before it wrote, with the invert and plot-style stages between.
    A fock1 run takes its marginals from the oracle and skips the record
    stages; every state then goes through the one tomography stage.
    """
    out_dir = run.out_dir
    figures: dict = {}
    cmd_derive(args, config, settings, run)
    if settings.sim_state == "fock1":
        _tomography(settings, {}, run)
    else:
        cmd_simulate(args, config, settings, run)
        records = _detect(config, settings, out_dir / "trajectory.npy", args.seed, run)
        primary, dq = "cbh" if "cbh" in records else "ch", derive(config)
        counts = out_dir / f"counts_{primary}.npy"  # the file a record's reconstruction reads
        positions = _invert(settings, dq, records[primary], counts, run)
        figures["fig2a"] = {
            "file": "fig2a.npy",
            "time_axis": "fig2a.json",
            "x": "t0_s + i / sample_rate_Hz",
            "y": "z_m",
            "kind": "line",
        }
        linear = {scheme: detection.invert_counts(record) for scheme, record in records.items()}
        fits = _spectral(settings, dq, linear, {f"counts_{s}": out_dir / f"counts_{s}.npy" for s in records}, run)
        figures["fig2d"] = {
            "file": [f"psd_{scheme}.npy" for scheme in fits],
            "x": "(k + 1) * df_Hz",
            "y": "power",
            "kind": "line",
            "xscale": "log",
            "yscale": "log",
            "floors": {"file": [f"fit_{scheme}.json" for scheme in fits], "key": "noise_floor"},
        }
        _tomography(settings, {"counts": counts}, run, positions, fits[primary].omega0_rad_s)
    figures["fig2b"] = {"file": "marginals.npy", "matrix": "rows theta, columns z", "kind": "heatmap"}
    figures["fig2c"] = {"file": "wigner.npy", "matrix": "rows z, columns p/(m omega)", "kind": "heatmap"}

    cmd_decoherence(args, config, settings, run)
    figures["fig3"] = {
        "file": "decoherence.npy",
        "x": "delta_z_m",
        "y": "tau_s",
        "kind": "line",
        "xscale": "log",
        "yscale": "log",
    }

    with run.stage("plot-style", {}):  # the folder too, so a failed run leaves none
        plot_dir = out_dir / "plotdata"
        plot_dir.mkdir(exist_ok=True)
        artifacts.write_json(plot_dir / "style.json", {"figures": figures})


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


_TRAJ_HELP = "the record: trajectory.npy from 'simulate' with its .json sidecar, or a t_s,z_m CSV table"


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
    p_det.add_argument("--traj", required=True, help=_TRAJ_HELP)
    p_det.add_argument("--scheme", choices=_CHOICES["scheme"])
    p_det.set_defaults(func=cmd_detect)

    p_psd = sub.add_parser("psd", help="Welch PSD and oscillator-line fit")
    _add_common(p_psd)
    p_psd.add_argument("--traj", required=True, help=_TRAJ_HELP)
    p_psd.set_defaults(func=cmd_psd)

    p_tomo = sub.add_parser("tomo", help="marginals and Wigner reconstruction")
    _add_common(p_tomo)
    p_tomo.add_argument("--traj", required=True, help=_TRAJ_HELP)
    p_tomo.add_argument("--fit", required=True, help="fit.json that 'psd' wrote for this record; bins at its omega0")
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


def _retire_earlier_run(run: RunManifest) -> None:
    """Rename to ``<name>.partial`` the manifest of the same command's earlier run into ``run.out_dir``, its timings
    and every output file the manifest lists, so that a failed run leaves no result that looks valid.

    Only files inside ``out_dir`` are renamed; a manifest that cannot be read retires itself and its timings.
    """
    if not run.path.is_file():
        return
    try:
        stages = json.loads(run.path.read_text())["stages"]
        listed = [run.out_dir / name for stage in stages for name in stage["outputs"]]
    except (ValueError, KeyError, TypeError):
        listed = []
    inside = run.out_dir.resolve()
    for path in listed + [run.timings_path, run.path]:
        if path.is_file() and path.resolve().is_relative_to(inside):
            path.rename(path.with_name(path.name + ".partial"))


# what a run fails with, whatever its class: before ``--out`` exists a configuration error, after it a stage failure
_FAILURES = (LevitomoError, OSError, MemoryError)


def main(argv=None) -> int:
    """Run one subcommand: settings first, then the body on its :class:`RunManifest`, every file it writes journaled.

    The exit code follows the phase a run fails in, not the class of what failed it. A failure of :func:`_load`
    (one of ``_FAILURES``) exits 2 before ``--out`` exists; one of the body exits 3, leaves each file it wrote as
    ``<name>.partial``, and retires the results of the same command's earlier run into the same ``--out``
    (:func:`_retire_earlier_run`). Any other exception of the body marks the files too, then propagates.
    """
    args = build_parser().parse_args(argv)
    try:
        config, settings = _load(args)
    except _FAILURES as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    run = RunManifest(args.command, args.seed, Path(args.out))
    try:
        with artifacts.journal() as written:
            try:
                run.out_dir.mkdir(parents=True, exist_ok=True)
                report = args.func(args, run.recording(config), run.recording(settings), run)
                run.write()
            except BaseException:
                for path in written:
                    if path.is_file():
                        path.rename(path.with_name(path.name + ".partial"))
                _retire_earlier_run(run)
                raise
    except _FAILURES as exc:
        print(f"{args.command} stage failed: {exc}", file=sys.stderr)
        return 3
    print(artifacts.dumps(report) if report is not None else "wrote " + ", ".join(map(str, written)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
