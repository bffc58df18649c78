"""Interferometric photodetection of the particle's axial motion.

Two schemes are modeled. The single-detector scheme ("ch") integrates the
interference of the diverging trap field (amplitude A) with the
particle-scattered field (amplitude B, phase 2 k z):

    N = (c eps0 sigma_d T / (2 hbar omega_L)) (A^2 + B^2 + 2 A B cos(dphi - 2 k z))

The balanced scheme ("cbh") splits the two fields onto a pair of detectors and
subtracts, cancelling the common A^2 + B^2 term:

    N = (c eps0 sigma_d T / (hbar omega_L)) 2 A B cos(dphi - 2 k z)

Linearized forms expand the cosine to first order in 2 k z around dphi:
N = C1 + C2 + D z and N = 2 C2 + 2 D z, with

    C1 = pf/2 (A^2 + B^2),  C2 = pf A B cos(dphi),  D = pf 2 k A B sin(dphi),

pf = c eps0 sigma_d T / (hbar omega_L). Both schemes read one fringe: a
physical detector's expected count is C1 + s or C1 - s, with the swing
s = pf A B cos(dphi - 2 k z) for the exact response and s = C2 + D z for the
linear one. The single detector counts the first arm and the balanced pair the
difference of the two. :func:`detect` draws the model ``DetectionParams.model``
names, and guards the linear one, in one pass. Shot noise draws each arm from
a Poisson law, and detector electronics add zero-mean Gaussian counts.

Detection and inversion run ``artifacts.CHUNK_SAMPLES`` samples at a time:
the windows tile across chunk boundaries, each Poisson arm and the electronic
noise draw from their own generator, spawned in that order from the stage
seed, and the equipartition moments are those of ``artifacts.Series``, so no
count or position depends on the chunk length. Every record is an
``artifacts.Series``: a function given a trajectory or count record returns
its own record as a series computed from the input's on each pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .constants import C, EPS0, HBAR, TWO_PI
from .errors import DetectionError
from .dynamics import Trajectory
from .physics import ExperimentConfig, check_fields

SCHEMES = ("ch", "cbh")
# the responses counts are drawn from: the fringe's first-order expansion, which is guarded, or the fringe itself
MODELS = ("linear", "exact")
# Poisson standard deviations above a detector's largest expected count that an int32 count file leaves room for
INT32_HEADROOM_SIGMAS = 10.0
# the largest mean numpy's Poisson sampler draws from, as numpy computes it
POISSON_MAX_MEAN = np.iinfo("l").max - 10.0 * math.sqrt(np.iinfo("l").max)


@dataclass(frozen=True)
class DetectionParams:
    scheme: str  # "ch" (single detector) or "cbh" (balanced pair)
    field_amp_A: float
    field_amp_B: float
    delta_phi_rad: float
    sigma_d_m2: float
    T_int_s: float
    k_rad_per_m: float
    shot_noise: bool = False
    electronic_noise_counts_rms: float = 0.0
    linearity_guard: float = 0.1  # max |2 k z| must stay below guard * min_n |dphi - pi n|
    model: str = "linear"  # one of MODELS

    def __post_init__(self):
        """Raise :class:`DetectionError` naming the first invalid parameter, or the counts they would give: C1, C2,
        D and the largest expected count of :attr:`model` must be finite, and with shot noise that count must be
        one numpy's Poisson sampler takes."""
        if self.scheme not in SCHEMES:
            raise DetectionError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.model not in MODELS:
            raise DetectionError(f"model must be one of {MODELS}, got {self.model!r}")
        positive = ("T_int_s", "sigma_d_m2", "k_rad_per_m", "linearity_guard")
        check_fields(self, DetectionError, positive, ("field_amp_A", "field_amp_B", "electronic_noise_counts_rms"))
        too_large = "field_amp_A, field_amp_B, sigma_d_m2 or T_int_s is too large"
        try:
            counts = (*self.linear_constants(), self.max_expected_count())
        except OverflowError:
            counts = (math.inf,)
        if not all(map(math.isfinite, counts)):
            raise DetectionError(f"C1, C2, D or the largest expected count leaves the range of a float: {too_large}")
        if self.shot_noise and counts[-1] > POISSON_MAX_MEAN:
            raise DetectionError(f"the largest expected count is above numpy's largest Poisson mean: {too_large}")

    @property
    def count_prefactor(self) -> float:
        """pf = c eps0 sigma_d T / (hbar omega_L), with omega_L = c k."""
        omega_laser = C * self.k_rad_per_m
        return C * EPS0 * self.sigma_d_m2 * self.T_int_s / (HBAR * omega_laser)

    def linear_constants(self) -> tuple[float, float, float]:
        """(C1, C2, D) of the small-displacement expansion."""
        pf = self.count_prefactor
        a, b = self.field_amp_A, self.field_amp_B
        c1 = 0.5 * pf * (a**2 + b**2)
        c2 = pf * a * b * math.cos(self.delta_phi_rad)
        d = pf * 2.0 * self.k_rad_per_m * a * b * math.sin(self.delta_phi_rad)
        return c1, c2, d

    def phase_margin_rad(self) -> float:
        """Distance of dphi from the nearest zero-sensitivity phase (multiple of pi)."""
        return abs(((self.delta_phi_rad + 0.5 * math.pi) % math.pi) - 0.5 * math.pi)

    def linear_reach_rad(self) -> float:
        """The bound on |2 k z| of the linear model's guard: ``linearity_guard`` times the phase margin."""
        return self.linearity_guard * self.phase_margin_rad()

    def max_expected_count(self) -> float:
        """The largest expected count of one physical detector (the ch detector, or either cbh arm) under
        :attr:`model`: pf/2 (A + B)^2 for the exact response, C1 + pf A B (|cos dphi| + |sin dphi| x) for the
        linear one, with x the :meth:`linear_reach_rad`."""
        pf, a, b, phi = self.count_prefactor, self.field_amp_A, self.field_amp_B, self.delta_phi_rad
        reach = 1.0 if self.model == "exact" else abs(math.cos(phi)) + abs(math.sin(phi)) * self.linear_reach_rad()
        return 0.5 * pf * (a**2 + b**2) + pf * a * b * reach


def params_from_config(config: ExperimentConfig, scheme: str, **overrides) -> DetectionParams:
    """Build detection parameters from an experiment configuration; ``overrides`` set or replace any field."""
    from_config = {
        "field_amp_A": config.field_amp_A,
        "field_amp_B": config.field_amp_B,
        "delta_phi_rad": config.delta_phi_rad,
        "sigma_d_m2": config.detector_area_m2,
        "T_int_s": config.integration_time_s,
        "k_rad_per_m": TWO_PI / config.wavelength_m,
    }
    return DetectionParams(scheme=scheme, **(from_config | overrides))


@dataclass(frozen=True, eq=False)
class CountRecord:
    """Integrated photon counts per detector window.

    Window ``i`` starts at ``t0_s + i T_int_s``. ``counts`` are expected values
    when noise is off, sampled otherwise (the balanced difference signal may be
    negative); they are an ``artifacts.Series``, and an array given for them is
    held as one.
    """

    t0_s: float
    counts: artifacts.Series
    params: DetectionParams
    seed: int | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "counts", artifacts.Series.of(self.counts))
        except ValueError as exc:
            raise DetectionError(f"counts: {exc}") from None

    @property
    def window_rate_Hz(self) -> float:
        return 1.0 / self.params.T_int_s

    @property
    def dtype(self) -> str:
        """The count file's dtype, decided by the settings before any draw: ``<i4`` or ``<f8``.

        Counts are whole numbers when shot noise draws them and no electronic
        noise is added. A ch count or cbh arm then lies in [0, m], and a cbh
        difference in [-m, m], with m the largest expected count plus
        ``INT32_HEADROOM_SIGMAS`` Poisson standard deviations: int32 when m
        fits in it. Otherwise float64, as int64 would be no smaller.
        """
        params = self.params
        if not params.shot_noise or params.electronic_noise_counts_rms > 0:
            return "<f8"
        mean = params.max_expected_count()
        return "<i4" if mean + INT32_HEADROOM_SIGMAS * math.sqrt(mean) <= np.iinfo(np.int32).max else "<f8"

    @property
    def info(self) -> dict:
        """The sidecar: scheme, model, (C1, C2, D), noise settings, seed, and the ``t0_s`` and ``T_int_s`` that
        put window ``i``'s start at ``t0_s + i T_int_s``."""
        c1, c2, d = self.params.linear_constants()
        return {
            "scheme": self.params.scheme,
            "model": self.params.model,
            "C1": c1,
            "C2": c2,
            "D": d,
            "T_int_s": self.params.T_int_s,
            "t0_s": self.t0_s,
            "shot_noise": self.params.shot_noise,
            "electronic_noise_counts_rms": self.params.electronic_noise_counts_rms,
            "seed": self.seed,
            "n_windows": len(self.counts),
        }


def samples_per_window(t_int_s: float, sample_rate_Hz: float, n_samples: int) -> int:
    """The number of samples one detection window of ``t_int_s`` averages in a record of ``n_samples``.

    The window must hold an integral number of samples, and the record at
    least one window; otherwise :class:`DetectionError` names the rule broken.
    """
    per_window = t_int_s * sample_rate_Hz
    n_per = int(round(per_window))
    if n_per < 1 or abs(per_window - n_per) > 1e-6 * per_window:
        raise DetectionError(
            f"integration time {t_int_s:.6g} s must cover an integral number of"
            f" trajectory samples at {sample_rate_Hz:.6g} Hz (got {per_window:.9g})"
        )
    if n_samples < n_per:
        raise DetectionError(
            f"window of {t_int_s:.6g} s is longer than the {n_samples / sample_rate_Hz:.6g} s trajectory"
        )
    return n_per


def detect(traj: Trajectory, params: DetectionParams, seed: int | None = None) -> CountRecord:
    """Count record of the response ``params.model`` at the window means z.

    Windows tile without overlap from the first sample, and a window's mean
    stands in for the (assumed slow) mechanical coordinate. Each arm's expected
    count is the model's fringe at z (module docstring), a Poisson draw with
    shot noise.

    Each pass over the counts reads the trajectory once, whole windows at a
    time. The linear model checks each block before drawing it, the samples
    after the last whole window included: the first sample whose |2 k z|
    reaches :meth:`DetectionParams.linear_reach_rad` is a
    :class:`DetectionError`. So the guard fails as the counts are read, after
    a writer has created its file. The exact model is unguarded.
    """
    z = traj.z_m
    n_per = samples_per_window(params.T_int_s, traj.sample_rate_Hz, z.n)
    c1, c2, d = params.linear_constants()
    fringe, two_k = params.count_prefactor * params.field_amp_A * params.field_amp_B, 2.0 * params.k_rad_per_m
    reach = params.linear_reach_rad() if params.model == "linear" else math.inf  # exact: no bound (ROADMAP item 8)
    entropy = np.random.SeedSequence(seed).entropy  # one draw of fresh entropy for seed None, reused on every pass

    def read():
        arm_rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(entropy).spawn(3)]
        noise_rng = arm_rngs.pop()
        size = n_per * max(1, artifacts.CHUNK_SAMPLES // n_per)  # a whole number of windows
        for start, block in zip(range(0, z.n, size), z.blocks(size)):
            excursion = two_k * np.abs(block)
            beyond = np.flatnonzero(excursion >= reach)
            if beyond.size:
                at = beyond[0]
                raise DetectionError(
                    f"linearity guard violated: |2 k z| = {excursion[at]:.4g} rad at sample {start + at} is not below"
                    f" {reach:.4g} rad ({params.linearity_guard:g} x phase margin {params.phase_margin_rad():.4g} rad);"
                    " reduce the motion's amplitude (sim_temperature_K or coherent_amplitude_m)"
                )
            whole = block.size - block.size % n_per
            if not whole:
                continue
            means = block[:whole].reshape(-1, n_per).mean(axis=1)
            swing = fringe * np.cos(params.delta_phi_rad - two_k * means) if params.model == "exact" else c2 + d * means
            arms = (c1 + swing,) if params.scheme == "ch" else (c1 + swing, c1 - swing)
            if params.shot_noise:
                for name, arm in enumerate(arms, 1):
                    bad = np.flatnonzero(arm < 0)
                    if bad.size:
                        window = start // n_per + bad[0]
                        raise DetectionError(f"arm {name} has negative expected count at window {window}")
                arms = tuple(rng.poisson(arm).astype(float) for rng, arm in zip(arm_rngs, arms))
            counts = arms[0] if len(arms) == 1 else arms[0] - arms[1]
            if params.electronic_noise_counts_rms > 0:
                counts = counts + params.electronic_noise_counts_rms * noise_rng.standard_normal(counts.shape)
            yield counts

    return CountRecord(t0_s=float(traj.t0_s), counts=artifacts.Series(z.n // n_per, read), params=params, seed=seed)


def invert_counts(rec: CountRecord, target_variance_m2: float | None = None) -> Trajectory:
    """Convert counts back to calibrated positions at the window rate.

    With no target the calibration is linear: z = (count - offset) / D_eff
    with offset = C1 + C2 and D_eff = D for the single-detector scheme,
    offset = 2 C2 and D_eff = 2 D for the balanced one.

    Given ``target_variance_m2`` (= k_B T / m omega_s^2, finite and
    positive), the calibration is equipartition: the linear positions' mean
    ``mean_m`` is removed and they are rescaled so the sample variance equals
    the target: z = ((count - offset) / D_eff - mean_m) * scale. This mirrors
    how a thermal record is calibrated when the absolute slope is unknown, and
    it is the right choice for noisy thermal records. The mean and variance
    take one pass over the counts.

    The trajectory metadata holds the method (``calibration``: ``linear`` or
    ``equipartition``) and every constant of the map (``offset``, ``d_eff``,
    and ``mean_m``, ``equipartition_scale`` and ``target_variance_m2`` for
    equipartition), so the positions can be rebuilt from the counts alone in
    the same order of operations.
    """
    c1, c2, d = rec.params.linear_constants()
    if d == 0.0:
        raise DetectionError("detection at zero-sensitivity phase: D = 0 (dphi is a multiple of pi)")
    if rec.params.scheme == "ch":
        offset, d_eff = c1 + c2, d
    else:
        offset, d_eff = 2.0 * c2, 2.0 * d
    z = rec.counts.map(lambda counts: (counts - offset) / d_eff)
    meta = {
        "calibration": "linear" if target_variance_m2 is None else "equipartition",
        "scheme": rec.params.scheme,
        "source_model": rec.params.model,
        "shot_noise": rec.params.shot_noise,
        "offset": offset,
        "d_eff": d_eff,
    }
    if target_variance_m2 is not None:
        if not (math.isfinite(target_variance_m2) and target_variance_m2 > 0):
            raise DetectionError(f"equipartition needs a finite target_variance_m2 > 0, got {target_variance_m2!r}")
        mean, variance = z.moments()
        if variance == 0.0:
            raise DetectionError("cannot equipartition-calibrate a constant record")
        scale = math.sqrt(target_variance_m2 / variance)
        z = z.map(lambda positions: (positions - mean) * scale)
        meta["mean_m"] = mean
        meta["equipartition_scale"] = scale
        meta["target_variance_m2"] = target_variance_m2
    return Trajectory(
        sample_rate_Hz=rec.window_rate_Hz,
        z_m=z,
        t0_s=rec.t0_s + 0.5 * rec.params.T_int_s,  # the first window's center
        seed=rec.seed,
        state_kind="inverted",
        meta=meta,
    )


def save_count_record(rec: CountRecord, path: str | Path) -> Path:
    """Write ``counts`` to ``path`` as a ``.npy`` array of :attr:`CountRecord.dtype`, chunk by chunk: int32 for
    shot-noise counts without electronic noise whose bound int32 holds, float64 otherwise. Return the sidecar,
    holding :attr:`CountRecord.info`."""
    return artifacts.write_series(path, rec.counts, rec.info, rec.dtype)
