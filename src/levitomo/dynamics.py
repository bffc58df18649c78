"""Axial motion of the trapped particle: stochastic thermal trajectories and
deterministic coherent oscillations.

The thermal simulator integrates the underdamped Langevin equation

    m z'' = -m omega_s^2 z - m xi z' + F_th(t)

with the thermal force fixed by fluctuation-dissipation so the stationary
position variance is k_B T / (m omega_s^2). The (z, v) pair is propagated with
the exact Gaussian transition of the linear system (matrix exponential plus
exact conditional covariance), so results carry no step-size bias.

A record is simulated ``artifacts.CHUNK_SAMPLES`` samples at a time: the
recursion carries its scan state and the last transition noise from chunk to
chunk, and every chunk boundary is a boundary of the scan's blocks, so the
samples do not depend on the chunk length. The initial state, the position
noise and the velocity noise each draw from their own generator, spawned in
that order from the stage seed, so each stream is drawn in sample order
whatever the chunking. Every record is an ``artifacts.Series``: the
simulators' series simulates the samples on each pass, that of
:func:`load_trajectory` reads them back from the file, and an array given for
a record is held as one. Both simulators size a record by :func:`sample_count`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .constants import KB, M_GAS_AIR, TWO_PI
from .errors import ArtifactError, SimulationError
from .physics import DerivedQuantities, ExperimentConfig

# sample_rate must exceed this multiple of omega_s/2pi; the exact propagator is
# unbiased at any step, the guard only keeps the oscillation well resolved for
# windowing and phase binning downstream
NYQUIST_GUARD_FACTOR = 10.0
MIN_SAMPLES = 64

# the position recursion runs as a cumulative-sum scan in blocks: within a block
# the weights |lam|^-k grow to at most SCAN_GROWTH, far from overflow even near
# the underdamped guard, and the block is never longer than SCAN_MAX_BLOCK
# samples, which bounds the phase rounding of lam^k. A block is a power of two
# no longer than SCAN_MAX_BLOCK, so it divides every chunk
SCAN_GROWTH = 2.0**64
SCAN_MAX_BLOCK = artifacts.BLOCK_SAMPLES


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled axial position record.

    Sample ``i`` of ``z_m`` is the position at time ``t0_s + i / sample_rate_Hz``.
    ``z_m`` is an ``artifacts.Series``; an array given for it is held as one.
    ``seed`` records the RNG seed for provenance (``None`` for deterministic
    signals).
    """

    sample_rate_Hz: float
    z_m: artifacts.Series
    t0_s: float = 0.0
    seed: int | None = None
    state_kind: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            object.__setattr__(self, "z_m", artifacts.Series.of(self.z_m))
        except ValueError as exc:
            raise SimulationError(f"z_m: {exc}") from None
        if not (math.isfinite(self.sample_rate_Hz) and self.sample_rate_Hz > 0):
            raise SimulationError(f"sample_rate_Hz must be finite and positive, got {self.sample_rate_Hz!r}")
        if len(self.z_m) < 2:
            raise SimulationError("a trajectory needs at least 2 samples")

    @classmethod
    def from_info(cls, info: dict, z_m) -> "Trajectory":
        """The trajectory of the samples ``z_m`` described by the sidecar ``info``."""
        return cls(
            sample_rate_Hz=info["sample_rate_Hz"],
            z_m=z_m,
            t0_s=info.get("t0_s", 0.0),
            seed=info.get("seed"),
            state_kind=info.get("state_kind", "custom"),
            meta=info.get("meta", {}),
        )

    @property
    def info(self) -> dict:
        """The sidecar: ``t0_s`` and ``sample_rate_Hz`` place sample ``i``; also ``n_samples`` and the provenance."""
        return {
            "sample_rate_Hz": self.sample_rate_Hz,
            "t0_s": self.t0_s,
            "seed": self.seed,
            "state_kind": self.state_kind,
            "n_samples": len(self.z_m),
            "meta": self.meta,
        }

    @property
    def duration_s(self) -> float:
        return len(self.z_m) / self.sample_rate_Hz


def gas_damping_rate(config: ExperimentConfig, mass_kg: float) -> float:
    """Kinetic-theory gas damping rate xi [1/s] at the configured pressure.

    xi = (15.8 / pi) r^2 p / (m v_th) with v_th = sqrt(k_B T / m_gas) the gas
    thermal velocity (air). Ballpark-accurate in the free-molecular regime and
    far below omega_s at mbar-and-below pressures, which is all the pipeline
    relies on; spectral fits estimate the actual linewidth rather than assume it.
    """
    pressure_pa = config.pressure_mbar * 100.0
    v_thermal = math.sqrt(KB * config.temperature_K / M_GAS_AIR)
    try:
        return (15.8 / math.pi) * config.particle_radius_m**2 * pressure_pa / (mass_kg * v_thermal)
    except ZeroDivisionError:  # a temperature so small that v_th rounds to 0: no motion is underdamped
        return math.inf


def _propagator(omega: float, xi: float, dt: float) -> np.ndarray:
    """exp(A dt) for A = [[0, 1], [-omega^2, -xi]], underdamped (xi < 2 omega)."""
    wd = math.sqrt(omega**2 - 0.25 * xi**2)
    decay = math.exp(-0.5 * xi * dt)
    c = math.cos(wd * dt)
    s = math.sin(wd * dt)
    half_ratio = 0.5 * xi / wd
    return decay * np.array(
        [
            [c + half_ratio * s, s / wd],
            [-(omega**2) / wd * s, c - half_ratio * s],
        ]
    )


def _transition_noise_chol(m: np.ndarray, var_z: float, var_v: float) -> np.ndarray:
    """Cholesky factor of the exact one-step noise covariance.

    The stationary covariance S = diag(var_z, var_v) satisfies the Lyapunov
    equation of the system, so the conditional covariance after one step is
    S - M S M^T; tiny negative roundoff on the diagonal is clipped.
    """
    s_inf = np.diag([var_z, var_v])
    cov = s_inf - m @ s_inf @ m.T
    l11 = math.sqrt(max(cov[0, 0], 0.0))
    l21 = cov[1, 0] / l11 if l11 > 0 else 0.0
    l22 = math.sqrt(max(cov[1, 1] - l21**2, 0.0))
    return np.array([[l11, 0.0], [l21, l22]])


def thermal_position_variance(dq: DerivedQuantities, temperature_K: float) -> float:
    """The equipartition variance k_B T / (m omega_s^2) of the axial position at ``temperature_K``."""
    return KB * temperature_K / (dq.mass_kg * dq.omega_s_rad_s**2)


def sample_count(duration_s: float, sample_rate_Hz: float) -> int:
    """The samples in a record of ``duration_s`` at ``sample_rate_Hz``: a finite count of at least ``MIN_SAMPLES`` at a
    positive rate, or a :class:`SimulationError`."""
    product = duration_s * sample_rate_Hz
    if not (sample_rate_Hz > 0 and math.isfinite(product)):
        raise SimulationError(f"a record of {duration_s!r} s at {sample_rate_Hz!r} Hz holds no finite sample count")
    n_samples = int(round(product))
    if n_samples < MIN_SAMPLES:
        raise SimulationError(
            f"a record of {duration_s!r} s at {sample_rate_Hz!r} Hz holds {n_samples} samples,"
            f" need at least {MIN_SAMPLES}"
        )
    return n_samples


def simulate_thermal(
    config: ExperimentConfig,
    dq: DerivedQuantities,
    duration_s: float,
    sample_rate_Hz: float,
    seed: int,
    *,
    temperature_K: float | None = None,
    damping_rate_s: float | None = None,
    initial_state: tuple[float, float] | None = None,
) -> Trajectory:
    """Thermal axial motion, simulated chunk by chunk on each pass; deterministic for a given seed.

    ``temperature_K`` and ``damping_rate_s`` override the values implied by the
    config (useful for effective-temperature runs and for the noise-free
    ``T = 0`` limit; zero is allowed for both overrides, and each must be
    finite). When ``initial_state = (z0, v0)`` is given the trajectory starts
    there; otherwise the start is an exact draw of the stationary ensemble,
    which the exact transition preserves, so the record is stationary from its
    first sample and no sample is discarded. Every parameter is checked here,
    before any sample is simulated.
    """
    omega = dq.omega_s_rad_s
    mass = dq.mass_kg
    temp = config.temperature_K if temperature_K is None else temperature_K
    xi = gas_damping_rate(config, mass) if damping_rate_s is None else damping_rate_s
    if not 0 <= temp < math.inf:
        raise SimulationError(f"temperature {temp!r} K must be finite and non-negative")
    if not 0 <= xi < 2.0 * omega:  # as the underdamped transition needs
        raise SimulationError(
            f"damping rate {xi:.3e} 1/s is not underdamped (needs a finite 0 <= xi < 2 omega_s = {2 * omega:.3e})"
        )
    n_samples = sample_count(duration_s, sample_rate_Hz)
    min_rate = NYQUIST_GUARD_FACTOR * omega / TWO_PI
    if sample_rate_Hz <= min_rate:
        raise SimulationError(
            f"sample_rate_Hz = {sample_rate_Hz:.6g} does not resolve the oscillation;"
            f" required minimum is {min_rate:.6g} Hz"
            f" ({NYQUIST_GUARD_FACTOR:g} x omega_s / 2 pi)"
        )
    if initial_state is None and temp > 0 and xi == 0.0:
        raise SimulationError(
            "a thermal state needs damping: with xi = 0 and T > 0 a record is one fixed orbit,"
            " which never samples the stationary ensemble"
        )

    var_z = thermal_position_variance(dq, temp)
    var_v = KB * temp / mass
    m = _propagator(omega, xi, 1.0 / sample_rate_Hz)

    entropy = np.random.SeedSequence(seed).entropy  # one draw of fresh entropy for seed None, reused on every pass

    def read():
        x0_rng, z_rng, v_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(entropy).spawn(3))
        if initial_state is None:
            x0 = np.array([math.sqrt(var_z), math.sqrt(var_v)]) * x0_rng.standard_normal(2)
        else:
            x0 = np.asarray(initial_state, dtype=float)
        yield from _propagate_position(m, var_z, var_v, temp, x0, n_samples, z_rng, v_rng)

    return Trajectory(
        sample_rate_Hz=sample_rate_Hz,
        z_m=artifacts.Series(n_samples, read),
        t0_s=0.0,
        seed=seed,
        state_kind="thermal",
        meta={"temperature_K": temp, "damping_rate_s": xi, "omega_s_rad_s": omega},
    )


def _propagate_position(m, var_z, var_v, temp, x0, n_total, z_rng, v_rng):
    """Run the exact linear recursion X_n = M X_{n-1} + eta_n, yielding z only, ``artifacts.CHUNK_SAMPLES`` at a time.

    The vector AR(1) is reduced to a scalar AR(2) via Cayley-Hamilton,
    z_n = tr(M) z_{n-1} - det(M) z_{n-2} + eps_n with
    eps_n = eta_n,z - M22 eta_{n-1},z + M12 eta_{n-1},v; the two initial
    samples enter as eps_0 = z_0 and eps_1 = z_1 - tr(M) z_0 from rest. The
    noise is eta = L (g_z, g_v) with L the Cholesky factor of its covariance
    and g_z, g_v standard normals drawn from ``z_rng`` and ``v_rng``. The
    motion is underdamped, so the AR(2) has complex-conjugate poles lam and
    conj(lam), and z_n = 2 Re(c u_n) with c = lam / (lam - conj(lam)) and the
    first-order complex recursion u_n = lam u_{n-1} + eps_n. That recursion is
    solved block by block with a cumulative sum,
    u_{s+j} = lam^j (lam u_{s-1} + sum_{k<=j} lam^-k eps_{s+k}),
    where the block length B, a power of two, keeps |lam|^-B within
    ``SCAN_GROWTH``. A chunk carries lam u_{s-1} and the last eta to the next.
    """
    tr_m = m[0, 0] + m[1, 1]
    det_m = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    l11, l21, l22 = 0.0, 0.0, 0.0
    if temp > 0:
        chol = _transition_noise_chol(m, var_z, var_v)
        l11, l21, l22 = chol[0, 0], chol[1, 0], chol[1, 1]

    lam = complex(0.5 * tr_m, math.sqrt(det_m - 0.25 * tr_m**2))
    log_lam = cmath.log(lam)
    longest = SCAN_MAX_BLOCK if log_lam.real >= 0 else int(math.log(SCAN_GROWTH) / -log_lam.real)
    block = 1 << max(0, min(longest, SCAN_MAX_BLOCK).bit_length() - 1)
    k = np.arange(block)
    rise = np.exp(-k * log_lam)  # lam^-k
    decay = np.exp(k * log_lam) * (lam / (2j * lam.imag))  # c lam^j
    carry = 0j  # lam u_{s-1}
    last_eta = np.zeros(2)
    for first in range(0, n_total, artifacts.CHUNK_SAMPLES):
        size = min(artifacts.CHUNK_SAMPLES, n_total - first)
        # column i holds eta_{first + i - 2}: the carried one, then the one each sample n needs as eta_{n-1}
        eta = np.zeros((2, size + 1))
        eta[:, 0] = last_eta
        drawn = 2 if first == 0 else 1  # eta_{-2} and eta_{-1} do not exist
        if temp > 0:
            g_z = z_rng.standard_normal(size + 1 - drawn)
            np.multiply(l11, g_z, out=eta[0, drawn:])
            g_z *= l21
            g_v = v_rng.standard_normal(size + 1 - drawn)
            g_v *= l22
            np.add(g_z, g_v, out=eta[1, drawn:])
            del g_z, g_v
        eps = eta[0, 1:] - m[1, 1] * eta[0, :-1] + m[0, 1] * eta[1, :-1]
        if first == 0:
            eps[0] = x0[0]
            eps[1] = (m @ x0 + eta[:, 2])[0] - tr_m * x0[0]
        last_eta = eta[:, -1].copy()
        del eta
        z = np.empty(size)
        for start in range(0, size, block):
            n = min(block, size - start)
            partial = np.cumsum(rise[:n] * eps[start : start + n])
            partial += carry
            z[start : start + n] = 2.0 * (decay[:n] * partial).real
            carry = partial[-1] * cmath.exp(n * log_lam)
        yield z


def simulate_coherent(
    dq: DerivedQuantities,
    amplitude_m: float,
    phase_rad: float,
    duration_s: float,
    sample_rate_Hz: float,
) -> Trajectory:
    """Noise-free test signal z(t) = amplitude cos(omega_s t + phase), computed chunk by chunk on each pass."""
    if not (math.isfinite(amplitude_m) and amplitude_m >= 0 and math.isfinite(phase_rad)):
        raise SimulationError(f"amplitude {amplitude_m!r} m and phase {phase_rad!r} rad must be finite, amplitude >= 0")
    n_samples = sample_count(duration_s, sample_rate_Hz)
    omega = dq.omega_s_rad_s

    def read():
        for first in range(0, n_samples, artifacts.CHUNK_SAMPLES):
            t = np.arange(first, min(first + artifacts.CHUNK_SAMPLES, n_samples)) / sample_rate_Hz
            yield amplitude_m * np.cos(omega * t + phase_rad)

    return Trajectory(
        sample_rate_Hz=sample_rate_Hz,
        z_m=artifacts.Series(n_samples, read),
        t0_s=0.0,
        seed=None,
        state_kind="coherent",
        meta={"amplitude_m": amplitude_m, "phase_rad": phase_rad, "omega_s_rad_s": omega},
    )


def save_trajectory(traj: Trajectory, path: str | Path) -> Path:
    """Write ``z_m`` to ``path`` as a float64 ``.npy`` array, chunk by chunk, and return its JSON sidecar.

    The sidecar is :attr:`Trajectory.info`: its ``t0_s`` and ``sample_rate_Hz``
    place sample ``i`` at ``t0_s + i / sample_rate_Hz``; it also holds
    ``n_samples`` and the provenance.
    """
    return artifacts.write_series(path, traj.z_m, traj.info)


def load_trajectory(path: str | Path) -> Trajectory:
    """Open the ``.npy`` record that :func:`save_trajectory` writes, with its sidecar.

    A measured array ``z`` sampled at ``fs`` from ``t0`` becomes such a record
    through ``save_trajectory(Trajectory(sample_rate_Hz=fs, z_m=z, t0_s=t0), path)``.
    The samples are read back chunk by chunk on each pass, and a non-finite
    sample fails the pass that reaches it with the ``ArtifactError`` of
    ``artifacts.read_series``; no pickle is ever loaded. The array's header is
    read before the sidecar, so a file that is no such array (a CSV table, say)
    is refused as one. That file, a missing or unfit sidecar, or a sidecar
    whose ``n_samples`` differs from the array raises :class:`SimulationError`
    naming the record first.
    """
    path, info_path = Path(path), artifacts.sidecar(path)
    try:
        z_m = artifacts.read_series(path)
    except ValueError as exc:
        raise SimulationError(f"{path}: {exc}") from None
    try:
        info = artifacts.read_json(info_path, numbers=("sample_rate_Hz", "t0_s"))
    except FileNotFoundError:
        raise SimulationError(f"{path}: its sidecar {info_path} is missing") from None
    except ArtifactError as exc:
        raise SimulationError(f"{path}: its sidecar {exc}") from None
    if "sample_rate_Hz" not in info:
        raise SimulationError(f"{path}: its sidecar {info_path} holds no sample_rate_Hz")
    if info.get("n_samples") != z_m.n:
        raise SimulationError(
            f"{path}: sidecar n_samples {info.get('n_samples')!r} differs from the {z_m.n} samples of the array"
        )
    try:
        return Trajectory.from_info(info, z_m)
    except SimulationError as exc:
        raise SimulationError(f"{path}: {exc}") from None
