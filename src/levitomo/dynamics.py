"""Axial motion of the trapped particle: stochastic thermal trajectories and
deterministic coherent oscillations.

The thermal simulator integrates the underdamped Langevin equation

    m z'' = -m omega_s^2 z - m xi z' + F_th(t)

with the thermal force fixed by fluctuation-dissipation so the stationary
position variance is k_B T / (m omega_s^2). The (z, v) pair is propagated with
the exact Gaussian transition of the linear system (matrix exponential plus
exact conditional covariance), so results carry no step-size bias.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .constants import KB, M_GAS_AIR, TWO_PI
from .errors import SimulationError
from .physics import DerivedQuantities, ExperimentConfig

# burn-in before a stationary thermal record: 10 damping times, capped
BURN_IN_DAMPING_TIMES = 10.0
BURN_IN_MAX_SAMPLES = 1_000_000

# sample_rate must exceed this multiple of omega_s/2pi; the exact propagator is
# unbiased at any step, the guard only keeps the oscillation well resolved for
# windowing and phase binning downstream
NYQUIST_GUARD_FACTOR = 10.0
MIN_SAMPLES = 64

# the position recursion runs as a cumulative-sum scan in blocks: within a block
# the weights |lam|^-k grow to at most SCAN_GROWTH, far from overflow even near
# the underdamped guard, and the block is never longer than SCAN_MAX_BLOCK
# samples, which bounds the phase rounding of lam^k
SCAN_GROWTH = 2.0**64
SCAN_MAX_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled axial position record.

    ``z_m[i]`` is the position at time ``t0_s + i / sample_rate_Hz``. ``seed``
    records the RNG seed for provenance (``None`` for deterministic signals).
    """

    sample_rate_Hz: float
    z_m: np.ndarray
    t0_s: float = 0.0
    seed: int | None = None
    state_kind: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate_Hz) and self.sample_rate_Hz > 0):
            raise SimulationError(f"sample_rate_Hz must be finite and positive, got {self.sample_rate_Hz!r}")
        if len(self.z_m) < 2:
            raise SimulationError("a trajectory needs at least 2 samples")

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + np.arange(len(self.z_m)) / self.sample_rate_Hz

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
    return (15.8 / math.pi) * config.particle_radius_m**2 * pressure_pa / (mass_kg * v_thermal)


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
    """Simulate thermal axial motion; deterministic for a given seed.

    ``temperature_K`` and ``damping_rate_s`` override the values implied by the
    config (useful for effective-temperature runs and for the noise-free
    ``T = 0`` limit; zero is allowed for both overrides). When
    ``initial_state = (z0, v0)`` is given the trajectory starts there with no
    burn-in; otherwise the start is drawn from the stationary ensemble and a
    burn-in of 10 damping times (capped at 1e6 samples) is discarded, so the
    returned record is stationary by construction.
    """
    omega = dq.omega_s_rad_s
    mass = dq.mass_kg
    temp = config.temperature_K if temperature_K is None else temperature_K
    xi = gas_damping_rate(config, mass) if damping_rate_s is None else damping_rate_s
    if temp < 0 or xi < 0:
        raise SimulationError("temperature and damping overrides must be non-negative")
    if xi >= 2.0 * omega:
        raise SimulationError(
            f"damping rate {xi:.3e} 1/s is not underdamped (needs xi < 2 omega_s = {2 * omega:.3e})"
        )
    min_rate = NYQUIST_GUARD_FACTOR * omega / TWO_PI
    if sample_rate_Hz <= min_rate:
        raise SimulationError(
            f"sample_rate_Hz = {sample_rate_Hz:.6g} does not resolve the oscillation;"
            f" required minimum is {min_rate:.6g} Hz"
            f" ({NYQUIST_GUARD_FACTOR:g} x omega_s / 2 pi)"
        )
    n_samples = int(round(duration_s * sample_rate_Hz))
    if n_samples < MIN_SAMPLES:
        raise SimulationError(f"duration x sample_rate = {n_samples} samples, need at least {MIN_SAMPLES}")

    dt = 1.0 / sample_rate_Hz
    var_z = KB * temp / (mass * omega**2)
    var_v = KB * temp / mass
    m = _propagator(omega, xi, dt)

    rng = np.random.default_rng(seed)
    if initial_state is not None:
        x0 = np.asarray(initial_state, dtype=float)
        n_burn = 0
    else:
        if temp > 0 and xi == 0.0:
            raise SimulationError("a thermal state needs damping: xi = 0 with T > 0 has no stationary ensemble")
        x0 = np.array([math.sqrt(var_z), math.sqrt(var_v)]) * rng.standard_normal(2)
        n_burn = min(int(math.ceil(BURN_IN_DAMPING_TIMES / xi * sample_rate_Hz)), BURN_IN_MAX_SAMPLES) if xi > 0 else 0

    n_total = n_samples + n_burn
    z = _propagate_position(m, var_z, var_v, temp, x0, n_total, rng)
    return Trajectory(
        sample_rate_Hz=sample_rate_Hz,
        z_m=z[n_burn:],
        t0_s=0.0,
        seed=seed,
        state_kind="thermal",
        meta={
            "temperature_K": temp,
            "damping_rate_s": xi,
            "omega_s_rad_s": omega,
            "burn_in_samples": n_burn,
        },
    )


def _propagate_position(m, var_z, var_v, temp, x0, n_total, rng) -> np.ndarray:
    """Run the exact linear recursion X_n = M X_{n-1} + eta_n, returning z only.

    The vector AR(1) is reduced to a scalar AR(2) via Cayley-Hamilton,
    z_n = tr(M) z_{n-1} - det(M) z_{n-2} + eps_n with
    eps_n = eta_n,z - M22 eta_{n-1},z + M12 eta_{n-1},v; the two initial
    samples enter as eps_0 = z_0 and eps_1 = z_1 - tr(M) z_0 from rest. The
    motion is underdamped, so the AR(2) has complex-conjugate poles lam and
    conj(lam), and z_n = 2 Re(c u_n) with c = lam / (lam - conj(lam)) and the
    first-order complex recursion u_n = lam u_{n-1} + eps_n. That recursion is
    solved block by block with a cumulative sum,
    u_{s+j} = lam^j (lam u_{s-1} + sum_{k<=j} lam^-k eps_{s+k}),
    where the block length B keeps |lam|^-B within ``SCAN_GROWTH``.
    """
    tr_m = m[0, 0] + m[1, 1]
    det_m = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    eps = np.zeros(n_total)
    eta_0 = np.zeros(2)
    if temp > 0:
        chol = _transition_noise_chol(m, var_z, var_v)
        eta = chol @ rng.standard_normal((2, n_total - 1))
        eps[2:] = eta[0, 1:] - m[1, 1] * eta[0, :-1] + m[0, 1] * eta[1, :-1]
        eta_0 = eta[:, 0].copy()
        del eta
    eps[0] = x0[0]
    eps[1] = (m @ x0 + eta_0)[0] - tr_m * x0[0]

    lam = complex(0.5 * tr_m, math.sqrt(det_m - 0.25 * tr_m**2))
    log_lam = cmath.log(lam)
    block = SCAN_MAX_BLOCK if log_lam.real >= 0 else int(math.log(SCAN_GROWTH) / -log_lam.real)
    block = max(1, min(block, SCAN_MAX_BLOCK, n_total))
    k = np.arange(block)
    rise = np.exp(-k * log_lam)  # lam^-k
    decay = np.exp(k * log_lam) * (lam / (2j * lam.imag))  # c lam^j
    z = np.empty(n_total)
    carry = 0j  # lam u_{s-1}
    for start in range(0, n_total, block):
        size = min(block, n_total - start)
        partial = np.cumsum(rise[:size] * eps[start : start + size])
        partial += carry
        z[start : start + size] = 2.0 * (decay[:size] * partial).real
        carry = partial[-1] * cmath.exp(size * log_lam)
    return z


def simulate_coherent(
    dq: DerivedQuantities,
    amplitude_m: float,
    phase_rad: float,
    duration_s: float,
    sample_rate_Hz: float,
) -> Trajectory:
    """Noise-free test signal z(t) = amplitude cos(omega_s t + phase)."""
    if amplitude_m < 0:
        raise SimulationError(f"amplitude must be non-negative, got {amplitude_m!r}")
    if sample_rate_Hz <= 0:
        raise SimulationError("sample_rate_Hz must be positive")
    n_samples = int(round(duration_s * sample_rate_Hz))
    if n_samples < 2:
        raise SimulationError("duration too short for a trajectory")
    t = np.arange(n_samples) / sample_rate_Hz
    z = amplitude_m * np.cos(dq.omega_s_rad_s * t + phase_rad)
    return Trajectory(
        sample_rate_Hz=sample_rate_Hz,
        z_m=z,
        t0_s=0.0,
        seed=None,
        state_kind="coherent",
        meta={"amplitude_m": amplitude_m, "phase_rad": phase_rad, "omega_s_rad_s": dq.omega_s_rad_s},
    )


def save_trajectory(traj: Trajectory, path: str | Path) -> Path:
    """Write ``z_m`` to ``path`` as a float64 ``.npy`` array and return its JSON sidecar.

    The sidecar's ``t0_s`` and ``sample_rate_Hz`` place sample ``i`` at
    ``t0_s + i / sample_rate_Hz``; it also holds ``n_samples`` and the provenance.
    """
    return artifacts.write_array(
        path,
        traj.z_m,
        {
            "sample_rate_Hz": traj.sample_rate_Hz,
            "t0_s": traj.t0_s,
            "seed": traj.seed,
            "state_kind": traj.state_kind,
            "n_samples": len(traj.z_m),
            "meta": traj.meta,
        },
    )


def load_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory: a ``.npy`` array with its sidecar, or a ``t_s,z_m`` CSV table.

    A ``.npy`` file is what :func:`save_trajectory` writes, and it needs its
    sidecar. Any other suffix is read as CSV, for legacy files and measured
    records; a CSV table's sidecar is optional. A file that cannot be read as
    a trajectory raises :class:`SimulationError` naming it.
    """
    path = Path(path)
    z_m, info = (_read_npy if path.suffix == ".npy" else _read_csv)(path)
    try:
        return Trajectory(
            sample_rate_Hz=info["sample_rate_Hz"],
            z_m=z_m,
            t0_s=info.get("t0_s", 0.0),
            seed=info.get("seed"),
            state_kind=info.get("state_kind", "custom"),
            meta=info.get("meta", {}),
        )
    except SimulationError as exc:
        raise SimulationError(f"{path}: {exc}") from None


def _read_sidecar(path: Path, required: bool) -> dict:
    """The JSON sidecar of the series at ``path``; ``{}`` when an optional one is absent."""
    info_path = artifacts.sidecar(path)
    if not required and not info_path.is_file():
        return {}
    try:
        info = json.loads(info_path.read_text())
    except FileNotFoundError:
        raise SimulationError(f"{path}: its sidecar {info_path} is missing") from None
    except ValueError as exc:
        raise SimulationError(f"{info_path}: not a JSON sidecar ({exc})") from None
    numbers = ("sample_rate_Hz", "t0_s")
    if not isinstance(info, dict) or any(type(info.get(key, 0.0)) not in (int, float) for key in numbers):
        raise SimulationError(f"{info_path}: expected a JSON object whose sample_rate_Hz and t0_s are numbers")
    return info


def _read_npy(path: Path) -> tuple[np.ndarray, dict]:
    """The samples of a ``.npy`` trajectory and its sidecar; no pickled data is ever loaded."""
    info = _read_sidecar(path, required=True)
    if "sample_rate_Hz" not in info:
        raise SimulationError(f"{path}: its sidecar holds no sample_rate_Hz")
    try:
        with path.open("rb") as fh:
            z = np.load(fh, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise SimulationError(f"{path}: not a readable .npy array ({exc})") from None
    if not isinstance(z, np.ndarray) or z.dtype.kind != "f":  # an .npz archive, or integer, complex or text data
        raise SimulationError(f"{path}: expected a floating-point .npy array")
    if z.ndim != 1 or z.size < 2:
        raise SimulationError(f"{path}: expected a 1-D array of at least 2 samples, got shape {z.shape}")
    if info.get("n_samples") != z.size:
        raise SimulationError(
            f"{path}: sidecar n_samples {info.get('n_samples')!r} differs from the {z.size} samples of the array"
        )
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise SimulationError(f"{path}: sample {bad[0]} holds a non-finite value")
    return z.astype(float, copy=False), info


def _read_csv(path: Path) -> tuple[np.ndarray, dict]:
    """The ``z_m`` column of a ``t_s,z_m`` table and its sidecar; the time column supplies a missing rate or t0_s."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise SimulationError(f"{path}: not a t_s,z_m CSV ({exc})") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise SimulationError(f"{path}: expected a two-column t_s,z_m CSV with >= 2 rows")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise SimulationError(f"{path}:{bad[0] + 2}: row holds a non-finite value")
    t = data[:, 0]
    steps = np.diff(t)
    if np.any(steps <= 0) or abs(steps.max() - steps.min()) > 1e-9 * steps.mean():
        raise SimulationError(f"{path}: time column is not uniformly sampled")
    # the sidecar's exact rate: 1 / mean step can be an ulp off, which shifts derived times
    info = {"sample_rate_Hz": 1.0 / steps.mean(), "t0_s": t[0], **_read_sidecar(path, required=False)}
    rate = info["sample_rate_Hz"]
    if abs(rate * steps.mean() - 1.0) > 1e-9:
        raise SimulationError(f"{path}: sidecar sample rate {rate!r} Hz does not match the time column")
    return data[:, 1], info
