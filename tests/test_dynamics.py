import dataclasses
import json
import math

import numpy as np
import pytest

from levitomo import artifacts, dynamics
from levitomo.constants import KB
from levitomo.dynamics import (
    SCAN_MAX_BLOCK,
    Trajectory,
    _propagate_position,
    _propagator,
    _transition_noise_chol,
    gas_damping_rate,
    load_trajectory,
    sample_count,
    save_trajectory,
    simulate_coherent,
    simulate_thermal,
)
from levitomo.errors import ConfigError, SimulationError
from levitomo.physics import derive
from levitomo.tomography import oracle_marginals

TWO_PI = 2.0 * math.pi


def equipartition_var(dq, temperature_K):
    return KB * temperature_K / (dq.mass_kg * dq.omega_s_rad_s**2)


def save_csv(traj, path):
    """Write ``traj`` as a ``t_s,z_m`` table at ``path``, next to the sidecar :func:`save_trajectory` writes."""
    sidecar = save_trajectory(traj, path.with_suffix(".npy"))
    times_s = traj.t0_s + np.arange(len(traj.z_m)) / traj.sample_rate_Hz
    table = np.column_stack([times_s, traj.z_m.values()])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="t_s,z_m", comments="")
    return sidecar


def variance_tolerance(duration_s, xi, var, n_sigma=3.0):
    """Statistical n-sigma band for the sample variance of an underdamped record.

    The squared amplitude decorrelates over ~2/xi, so a record of length T
    holds about T xi / 2 independent energy samples and the variance estimate
    has relative standard error sqrt(2 / (T xi)).
    """
    return n_sigma * var * math.sqrt(2.0 / (duration_s * xi))


def noise_streams(seed):
    """The position and velocity normals' generators: the second and third that the simulator spawns from its seed."""
    _, z_rng, v_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
    return z_rng, v_rng


def test_matches_naive_stepper(damped_config, damped_dq):
    """The lfilter-based recursion must reproduce a direct per-step propagation."""
    omega = damped_dq.omega_s_rad_s
    xi = gas_damping_rate(damped_config, damped_dq.mass_kg)
    rate = 2e6
    n = 512
    traj = simulate_thermal(
        damped_config, damped_dq, n / rate, rate, seed=99, initial_state=(1e-9, 0.0)
    )
    dt = 1.0 / rate
    m = _propagator(omega, xi, dt)
    var_z = equipartition_var(damped_dq, damped_config.temperature_K)
    chol = _transition_noise_chol(m, var_z, KB * damped_config.temperature_K / damped_dq.mass_kg)
    z_rng, v_rng = noise_streams(99)
    eta = chol @ np.stack([z_rng.standard_normal(n - 1), v_rng.standard_normal(n - 1)])
    state = np.array([1e-9, 0.0])
    expected = np.empty(n)
    expected[0] = state[0]
    for k in range(1, n):
        state = m @ state + eta[:, k - 1]
        expected[k] = state[0]
    np.testing.assert_allclose(traj.z_m.values(), expected, rtol=1e-9, atol=1e-22)


def test_equipartition(damped_config, damped_dq):
    duration = 0.25
    traj = simulate_thermal(damped_config, damped_dq, duration, 2e6, seed=11)
    xi = traj.meta["damping_rate_s"]
    var = equipartition_var(damped_dq, damped_config.temperature_K)
    assert abs(traj.z_m.values().var() - var) < variance_tolerance(duration, xi, var)


def test_step_size_robust(damped_config, damped_dq):
    """Exact discretization: statistics must not depend on the sampling rate."""
    duration = 0.2
    var = equipartition_var(damped_dq, damped_config.temperature_K)
    for rate, seed in ((1e6, 5), (4e6, 6)):
        traj = simulate_thermal(damped_config, damped_dq, duration, rate, seed=seed)
        tol = variance_tolerance(duration, traj.meta["damping_rate_s"], var)
        assert abs(traj.z_m.values().var() - var) < tol


def test_zero_temperature_is_pure_cosine(config, dq):
    z0 = 1e-9
    rate = 50 * dq.omega_s_rad_s / TWO_PI
    periods = 10
    duration = periods * TWO_PI / dq.omega_s_rad_s
    traj = simulate_thermal(
        config,
        dq,
        duration,
        rate,
        seed=0,
        temperature_K=0.0,
        damping_rate_s=0.0,
        initial_state=(z0, 0.0),
    )
    expected = z0 * np.cos(dq.omega_s_rad_s * (traj.t0_s + np.arange(len(traj.z_m)) / traj.sample_rate_Hz))
    np.testing.assert_allclose(traj.z_m.values(), expected, rtol=0, atol=1e-9 * z0)


def test_same_seed_bitwise_identical(damped_config, damped_dq):
    a = simulate_thermal(damped_config, damped_dq, 0.02, 1e6, seed=123)
    b = simulate_thermal(damped_config, damped_dq, 0.02, 1e6, seed=123)
    assert np.array_equal(a.z_m.values(), b.z_m.values())
    c = simulate_thermal(damped_config, damped_dq, 0.02, 1e6, seed=124)
    assert not np.array_equal(a.z_m.values(), c.z_m.values())


@pytest.mark.parametrize("pressure_mbar", [1e-2, 1.0])
def test_thermal_record_does_not_depend_on_the_chunk_length(monkeypatch, config, pressure_mbar):
    """Chunks of other multiples of BLOCK_SAMPLES simulate the same samples bit for bit.

    At 1e-2 mbar a scan block is a whole default chunk, and the 30k-sample record ends inside its second chunk; at
    1 mbar the scan's blocks are shorter than a chunk.
    """
    damped = dataclasses.replace(config, pressure_mbar=pressure_mbar)
    dq = derive(damped)
    records = []
    for chunk in (artifacts.CHUNK_SAMPLES, 2 * artifacts.BLOCK_SAMPLES, 5 * artifacts.BLOCK_SAMPLES):
        monkeypatch.setattr(artifacts, "CHUNK_SAMPLES", chunk)
        records.append(simulate_thermal(damped, dq, 0.03, 1e6, seed=8).z_m.values().tobytes())
    assert records[1] == records[0] and records[2] == records[0]


def test_nyquist_guard_names_minimum(config, dq):
    with pytest.raises(SimulationError, match="required minimum"):
        simulate_thermal(config, dq, 1.0, 100e3, seed=0)


def test_minimum_sample_count(damped_config, damped_dq):
    with pytest.raises(SimulationError, match="64"):
        simulate_thermal(damped_config, damped_dq, 1e-5, 1e6, seed=0)


def test_thermal_state_needs_damping(config, dq):
    with pytest.raises(SimulationError, match="stationary"):
        simulate_thermal(config, dq, 0.01, 1e6, seed=0, damping_rate_s=0.0)


def test_overdamped_rejected(config, dq):
    with pytest.raises(SimulationError, match="underdamped"):
        simulate_thermal(config, dq, 0.01, 1e7, seed=0, damping_rate_s=3.0 * dq.omega_s_rad_s)


@pytest.mark.parametrize("override", ["temperature_K", "damping_rate_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_override_is_refused(damped_config, damped_dq, override, value):
    """A NaN or infinite temperature or damping rate is a SimulationError before any sample, not a NaN record."""
    with pytest.raises(SimulationError, match="finite"):
        simulate_thermal(damped_config, damped_dq, 0.01, 1e6, seed=0, **{override: value})


def test_thermal_record_starts_from_the_stationary_draw(monkeypatch, damped_config, damped_dq):
    """The recursion runs for exactly the record's samples, and sample 0 is the initial state's stationary draw.

    That draw is sqrt(var_z) times the first normal of the first generator spawned from the seed.
    """
    asked = []

    def spy(m, var_z, var_v, temp, x0, n_total, z_rng, v_rng):
        asked.append(n_total)
        return _propagate_position(m, var_z, var_v, temp, x0, n_total, z_rng, v_rng)

    monkeypatch.setattr(dynamics, "_propagate_position", spy)
    duration, rate = 0.02, 1e6
    z = simulate_thermal(damped_config, damped_dq, duration, rate, seed=4).z_m.values()
    assert asked == [sample_count(duration, rate)] and z.size == asked[0]
    x0_rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    first_draw = math.sqrt(equipartition_var(damped_dq, damped_config.temperature_K)) * x0_rng.standard_normal()
    assert z[0] == pytest.approx(first_draw, rel=1e-14, abs=0)


def test_first_and_last_samples_hold_the_stationary_variance(damped_config, damped_dq):
    """Over 2000 seeds of 64-sample records, z[0] and z[-1] each have the equipartition variance.

    For a zero-mean Gaussian the mean of squares over N draws has relative standard error sqrt(2 / N), so each
    estimate must lie within 4 of those of k_B T / (m omega^2): a start off the stationary ensemble shows at z[0],
    and a transition that does not preserve it shows at z[-1].
    """
    n_seeds = 2000
    records = (simulate_thermal(damped_config, damped_dq, 64e-6, 1e6, seed=seed) for seed in range(n_seeds))
    ends = np.array([traj.z_m.values()[[0, -1]] for traj in records])
    var = equipartition_var(damped_dq, damped_config.temperature_K)
    tol = 4.0 * math.sqrt(2.0 / n_seeds) * var
    first_var, last_var = np.mean(ends**2, axis=0)
    assert abs(first_var - var) < tol
    assert abs(last_var - var) < tol


def test_stationarity_between_halves(damped_config, damped_dq):
    duration = 0.3
    traj = simulate_thermal(damped_config, damped_dq, duration, 1e6, seed=21)
    z = traj.z_m.values()
    half = z.size // 2
    v1, v2 = z[:half].var(), z[half:].var()
    xi = traj.meta["damping_rate_s"]
    var = equipartition_var(damped_dq, damped_config.temperature_K)
    # difference of two independent half-record estimates
    tol = 3.0 * var * math.sqrt(2.0 * 2.0 / (0.5 * duration * xi))
    assert abs(v1 - v2) < tol


def test_autocorrelation_negative_at_half_period(damped_config, damped_dq):
    traj = simulate_thermal(damped_config, damped_dq, 0.05, 1e6, seed=31)
    lag = int(round(math.pi / damped_dq.omega_s_rad_s * traj.sample_rate_Hz))
    z = traj.z_m.values()
    z = z - z.mean()
    acf = float(np.dot(z[:-lag], z[lag:]) / np.dot(z, z))
    assert acf < 0


def test_coherent_zero_amplitude(dq):
    traj = simulate_coherent(dq, 0.0, 0.3, 1e-3, 1e6)
    assert np.all(traj.z_m.values() == 0.0)


def test_coherent_half_period(dq):
    amp = 2e-9
    rate = 1.4e6  # half period is exactly 10 samples at 70 kHz
    traj = simulate_coherent(dq, amp, 0.0, 1e-3, rate)
    z = traj.z_m.values()
    assert z[0] == pytest.approx(amp, rel=1e-12)
    assert z[10] == pytest.approx(-amp, rel=1e-9)


def test_coherent_negative_amplitude_rejected(dq):
    with pytest.raises(SimulationError):
        simulate_coherent(dq, -1e-9, 0.0, 1e-3, 1e6)


@pytest.mark.parametrize("amplitude, phase", [(math.nan, 0.0), (math.inf, 0.0), (1e-9, math.inf), (1e-9, math.nan)])
def test_coherent_non_finite_amplitude_or_phase_rejected(dq, amplitude, phase):
    with pytest.raises(SimulationError, match="must be finite"):
        simulate_coherent(dq, amplitude, phase, 1e-3, 1e6)


@pytest.mark.parametrize("state", ["thermal", "coherent"])
@pytest.mark.parametrize(
    "duration, rate, match",
    [
        (math.inf, 1e6, "no finite sample count"),
        (1e300, 1e300, "no finite sample count"),
        (1e-3, math.nan, "no finite sample count"),
        (-1e-3, -1e6, "no finite sample count"),
        (2e-6, 1e6, "2 samples, need at least 64"),
        (63e-6, 1e6, "63 samples, need at least 64"),
    ],
)
def test_both_simulators_refuse_a_record_size_by_one_rule(config, dq, state, duration, rate, match):
    """Every record size ``sample_count`` refuses is a ``SimulationError`` from either simulator."""
    with pytest.raises(SimulationError, match=match):
        sample_count(duration, rate)
    with pytest.raises(SimulationError, match=match):
        if state == "thermal":
            simulate_thermal(config, dq, duration, rate, seed=0)
        else:
            simulate_coherent(dq, 1e-9, 0.0, duration, rate)


def test_shortest_record_simulates(config, dq):
    assert sample_count(64e-6, 1e6) == 64
    assert len(simulate_thermal(config, dq, 64e-6, 1e6, seed=0).z_m.values()) == 64
    assert len(simulate_coherent(dq, 1e-9, 0.0, 64e-6, 1e6).z_m.values()) == 64


def test_oracle_thermal_angle_independent():
    angles = TWO_PI * np.arange(16) / 16
    grid = np.linspace(-5, 5, 129)
    oracle = oracle_marginals("thermal", angles, grid, sigma_m=1.0)
    spread = np.abs(oracle.densities - oracle.densities[0]).max()
    assert spread == 0.0
    np.testing.assert_allclose(np.trapezoid(oracle.densities, grid, axis=1), 1.0, atol=1e-12)


def test_oracle_fock1_node_and_normalization():
    angles = TWO_PI * np.arange(12) / 12
    grid = np.linspace(-6, 6, 121)  # odd grid contains z = 0 exactly
    oracle = oracle_marginals("fock1", angles, grid, z_zpf_m=1.0 / math.sqrt(2.0))
    center = np.argmin(np.abs(grid))
    assert np.all(oracle.densities[:, center] == 0.0)
    np.testing.assert_allclose(np.trapezoid(oracle.densities, grid, axis=1), 1.0, atol=1e-6)


def test_oracle_coherent_ridge_centers():
    angles = TWO_PI * np.arange(24) / 24
    grid = np.linspace(-2e-9, 2e-9, 401)
    amp, phase = 1e-9, 0.4
    oracle = oracle_marginals("coherent", angles, grid, amplitude_m=amp, phase_rad=phase, z_zpf_m=5e-11)
    modes = grid[np.argmax(oracle.densities, axis=1)]
    np.testing.assert_allclose(modes, amp * np.cos(angles + phase), atol=grid[1] - grid[0])
    assert not oracle.densities.flags.writeable


def test_oracle_unknown_state():
    with pytest.raises(ConfigError, match="state_kind"):
        oracle_marginals("squeezed", [0.0], np.linspace(-1, 1, 11), sigma_m=1.0)


def test_trajectory_npy_round_trip(tmp_path, damped_config, damped_dq):
    """Every sample bitwise, the exact rate and t0_s, and the provenance survive a save and load."""
    traj = dataclasses.replace(simulate_thermal(damped_config, damped_dq, 0.01, 3e6, seed=55), t0_s=1.0 / 3e6)
    path = tmp_path / "traj.npy"
    sidecar = save_trajectory(traj, path)
    assert sidecar == tmp_path / "traj.json"
    assert np.load(path, allow_pickle=False).dtype == np.dtype("<f8")
    back = load_trajectory(path)
    assert back.z_m.values().tobytes() == traj.z_m.values().tobytes()
    assert (back.sample_rate_Hz, back.t0_s) == (traj.sample_rate_Hz, traj.t0_s)
    assert (back.seed, back.state_kind, back.meta) == (55, "thermal", traj.meta)


def test_saved_trajectory_holds_the_bytes_np_save_writes(tmp_path, damped_config, damped_dq):
    """The header for the known length, then every chunk appended: the file np.save writes for the whole array."""
    traj = simulate_thermal(damped_config, damped_dq, 0.05, 1e6, seed=56)
    save_trajectory(traj, tmp_path / "traj.npy")
    np.save(tmp_path / "whole.npy", traj.z_m.values())
    assert (tmp_path / "traj.npy").read_bytes() == (tmp_path / "whole.npy").read_bytes()


def test_trajectory_csv_round_trip(tmp_path, damped_config, damped_dq):
    traj = simulate_thermal(damped_config, damped_dq, 0.01, 1e6, seed=55)
    path = tmp_path / "traj.csv"
    save_csv(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.z_m.values(), traj.z_m.values())
    assert back.sample_rate_Hz == pytest.approx(traj.sample_rate_Hz, rel=1e-9)
    assert back.seed == 55
    assert back.state_kind == "thermal"


def test_trajectory_load_takes_exact_rate_from_sidecar(tmp_path, dq):
    """At 3 MHz the reciprocal of the mean CSV time step is an ulp off the rate."""
    traj = simulate_coherent(dq, 1e-9, 0.0, 50000 / 3e6, 3e6)
    path = tmp_path / "traj.csv"
    sidecar = save_csv(traj, path)
    assert load_trajectory(path).sample_rate_Hz == traj.sample_rate_Hz
    info = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(dict(info, sample_rate_Hz=1e6)))
    with pytest.raises(SimulationError, match="does not match the time column"):
        load_trajectory(path)


def test_trajectory_validation():
    with pytest.raises(SimulationError):
        Trajectory(sample_rate_Hz=0.0, z_m=np.zeros(4))
    with pytest.raises(SimulationError):
        Trajectory(sample_rate_Hz=1.0, z_m=np.zeros(1))


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_trajectory_rejects_non_finite_rate(rate):
    with pytest.raises(SimulationError, match="finite"):
        Trajectory(sample_rate_Hz=rate, z_m=np.zeros(4))


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("sidecar", [True, False])
def test_trajectory_load_rejects_non_finite_rows(tmp_path, dq, column, sidecar):
    """A nan in either column names the file and its line; the sidecar does not hide it."""
    path = tmp_path / "traj.csv"
    save_csv(simulate_coherent(dq, 1e-9, 0.0, 1e-4, 1e6), path)
    if not sidecar:
        path.with_suffix(".json").unlink()
    rows = path.read_bytes().split(b"\n")
    cells = rows[5].split(b",")
    cells[column] = b"nan"
    rows[5] = b",".join(cells)
    path.write_bytes(b"\n".join(rows))
    with pytest.raises(SimulationError, match="traj.csv:6: row holds a non-finite value"):
        load_trajectory(path)


def lfilter_position(m, var_z, var_v, temp, x0, n_total, z_rng, v_rng):
    """The AR(2) position recursion run through ``scipy.signal.lfilter``: the reference for the scan."""
    signal = pytest.importorskip("scipy.signal")
    tr_m = m[0, 0] + m[1, 1]
    det_m = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if temp > 0:
        normals = np.stack([z_rng.standard_normal(n_total - 1), v_rng.standard_normal(n_total - 1)])
        eta = _transition_noise_chol(m, var_z, var_v) @ normals
    else:
        eta = np.zeros((2, n_total - 1))
    z = np.empty(n_total)
    z[0] = x0[0]
    z[1] = (m @ x0 + eta[:, 0])[0]
    eps = eta[0, 1:] - m[1, 1] * eta[0, :-1] + m[0, 1] * eta[1, :-1]
    a_coeffs = [1.0, -tr_m, det_m]
    zi = signal.lfiltic([1.0], a_coeffs, y=[z[1], z[0]])
    z[2:], _ = signal.lfilter([1.0], a_coeffs, eps, zi=zi)
    return z


@pytest.mark.parametrize(
    "xi_over_omega, temperature_K, n_total",
    [
        (0.025, 0.03, 5 * SCAN_MAX_BLOCK + 7),  # 1 mbar: many blocks, the last one partial
        (1.99, 0.03, 20_011),  # next to the underdamped guard, where |lam| is smallest
        (0.0, 0.0, 200_003),  # T = 0 without damping: a pure cosine, |lam| = 1
    ],
)
def test_position_scan_matches_lfilter(dq, xi_over_omega, temperature_K, n_total):
    omega = dq.omega_s_rad_s
    m = _propagator(omega, xi_over_omega * omega, 1e-6)
    var_z, var_v = equipartition_var(dq, temperature_K), KB * temperature_K / dq.mass_kg
    x0 = np.array([1e-9, 2e-4]) if temperature_K == 0 else np.array([math.sqrt(var_z), 0.0])
    args = (m, var_z, var_v, temperature_K, x0, n_total)
    scan = np.concatenate(list(_propagate_position(*args, *noise_streams(5))))
    reference = lfilter_position(*args, *noise_streams(5))
    assert np.all(np.isfinite(scan))
    assert np.max(np.abs(scan - reference)) <= 1e-9 * np.max(np.abs(reference))
