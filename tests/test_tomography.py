import json
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator

from levitomo import tomography
from levitomo.dynamics import Trajectory, simulate_coherent, simulate_thermal
from levitomo.errors import TomographyError
from levitomo.tomography import (
    MarginalSet,
    WignerGrid,
    analyze,
    bin_marginals,
    default_z_grid,
    filtered_projections,
    inverse_radon,
    oracle_marginals,
    save_marginals,
    save_wigner,
)

from projection import (
    oneshot_filtered_projections,
    project_marginal,
    reference_analyze,
    reference_filtered_projections,
    reference_inverse_radon,
)

TWO_PI = 2.0 * math.pi


def gaussian_marginals(n_angles=90, n_z=129, span=5.0, sigma=1.0, scale=1.0):
    grid = np.linspace(-span, span, n_z)
    angles = TWO_PI * np.arange(n_angles) / n_angles
    row = scale * np.exp(-(grid**2) / (2 * sigma**2)) / math.sqrt(TWO_PI * sigma**2)
    return MarginalSet(angles, grid, np.tile(row[None, :], (n_angles, 1)))


def random_marginals(angles, n_z, seed):
    """Independent random rows under a Gaussian envelope: no symmetry in z, in p or between angles."""
    grid = np.linspace(-5.0, 5.0, n_z)
    densities = np.random.default_rng(seed).random((angles.size, n_z)) * np.exp(-(grid**2) / 8.0)
    return MarginalSet(angles, grid, densities)


def analytic_gaussian_grid(n=129, span=3.5, sigma=1.0):
    axis = np.linspace(-span, span, n)
    zz, pp = np.meshgrid(axis, axis, indexing="ij")
    values = np.exp(-(zz**2 + pp**2) / (2 * sigma**2)) / (TWO_PI * sigma**2)
    return WignerGrid(axis_m=axis, values=values)


def analytic_fock1_grid(n=129, span=3.5):
    axis = np.linspace(-span, span, n)
    zz, pp = np.meshgrid(axis, axis, indexing="ij")
    r2 = zz**2 + pp**2
    values = (2.0 * r2 - 1.0) * np.exp(-r2) / math.pi
    return WignerGrid(axis_m=axis, values=values)


# ---------------------------------------------------------------------------
# marginal binning


def test_coherent_ridge_mode_locations(dq):
    """With sampling locked to the bin centers, each histogram concentrates on
    the analytic ridge amplitude*cos(theta + phase)."""
    n_angles = 90
    f0 = dq.omega_s_rad_s / TWO_PI
    amp, phase = 3e-9, 0.0
    traj = simulate_coherent(dq, amp, phase, 0.002, n_angles * f0)
    grid = np.linspace(-1.2 * amp, 1.2 * amp, 129)
    marginals = bin_marginals(traj, dq.omega_s_rad_s, n_angles, grid, min_occupancy=1)
    modes = grid[np.argmax(marginals.densities, axis=1)]
    expected = amp * np.cos(marginals.angles_rad + phase)
    np.testing.assert_allclose(modes, expected, atol=grid[1] - grid[0])


def test_thermal_angle_variances_agree(damped_config, damped_dq):
    traj = simulate_thermal(damped_config, damped_dq, 0.25, 1e6, seed=61, temperature_K=0.03)
    marginals = bin_marginals(traj, damped_dq.omega_s_rad_s * 1.0000123, 30)
    grid = marginals.z_grid_m
    variances = np.array(
        [np.trapezoid(d * grid**2, grid) for d in marginals.densities]
    )
    pooled = variances.mean()
    # each bin's samples spread over the whole record, so every per-angle
    # variance estimate carries ~duration*xi/2 independent energy samples
    xi = traj.meta["damping_rate_s"]
    n_eff = 0.25 * xi / 2.0
    tol = 3.0 * pooled * math.sqrt(2.0 / n_eff)
    assert np.all(np.abs(variances - pooled) < tol)


def test_occupancy_uniform_across_bins():
    """Uniform phase coverage: every bin holds total/n within counting noise."""
    n = 1_000_000
    rate = 1e6
    traj = Trajectory(sample_rate_Hz=rate, z_m=np.zeros(n), state_kind="custom")
    omega_hat = TWO_PI * 70000.7  # incommensurate with the sample rate
    grid = np.linspace(-1.0, 1.0, 9)
    marginals = bin_marginals(traj, omega_hat, 8, grid, min_occupancy=1)
    expected = n / 8
    assert np.all(np.abs(marginals.counts_per_bin.sum(axis=1) - expected) <= 3.0 * math.sqrt(expected))


def test_empty_angle_bin_is_an_error(dq):
    f0 = dq.omega_s_rad_s / TWO_PI
    traj = simulate_coherent(dq, 1e-9, 0.0, 0.01, 8 * f0)  # phases hit only 8 values
    grid = np.linspace(-2e-9, 2e-9, 33)
    with pytest.raises(TomographyError, match="angle bin"):
        bin_marginals(traj, dq.omega_s_rad_s, 16, grid, min_occupancy=1)


def test_binning_preconditions(dq):
    traj = simulate_coherent(dq, 1e-9, 0.0, 0.01, 1e6)
    with pytest.raises(TomographyError):
        bin_marginals(traj, -1.0, 16)
    with pytest.raises(TomographyError, match="at least 8"):
        bin_marginals(traj, dq.omega_s_rad_s, 4)
    short = simulate_coherent(dq, 1e-9, 0.0, 40 / (dq.omega_s_rad_s / TWO_PI) * 0.5, 1e6)
    with pytest.raises(TomographyError, match="periods"):
        bin_marginals(short, dq.omega_s_rad_s, 16)


def test_densities_normalized(damped_config, damped_dq):
    traj = simulate_thermal(damped_config, damped_dq, 0.1, 1e6, seed=62, temperature_K=0.03)
    marginals = bin_marginals(traj, damped_dq.omega_s_rad_s, 16)
    norms = np.trapezoid(marginals.densities, marginals.z_grid_m, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_under_sampled_flag(damped_config, damped_dq):
    traj = simulate_thermal(damped_config, damped_dq, 0.005, 1e6, seed=63, temperature_K=0.03)
    with pytest.raises(TomographyError, match="under-sampled"):
        bin_marginals(traj, damped_dq.omega_s_rad_s, 16, min_occupancy=10**6)


def test_default_grid_shape(damped_config, damped_dq):
    traj = simulate_thermal(damped_config, damped_dq, 0.05, 1e6, seed=64, temperature_K=0.03)
    grid = default_z_grid(traj.z_m)
    assert grid.size == 129
    assert grid[0] == -grid[-1]
    assert grid[64] == 0.0
    with pytest.raises(TomographyError, match="odd"):
        default_z_grid(traj.z_m, n_points=128)


# ---------------------------------------------------------------------------
# filtered back-projection


def test_gaussian_reconstruction_peak_and_integral():
    w = inverse_radon(gaussian_marginals())
    report = analyze(w)
    assert w.values.max() == pytest.approx(1.0 / TWO_PI, rel=0.02)
    assert abs(report.total_integral - 1.0) < 0.01
    # isotropy at the angular-discretization level (the bin set is not exactly
    # symmetric under z <-> p exchange, so this is not machine precision)
    np.testing.assert_allclose(w.values, w.values.T, atol=1e-3 * w.values.max())


def test_gaussian_reconstruction_matches_analytic_surface():
    w = inverse_radon(gaussian_marginals())
    zz, pp = np.meshgrid(w.axis_m, w.axis_m, indexing="ij")
    truth = np.exp(-(zz**2 + pp**2) / 2.0) / TWO_PI
    assert np.max(np.abs(w.values - truth)) < 0.02 * truth.max()


def test_fock1_negativity_at_origin():
    grid = np.linspace(-5, 5, 129)
    angles = TWO_PI * np.arange(90) / 90
    oracle = oracle_marginals("fock1", angles, grid, z_zpf_m=1.0 / math.sqrt(2.0))
    w = inverse_radon(MarginalSet(angles, grid, oracle.densities))
    center = np.argmin(np.abs(w.axis_m))
    w00 = w.values[center, center]
    assert w00 <= -0.2
    assert abs(w00 - (-1.0 / math.pi)) <= 0.35 / math.pi


def test_point_object_concentrates_at_origin():
    """Back-projection of a point stays where it came from, provided the
    angular sampling matches the radial resolution (n_angles >~ pi/2 n_z)."""
    n_z, n_angles = 33, 180
    grid = np.linspace(-5, 5, n_z)
    dz = grid[1] - grid[0]
    densities = np.zeros((n_angles, n_z))
    densities[:, n_z // 2] = 1.0 / dz
    angles = TWO_PI * np.arange(n_angles) / n_angles
    w = inverse_radon(MarginalSet(angles, grid, densities))
    mass = np.abs(w.values)
    zz, pp = np.meshgrid(w.axis_m, w.axis_m, indexing="ij")
    within = mass[np.sqrt(zz**2 + pp**2) <= 3.0 * (w.axis_m[1] - w.axis_m[0])].sum()
    assert within / mass.sum() > 0.90


def test_fbp_is_linear():
    m_a = gaussian_marginals(sigma=1.0)
    m_b = gaussian_marginals(sigma=0.5)
    alpha = 0.3
    mixed = MarginalSet(
        m_a.angles_rad, m_a.z_grid_m, alpha * m_a.densities + (1 - alpha) * m_b.densities
    )
    w_mix = inverse_radon(mixed)
    w_a, w_b = inverse_radon(m_a), inverse_radon(m_b)
    combo = alpha * w_a.values + (1 - alpha) * w_b.values
    assert np.max(np.abs(w_mix.values - combo)) < 1e-10


def test_rotation_covariance():
    """Shifting every marginal angle rotates the reconstruction."""
    n_angles = 90
    grid = np.linspace(-5, 5, 129)
    angles = TWO_PI * np.arange(n_angles) / n_angles
    var = (1.2**2) * np.cos(angles) ** 2 + (0.6**2) * np.sin(angles) ** 2
    densities = np.exp(-grid[None, :] ** 2 / (2 * var[:, None])) / np.sqrt(TWO_PI * var[:, None])
    base = inverse_radon(MarginalSet(angles, grid, densities))
    dtheta = TWO_PI * 7 / n_angles
    shifted = inverse_radon(
        MarginalSet((angles + dtheta) % TWO_PI, grid, densities)
    )
    interp = RegularGridInterpolator(
        (base.axis_m, base.axis_m), base.values, bounds_error=False, fill_value=0.0
    )
    zz, pp = np.meshgrid(base.axis_m, base.axis_m, indexing="ij")
    c, s = math.cos(dtheta), math.sin(dtheta)
    rotated = interp(
        np.stack([(c * zz + s * pp).ravel(), (-s * zz + c * pp).ravel()], axis=1)
    ).reshape(zz.shape)
    l1 = float(np.abs(shifted.values - rotated).sum() * (shifted.axis_m[1] - shifted.axis_m[0]) ** 2)
    assert l1 < 0.02


def test_normalization_preserved():
    w = inverse_radon(gaussian_marginals(n_angles=90, n_z=129))
    total = float(np.trapezoid(np.trapezoid(w.values, w.axis_m, axis=1), w.axis_m))
    assert abs(total - 1.0) < 0.01


def test_dc_fidelity_tracks_marginal_mass():
    """The reconstruction's mean must follow the marginals' own normalization;
    the restored zero-frequency ramp coefficient is what pins this."""
    for mass in (1.0, 2.0):
        w = inverse_radon(gaussian_marginals(scale=mass))
        total = float(np.trapezoid(np.trapezoid(w.values, w.axis_m, axis=1), w.axis_m))
        assert abs(total - mass) < 0.005 * max(mass, 1.0)


def lattice(n_angles, shift=0.0):
    return (TWO_PI * (np.arange(n_angles) + shift) / n_angles) % TWO_PI


def mirror_partners_off_by(offset):
    """``lattice(16, shift=0.5)``, whose angles k and 15 - k are mirror partners, with the second half moved."""
    angles = lattice(16, shift=0.5)
    angles[8:] += offset
    return angles


@pytest.mark.parametrize(
    "angles, n_z, cutoff",
    [
        (lattice(720), 513, 1.0),
        (lattice(90), 129, 0.5),
        (lattice(13), 129, 1.0),
        (lattice(16, shift=3), 129, 1.0),
        (lattice(16, shift=0.3), 129, 1.0),
        (lattice(16, shift=0.5), 129, 1.0),
        (lattice(91), 129, 1.0),
        (np.random.default_rng(40).random(40) * TWO_PI, 129, 1.0),
        (mirror_partners_off_by(1e-13), 129, 1.0),
    ],
    ids=[
        "720x513",
        "90x129-cutoff-half",
        "13-angles",
        "16-angles-from-bin-3",
        "16-angles-off-lattice",
        "16-angles-mirror-partners",
        "91-angles",
        "40-random-unsorted-angles",
        "mirror-partners-1e-13-off",
    ],
)
def test_inverse_radon_matches_per_angle_reference(angles, n_z, cutoff):
    """Folding theta + pi and -theta and gathering every member of a group at theta's samples reproduce the
    per-angle loop."""
    marginals = random_marginals(angles, n_z, seed=angles.size)
    w = inverse_radon(marginals, cutoff_fraction=cutoff)
    reference = reference_inverse_radon(marginals, cutoff_fraction=cutoff)
    np.testing.assert_array_equal(w.axis_m, reference.axis_m)
    peak = np.max(np.abs(reference.values))
    assert np.max(np.abs(w.values - reference.values)) <= 1e-10 * peak


@pytest.mark.parametrize(
    "angles, n_groups, n_mirrored",
    [(lattice(720), 91, 89), (lattice(90), 23, 22), (lattice(91), 46, 45), (lattice(13), 7, 6), (lattice(16, 0.3), 4, 0)],
    ids=["720", "90", "91", "13", "16-off-lattice"],
)
def test_dihedral_groups(angles, n_groups, n_mirrored):
    """Each angle lies in one group, whole quarter turns from its theta or, where mirrored, from -theta."""
    groups = tomography._dihedral_groups(angles, 1e-12)
    assert len(groups) == n_groups
    assert sum(bool(mirrored.any()) for _, _, _, mirrored in groups) == n_mirrored
    members = np.concatenate([group[1] for group in groups])
    assert np.array_equal(np.sort(members), np.arange(angles.size))
    for theta, members, quarters, mirrored in groups:
        start = np.where(mirrored, -theta, theta)
        residual = np.angle(np.exp(1j * (angles[members] - start - quarters * math.pi / 2)))
        assert np.all(np.abs(residual) <= 1e-12)


def hires_fock1_oracle():
    """The fock1 oracle of a run at 720 angles x 513 points."""
    return oracle_marginals("fock1", lattice(720), np.linspace(-5.0, 5.0, 513), z_zpf_m=1.0 / math.sqrt(2.0))


@pytest.mark.parametrize("cutoff", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["fock1", "random"])
def test_filtered_projections_match_complex_fft(kind, cutoff):
    marginals = hires_fock1_oracle() if kind == "fock1" else random_marginals(lattice(720), 513, seed=7)
    filtered = filtered_projections(marginals.densities, marginals.z_grid_m[1] - marginals.z_grid_m[0], cutoff)
    assert filtered.flags.c_contiguous and filtered.shape == marginals.densities.shape
    np.testing.assert_allclose(filtered, reference_filtered_projections(marginals, cutoff), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_angles", [720, 64, 13])
def test_filtered_projections_equal_oneshot_transform_bitwise(n_angles):
    """Filtering in blocks of rows gives the bytes of one batched transform of every row."""
    marginals = random_marginals(lattice(n_angles), 513, seed=n_angles)
    dz = marginals.z_grid_m[1] - marginals.z_grid_m[0]
    for cutoff in (1.0, 0.5):
        np.testing.assert_array_equal(
            filtered_projections(marginals.densities, dz, cutoff), oneshot_filtered_projections(marginals, cutoff)
        )


def test_filtered_projections_are_c_contiguous_whatever_the_layout():
    """A Fortran array and a broadcast view are filtered into a new C-ordered array, the bytes of their C copy's."""
    densities = random_marginals(lattice(90), 129, seed=90).densities
    for rows in (np.asfortranarray(densities), np.broadcast_to(densities[:1], densities.shape)):
        filtered = filtered_projections(rows, 0.1)
        assert filtered.flags.c_contiguous
        assert filtered.tobytes() == filtered_projections(np.ascontiguousarray(rows), 0.1).tobytes()


def _traced_peak(call, *args) -> int:
    """Peak bytes that ``call(*args)`` allocates, its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_filtered_projections_working_set_at_720_by_513():
    """The 364 folded rows of a 720 x 513 run are filtered with at most a block of padded points beside the result."""
    oracle = hires_fock1_oracle()
    rows = np.repeat(oracle.densities[:1], 364, axis=0)  # four folded rows for each of the 91 dihedral groups
    assert _traced_peak(filtered_projections, rows, oracle.z_grid_m[1] - oracle.z_grid_m[0]) <= 1.5 * rows.nbytes


def test_inverse_radon_working_set_at_720_by_513(monkeypatch):
    """Filtering and back-projection hold the grid, the tables and the folded rows, not a padded row per angle (50 MB)
    nor a complex output-sized sum.

    Each back-projection worker adds one set of row-block buffers, three of
    them complex; tracemalloc counts what every thread allocates (8.25 MB on
    two workers and 14.95 MB on five, where a complex sum and slope tables
    took 11.47 and 16.53 MB).
    """
    marginals = random_marginals(lattice(720), 513, seed=720)
    monkeypatch.setattr(tomography, "_worker_count", lambda n_blocks: 2)
    assert _traced_peak(inverse_radon, marginals) <= 9e6
    monkeypatch.setattr(tomography, "_worker_count", lambda n_blocks: 5)
    assert _traced_peak(inverse_radon, marginals) <= 15.5e6


def test_angle_independent_oracle_allocates_one_row():
    """fock1 at 720 x 513 is one normalized row (4 kB) and a view of it, not 720 copies (2.95 MB)."""
    assert _traced_peak(hires_fock1_oracle) < 64e3


def test_oracle_reconstruction_working_set_at_720_by_513(monkeypatch):
    """The tomography stage of a fock1 run: the oracle, kept alive through its reconstruction and analysis."""
    monkeypatch.setattr(tomography, "_worker_count", lambda points: 2)

    def stage():
        marginals = hires_fock1_oracle()
        return marginals, analyze(inverse_radon(marginals))

    assert _traced_peak(stage) < 9e6


@pytest.mark.parametrize(
    "n_angles, n_z",
    [(720, 513), (90, 129), (91, 33), (13, 201)],
    ids=["720x513", "90x129", "91x33-one-block", "13x201-partial-block"],
)
def test_inverse_radon_bitwise_whatever_the_worker_count(monkeypatch, n_angles, n_z):
    """Each row block goes to one worker, which adds the groups in one order: the bytes do not depend on the count.

    The threads switch as often as the interpreter allows, so two workers that
    shared a row would lose an update.
    """
    marginals = random_marginals(lattice(n_angles), n_z, seed=n_angles)
    values = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 5):
            monkeypatch.setattr(tomography, "_worker_count", lambda n_blocks: workers)
            values.append(inverse_radon(marginals, cutoff_fraction=0.5).values.tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert values[1] == values[0] and values[2] == values[0]


def test_small_grids_back_project_on_the_calling_thread(monkeypatch):
    """On two CPUs, 90 x 129 is summed by the calling thread alone and 720 x 513 by it and one thread more."""
    monkeypatch.setattr(tomography.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(tomography.threading, "Thread", CountedThread)
    for n_angles, n_z, workers in ((90, 129, 1), (720, 513, 2)):
        assert tomography._worker_count(n_angles * n_z * n_z) == workers
        started.clear()
        inverse_radon(random_marginals(lattice(n_angles), n_z, seed=n_angles))
        assert len(started) == workers - 1, (n_angles, n_z)


def test_binning_does_not_depend_on_the_chunk_length(monkeypatch, damped_config, damped_dq):
    """The grid's spread and the counts of every chunk add up to the same marginals bit for bit."""
    traj = simulate_thermal(damped_config, damped_dq, 0.05, 1e6, seed=63, temperature_K=0.03)
    sets = []
    for chunk in (tomography.artifacts.BLOCK_SAMPLES, 3 * tomography.artifacts.BLOCK_SAMPLES):
        monkeypatch.setattr(tomography.artifacts, "CHUNK_SAMPLES", chunk)
        marginals = bin_marginals(traj, damped_dq.omega_s_rad_s, 16)
        sets.append((marginals.z_grid_m.tobytes(), marginals.densities.tobytes()))
    assert sets[1] == sets[0]


def test_failing_worker_fails_the_reconstruction(monkeypatch):
    """The exception of a worker reaches the caller, however many workers there are; no partial grid is returned."""
    failure = MemoryError("row block 128")
    back_project_block = tomography._back_project_block

    def fail_on_third_block(first, *args):
        if first == 2 * tomography.BLOCK_ROWS:
            raise failure
        back_project_block(first, *args)

    monkeypatch.setattr(tomography, "_back_project_block", fail_on_third_block)
    marginals = random_marginals(lattice(90), 513, seed=90)
    for workers in (1, 2, 5):
        monkeypatch.setattr(tomography, "_worker_count", lambda n_blocks: workers)
        with pytest.raises(MemoryError) as raised:
            inverse_radon(marginals)
        assert raised.value is failure


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_failure_under_the_accumulation_lock_does_not_hang_the_other_workers(monkeypatch, workers):
    """A block that fails while it holds the lock releases it: the other workers finish, the caller gets the same
    exception, and no grid is returned."""
    failure = MemoryError("row block 128")
    held = []
    back_project_block = tomography._back_project_block

    def fail_under_the_lock(first, grid, groups, values, buffers, lock):
        if first != 2 * tomography.BLOCK_ROWS:
            return back_project_block(first, grid, groups, values, buffers, lock)

        class Grid(np.ndarray):
            def __getitem__(self, key):  # the block indexes the grid only to add its sum into it
                held.append(lock.locked())
                raise failure

        back_project_block(first, grid, groups, values.view(Grid), buffers, lock)

    monkeypatch.setattr(tomography, "_back_project_block", fail_under_the_lock)
    monkeypatch.setattr(tomography, "_worker_count", lambda n_blocks: workers)
    marginals = random_marginals(lattice(90), 513, seed=90)
    outcome = []

    def reconstruct():
        try:
            outcome.append(inverse_radon(marginals))
        except MemoryError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=reconstruct, daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), f"{workers} workers still running after 60 s"
    assert held == [True]
    assert len(outcome) == 1 and outcome[0] is failure


def test_inverse_radon_validations():
    with pytest.raises(TomographyError, match="angles"):
        inverse_radon(gaussian_marginals(n_angles=6))
    bad_grid = np.concatenate([np.linspace(-5, 0, 65), np.linspace(0.2, 5.2, 64)])
    with pytest.raises(TomographyError, match="uniform"):
        inverse_radon(MarginalSet(TWO_PI * np.arange(16) / 16, bad_grid, np.ones((16, 129))))
    with pytest.raises(TomographyError, match="cutoff"):
        inverse_radon(gaussian_marginals(), cutoff_fraction=0.0)


@pytest.mark.filterwarnings("error")
def test_inverse_radon_refuses_a_cutoff_that_passes_no_ramp_bin():
    """129 grid points pad to 1024 bins, and the Hann taper is 0 at the cutoff: a cutoff at or below 2 / 1024 of the
    Nyquist frequency passes the DC bin alone (its cutoff frequency subnormal at 1e-310, 0 at 5e-324), and twice that
    passes bin 1 at half weight."""
    marginals = gaussian_marginals()
    for cutoff in (2 / 1024, 1e-310, 5e-324):
        with pytest.raises(TomographyError, match=re.escape("cutoff_fraction must be in (2 / 1024, 1]")):
            inverse_radon(marginals, cutoff_fraction=cutoff)
    dz = marginals.z_grid_m[1] - marginals.z_grid_m[0]
    assert np.flatnonzero(tomography._ramp_filter(1024, dz, 1e-310)).tolist() == [0]
    ramp = tomography._ramp_filter(1024, dz, 4 / 1024)
    assert np.flatnonzero(ramp).tolist() == [0, 1] and ramp[1] == pytest.approx(0.5 / (1024 * dz))
    assert np.all(np.isfinite(inverse_radon(marginals, cutoff_fraction=4 / 1024).values))


GRID = np.linspace(-5.0, 5.0, 129)
ANGLES = TWO_PI * np.arange(16) / 16


@pytest.mark.parametrize(
    "angles, grid, densities, message",
    [
        (ANGLES[:7], GRID, np.ones((7, 129)), "at least 8 angles"),
        (np.append(ANGLES[:15], TWO_PI), GRID, np.ones((16, 129)), r"\[0, 2 pi\)"),
        (ANGLES, GRID**3, np.ones((16, 129)), "uniform"),
        (ANGLES, GRID, np.ones((16, 128)), "shape"),
        (ANGLES, GRID + 1e-3, np.ones((16, 129)), "symmetric about 0"),
    ],
    ids=["seven-angles", "angle-at-two-pi", "non-uniform-grid", "shape-mismatch", "asymmetric-grid"],
)
def test_marginal_set_is_valid_by_construction(angles, grid, densities, message):
    with pytest.raises(TomographyError, match=message):
        MarginalSet(angles, grid, densities)


def test_oracle_set_has_no_counts():
    oracle = oracle_marginals("thermal", ANGLES, GRID, sigma_m=1.0)
    assert oracle.counts_per_bin is None


@pytest.mark.parametrize("n_angles, n_z", [(720, 513), (91, 129), (13, 33)])
@pytest.mark.parametrize("kind", ["thermal", "fock1"])
def test_angle_independent_oracle_is_one_read_only_row(tmp_path, kind, n_angles, n_z):
    """The densities repeat one row through a read-only view. They equal, bit for bit, the row tiled once per angle
    with each row normalized on its own, and they save to the bytes of that contiguous array."""
    angles, grid = lattice(n_angles), np.linspace(-5.0, 5.0, n_z)
    if kind == "thermal":
        sigma = 1.3
        oracle = oracle_marginals(kind, angles, grid, sigma_m=sigma)
        row = np.exp(-(grid**2) / (2.0 * sigma**2)) / (math.sqrt(TWO_PI) * sigma)
    else:
        z_zpf = 1.0 / math.sqrt(2.0)
        oracle = oracle_marginals(kind, angles, grid, z_zpf_m=z_zpf)
        s = math.sqrt(2.0) * z_zpf
        u = grid / s
        row = (2.0 / math.sqrt(math.pi)) * u**2 * np.exp(-(u**2)) / s
    tiled = np.tile(row, (n_angles, 1))
    tiled = tiled / np.trapezoid(tiled, grid, axis=1)[:, None]
    assert oracle.densities.shape == tiled.shape and oracle.densities.strides[0] == 0
    assert oracle.densities.tobytes() == tiled.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        oracle.densities[0, 0] = 1.0
    save_marginals(oracle, tmp_path / "view.npy")
    save_marginals(MarginalSet(angles, grid, tiled), tmp_path / "copy.npy")
    assert (tmp_path / "view.npy").read_bytes() == (tmp_path / "copy.npy").read_bytes()


def test_saved_marginals_and_wigner_rebuild_bitwise(tmp_path):
    """The two array savers return the sidecar, and the array with the sidecar's axes rebuilds each set exactly."""
    marginals = random_marginals(np.linspace(0.0, TWO_PI, 13, endpoint=False), 33, seed=4)
    sidecar = save_marginals(marginals, tmp_path / "marginals.npy")
    assert sidecar == tmp_path / "marginals.json"
    info = json.loads(sidecar.read_text())
    back = MarginalSet(info["angles_rad"], info["z_grid_m"], np.load(tmp_path / "marginals.npy", allow_pickle=False))
    for name in ("angles_rad", "z_grid_m", "densities"):
        assert getattr(back, name).tobytes() == getattr(marginals, name).tobytes(), name

    wigner = inverse_radon(marginals)
    sidecar = save_wigner(wigner, tmp_path / "wigner.npy")
    assert sidecar == tmp_path / "wigner.json"
    axis = np.array(json.loads(sidecar.read_text())["axis_m"])
    assert axis.tobytes() == wigner.axis_m.tobytes()
    assert np.load(tmp_path / "wigner.npy", allow_pickle=False).tobytes() == wigner.values.tobytes()


# ---------------------------------------------------------------------------
# projection and analysis


def test_projection_of_isotropic_grid_matches_gaussian():
    w = analytic_gaussian_grid()
    proj = project_marginal(w, 0.0)
    expected = np.exp(-w.axis_m**2 / 2.0) / math.sqrt(TWO_PI)
    assert float(np.trapezoid(np.abs(proj - expected), w.axis_m)) < 0.01
    variance = float(np.trapezoid(proj * w.axis_m**2, w.axis_m) / np.trapezoid(proj, w.axis_m))
    assert variance == pytest.approx(1.0, rel=0.01)


def test_projection_rotation_invariant_on_isotropic_grid():
    w = analytic_gaussian_grid()
    reference = project_marginal(w, 0.0)
    for theta in (0.7, 2.0, 4.5):
        proj = project_marginal(w, theta)
        assert float(np.trapezoid(np.abs(proj - reference), w.axis_m)) < 1e-3


def test_projection_theta_range():
    with pytest.raises(TomographyError):
        project_marginal(analytic_gaussian_grid(), -0.1)


def test_round_trip_on_thermal_oracle():
    marginals = gaussian_marginals()
    w = inverse_radon(marginals)
    mu = np.exp(-w.axis_m**2 / 2.0) / math.sqrt(TWO_PI)
    for theta in marginals.angles_rad[::9]:
        proj = project_marginal(w, float(theta))
        assert float(np.trapezoid(np.abs(proj - mu), w.axis_m)) < 0.05


def test_analyze_on_exact_gaussian():
    report = analyze(analytic_gaussian_grid(span=5.0, n=201))
    assert report.total_integral == pytest.approx(1.0, abs=1e-3)
    assert report.negativity_volume < 1e-6
    assert report.gaussian_fit.r_squared > 0.9999
    assert report.gaussian_fit.mean_z == pytest.approx(0.0, abs=1e-12)
    assert report.gaussian_fit.cov_zz == pytest.approx(1.0, rel=1e-3)


def test_analyze_r_squared_does_not_overflow():
    """The residual sums are taken in units of the peak: a grid 1e160 times larger has the same finite r^2."""
    w = analytic_gaussian_grid(span=5.0, n=201)
    w.values[100, 100] *= 1.01  # a residual to measure
    report = analyze(w)
    scaled = analyze(WignerGrid(w.axis_m, w.values * 1e160))
    assert math.isfinite(scaled.gaussian_fit.r_squared)
    assert scaled.gaussian_fit.r_squared == pytest.approx(report.gaussian_fit.r_squared, rel=0, abs=1e-12)


def test_analyze_rejects_negative_variances():
    """A narrow peak on a wider negative ring has a positive integral and a positive covariance determinant, but
    negative variances: its moment Gaussian does not exist."""
    axis = np.linspace(-4.0, 4.0, 129)
    zz, pp = np.meshgrid(axis, axis, indexing="ij")
    r2 = zz**2 + pp**2
    values = np.exp(-r2 / 0.02) / (math.pi * 0.02) - 0.5 * r2 * np.exp(-r2) / math.pi
    with pytest.raises(TomographyError, match="positive definite"):
        analyze(WignerGrid(axis, values))


def test_analyze_fock1_negativity_matches_quadrature():
    report = analyze(analytic_fock1_grid(span=4.5, n=241))
    # independent oracle: radial quadrature of the negative lobe
    negative_mass, _ = quad(lambda r: (1 - 2 * r**2) * math.exp(-(r**2)) * 2 * r, 0.0, 1.0 / math.sqrt(2.0))
    assert report.negativity_volume == pytest.approx(negative_mass, rel=1e-3)
    assert report.min_value == pytest.approx(-1.0 / math.pi, rel=1e-3)


def shifted_anisotropic_grid(n=129, span=4.0):
    """A correlated Gaussian off the origin with a negative dip, so every moment and the negativity are nonzero."""
    axis = np.linspace(-span, span, n)
    zz, pp = np.meshgrid(axis, axis, indexing="ij")
    dz, dp = zz - 0.3, pp + 0.2
    values = np.exp(-(1.3 * dz**2 - 0.8 * dz * dp + 0.7 * dp**2)) - 0.05 * np.exp(-4.0 * (zz**2 + pp**2))
    return WignerGrid(axis_m=axis, values=values)


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(lambda: analytic_gaussian_grid(span=5.0, n=201), id="gaussian-201"),
        pytest.param(lambda: analytic_fock1_grid(span=4.5, n=241), id="fock1-241"),
        pytest.param(shifted_anisotropic_grid, id="anisotropic-129"),
        pytest.param(lambda: shifted_anisotropic_grid(n=513), id="anisotropic-513"),
        pytest.param(lambda: inverse_radon(random_marginals(lattice(90), 129, seed=3)), id="random-fbp"),
    ],
)
def test_analyze_equals_full_grid_formula(grid):
    """Integrating in blocks of rows reproduces the full-grid report field for field."""
    w = grid()
    assert asdict(analyze(w)) == asdict(reference_analyze(w))


def test_analyze_working_set_at_513():
    """The moments are integrated in blocks of rows; only the residual sums take a grid-sized array."""
    w = shifted_anisotropic_grid(n=513)
    assert _traced_peak(analyze, w) <= 3 * w.values.nbytes


def test_analyze_rejects_bad_grids():
    w = analytic_gaussian_grid()
    broken = WignerGrid(w.axis_m, w.values * np.nan)
    with pytest.raises(TomographyError):
        analyze(broken)
