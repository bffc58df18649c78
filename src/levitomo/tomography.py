"""Marginal sets, phase-binned or analytic, and their filtered back-projection.

Free harmonic evolution rotates phase space, so sampling the position at
oscillator phase theta = omega t mod 2pi measures the rotated quadrature
z cos(theta) + (p / m omega) sin(theta). Histogramming samples by phase yields
the marginals mu(z; theta); the Wigner function follows from the inverse Radon
transform, implemented as ramp-filtered back-projection:

  1. real FFT of each row along z (zero-padded against wrap-around);
  2. multiply by the half-spectrum of the ramp |nu|, apodized with a Hann
     window up to a cutoff;
  3. inverse real FFT. Steps 1-3 take rows whose padded points fill at most
     one block of output rows at a time, whatever the angle count;
  4. back-project with linear interpolation onto a square (z, p/m omega) grid,
     each angle weighted by pi / n_angles.

The angles are taken one dihedral group at a time: those whole quarter turns
from theta or from -theta, the eight-fold symmetry of back-projection on a
square grid (Kak & Slaney, Principles of Computerized Tomographic Imaging,
ch. 3). On the symmetric position grid the marginal at phi + pi is the mirror
image of phi's and is folded onto it before steps 1-3, so a group's up to
eight marginals become four filtered rows. theta's interpolation indices and
weights serve all four, which are gathered as two complex tables (see
``inverse_radon``). An angle without partners is a group of its own.
The output rows are back-projected BLOCK_ROWS at a time, each block by one of
as many workers as the process may use CPUs (no more than there are blocks,
and none with fewer than MIN_POINTS_PER_WORKER samples to interpolate); the
calling thread is one of them, and numpy releases the GIL in the gathers and
arithmetic. A block adds the groups in one order whatever thread sums it, so
the result is the same bit for bit on any number of CPUs.

The momentum axis is expressed in position-equivalent units p/(m omega_s) so
free evolution is literally a circular rotation of the grid. The zero-frequency
ramp coefficient is restored to its bin average (delta_nu / 4 instead of 0);
without it every filtered projection loses its constant mode and the total
integral of the reconstruction drifts. The output square is inscribed in the
marginal support (half-width z_max / sqrt(2)) so back-projection never reads
outside measured data. ``analyze`` integrates its moments BLOCK_ROWS grid rows
at a time as well. Besides the folded rows, at most the size of the marginals,
and their tables, a reconstruction holds the output grid and three complex row
blocks per thread, and its analysis one output-sized array. An oracle of a
state that does not depend on the angle (thermal, fock1) holds its marginals as
one row, which a read-only view repeats for every angle.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .constants import TWO_PI
from .dynamics import Trajectory
from .errors import ConfigError, TomographyError

MIN_ANGLES = 8
MIN_GRID_SIZE = 8  # output points per axis of a reconstruction
MIN_PERIODS = 50
DEFAULT_MIN_OCCUPANCY = 100
DEFAULT_GRID_POINTS = 129  # odd, symmetric about zero
DEFAULT_SPAN_SIGMAS = 5.0
PAD_FACTOR = 4
QUARTER_TURN = 0.5 * math.pi
ORBIT_TOLERANCE = 1e-9  # largest shift, in z bins, a group's shared indices may give a sample point
# rows per block: output rows per pass over all groups, grid rows per pass of analyze, and the points of a pass of the
# ramp filter's padded rows; not L2-sized at 513 points, where one complex block is 525 kB and a worker holds three
BLOCK_ROWS = 64
# interpolated samples (angles x output points) a back-projection worker must have to be worth its thread: measured
# on two CPUs (medians of 61 runs), a second worker costs more than it saves at 90 x 129 (1.5e6 samples: 13.5
# against 16.2 ms), breaks even near 90 x 225 (4.6e6: 25.1 against 24.8 ms), saves 19 % at 90 x 257 (5.9e6: 42
# against 34 ms, 11 runs) and 37 % at 720 x 513 (1.9e8: 0.51 against 0.32 s)
MIN_POINTS_PER_WORKER = 5_000_000


@dataclass(frozen=True, eq=False)
class MarginalSet:
    """Normalized quadrature densities indexed by oscillator phase: the one input of the reconstruction.

    Valid by construction: at least ``MIN_ANGLES`` angles, all in [0, 2 pi), a
    uniform strictly increasing position grid symmetric about 0 (the
    back-projection mirrors the projection at theta + pi onto theta), and one
    density row per angle. An oracle set's densities are a read-only view
    (``oracle_marginals``), one row repeated for every angle when the state
    does not depend on it; writing into them raises ``ValueError``.
    ``counts_per_bin`` is the raw occupancy of a binned set (for error bars)
    and ``None`` for analytic densities.
    """

    angles_rad: np.ndarray  # bin centers in [0, 2 pi)
    z_grid_m: np.ndarray  # uniform, strictly increasing, z[0] = -z[-1]
    densities: np.ndarray  # (n_angles, n_z), rows integrate to 1 (trapezoid)
    counts_per_bin: np.ndarray | None = None  # (n_angles, n_z) for binned sets

    def __post_init__(self):
        for name in ("angles_rad", "z_grid_m", "densities"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        check_angles(self.angles_rad.size)
        if np.any(self.angles_rad < 0) or np.any(self.angles_rad >= TWO_PI):
            raise TomographyError("angles must lie in [0, 2 pi)")
        _check_z_grid(self.z_grid_m)
        if self.angles_rad.ndim != 1 or self.densities.shape != (self.angles_rad.size, self.z_grid_m.size):
            raise TomographyError("angles must be 1-D and densities of shape (n_angles, n_z)")


def check_angles(n_angles: int, n_samples: int | None = None, error: type[Exception] = TomographyError) -> None:
    """Raise ``error`` unless there are at least ``MIN_ANGLES`` angles and, given the ``n_samples`` a record bins,
    samples enough to put ``DEFAULT_MIN_OCCUPANCY`` in every angle bin.

    The second is the pigeonhole bound of :func:`bin_marginals`' occupancy rule: a record below it leaves some bin
    short, and one that meets it can still do so, as its phases need not fall evenly on the bins.
    """
    if n_angles < MIN_ANGLES:
        raise error(f"need at least {MIN_ANGLES} angles, got n_angles = {n_angles!r}")
    if n_samples is not None and n_samples < n_angles * DEFAULT_MIN_OCCUPANCY:
        raise error(f"{n_samples} samples cannot put {DEFAULT_MIN_OCCUPANCY} in each of n_angles = {n_angles} bins")


def default_z_grid(samples, n_points: int = DEFAULT_GRID_POINTS, span_sigmas: float = DEFAULT_SPAN_SIGMAS):
    """Symmetric odd grid spanning +-span_sigmas sample standard deviations of an array or ``artifacts.Series``."""
    if n_points % 2 == 0:
        raise TomographyError(f"z grid length must be odd to contain 0, got {n_points}")
    scale = math.sqrt(artifacts.Series.of(samples).moments()[1])
    if scale <= 0:
        raise TomographyError("samples have zero spread; cannot build a position grid")
    return np.linspace(-span_sigmas * scale, span_sigmas * scale, n_points)


def bin_marginals(
    samples: Trajectory,
    omega_hat: float,
    n_angles: int,
    z_grid=None,
    *,
    min_occupancy: int = DEFAULT_MIN_OCCUPANCY,
) -> MarginalSet:
    """Assign each sample to the nearest phase bin and histogram on ``z_grid``.

    Phases are theta_i = omega_hat * t_i mod 2pi with bin centers at
    2 pi k / n_angles. An angle bin holding fewer than ``min_occupancy``
    samples is an error: its histogram is too noisy to reconstruct from, and an
    empty one leaves the reconstruction ill-posed. Samples outside the grid are
    dropped from the histograms. The samples are read in one pass, chunk by
    chunk, and the integer counts of the chunks are summed (the default grid
    takes one more pass for the spread).
    """
    if omega_hat <= 0:
        raise TomographyError(f"omega_hat must be positive, got {omega_hat!r}")
    check_angles(n_angles)
    n_periods = samples.duration_s * omega_hat / TWO_PI
    if n_periods < MIN_PERIODS:
        raise TomographyError(
            f"trajectory spans {n_periods:.1f} oscillation periods; need >= {MIN_PERIODS}"
        )
    if z_grid is None:
        z_grid = default_z_grid(samples.z_m)
    z_grid = np.asarray(z_grid, dtype=float)
    _check_z_grid(z_grid)

    bin_width = TWO_PI / n_angles
    dz = z_grid[1] - z_grid[0]
    edges = [np.arange(n_angles + 1) - 0.5, np.concatenate([z_grid - 0.5 * dz, [z_grid[-1] + 0.5 * dz]])]
    counts = np.zeros((n_angles, z_grid.size), dtype=np.int64)
    first = 0
    for z in samples.z_m.chunks():
        times = samples.t0_s + np.arange(first, first + z.size) / samples.sample_rate_Hz
        idx = np.rint((omega_hat * times) % TWO_PI / bin_width).astype(np.int64) % n_angles
        counts += np.histogram2d(idx, z, bins=edges)[0].astype(np.int64)
        first += z.size

    occupancy = counts.sum(axis=1)
    sparse = np.flatnonzero(occupancy < min_occupancy)
    if sparse.size:
        k = sparse[0]
        raise TomographyError(
            f"angle bin {k} (theta = {k * bin_width:.4f} rad) is under-sampled:"
            f" it holds {occupancy[k]} samples, fewer than min_occupancy = {min_occupancy}"
        )
    raw = counts / (occupancy[:, None] * dz)
    norms = np.trapezoid(raw, z_grid, axis=1)
    densities = raw / norms[:, None]
    return MarginalSet(
        angles_rad=bin_width * np.arange(n_angles),
        z_grid_m=z_grid,
        densities=densities,
        counts_per_bin=counts,
    )


def oracle_marginals(
    state_kind: str,
    angles_rad,
    z_grid_m,
    *,
    sigma_m: float | None = None,
    amplitude_m: float | None = None,
    phase_rad: float = 0.0,
    z_zpf_m: float | None = None,
) -> MarginalSet:
    """Closed-form marginals mu(z; theta) of three reference states, for reconstruction validation.

    thermal   angle-independent Gaussian, variance ``sigma_m**2``
              (pass sigma_m = sqrt(k_B T / m omega_s^2));
    coherent  Gaussian of ground-state width ``z_zpf_m`` centered on the
              ridge amplitude*cos(theta + phase);
    fock1     angle-independent first-excited-state density
              (2/sqrt(pi)) u^2 exp(-u^2) / s with u = z/s, s = sqrt(2) z_zpf.

    Each row is renormalized to unit trapezoid integral on the given grid, so
    grid truncation cannot break normalization. The densities are a read-only
    view of the rows, so writing into them raises ``ValueError``: an
    angle-independent state is built and normalized as one row, which the view
    repeats for every angle, and coherent as one row per angle.
    """
    angles = np.asarray(angles_rad, dtype=float)
    grid = np.asarray(z_grid_m, dtype=float)
    z = grid[None, :]
    if state_kind == "thermal":
        if sigma_m is None or sigma_m <= 0:
            raise ConfigError("thermal marginals need sigma_m > 0")
        rows = np.exp(-(z**2) / (2.0 * sigma_m**2)) / (math.sqrt(TWO_PI) * sigma_m)
    elif state_kind == "coherent":
        if amplitude_m is None or amplitude_m < 0:
            raise ConfigError("coherent marginals need amplitude_m >= 0")
        if z_zpf_m is None or z_zpf_m <= 0:
            raise ConfigError("coherent marginals need z_zpf_m > 0")
        centers = amplitude_m * np.cos(angles + phase_rad)
        rows = np.exp(-((z - centers[:, None]) ** 2) / (2.0 * z_zpf_m**2)) / (math.sqrt(TWO_PI) * z_zpf_m)
    elif state_kind == "fock1":
        if z_zpf_m is None or z_zpf_m <= 0:
            raise ConfigError("fock1 marginals need z_zpf_m > 0")
        s = math.sqrt(2.0) * z_zpf_m
        u = z / s
        rows = (2.0 / math.sqrt(math.pi)) * u**2 * np.exp(-(u**2)) / s
    else:
        raise ConfigError(f"unknown state_kind {state_kind!r} (expected thermal | coherent | fock1)")

    norms = np.trapezoid(rows, grid, axis=1)
    if np.any(norms <= 0):
        raise ConfigError("z_grid_m does not cover the state; zero density mass on the grid")
    densities = np.broadcast_to(rows / norms[:, None], (angles.size, grid.size))
    return MarginalSet(angles_rad=angles, z_grid_m=grid, densities=densities)


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Reconstructed quasi-probability on a square phase-space grid with one axis.

    ``values[i, j]`` is W at (z, p) = (axis_m[i], axis_m[j]); the momentum is
    in position-equivalent units p/(m omega_s), meters, so z and p share the
    axis and its step.
    """

    axis_m: np.ndarray
    values: np.ndarray


def _check_z_grid(grid: np.ndarray) -> None:
    if grid.ndim != 1 or grid.size < 3:
        raise TomographyError("position grid must be 1-D with at least 3 points")
    steps = np.diff(grid)
    if np.any(steps <= 0) or (steps.max() - steps.min()) > 1e-9 * steps.mean():
        raise TomographyError("position grid must be uniform and strictly increasing")
    if abs(grid[0] + grid[-1]) > 1e-9 * steps.mean():
        raise TomographyError(
            f"position grid must be symmetric about 0, but z[0] + z[-1] = {grid[0] + grid[-1]:.6g}"
        )


def _fft_length(n_z: int) -> int:
    """The padded length of the ramp filter's transforms of ``n_z``-point rows: the power of two at or above
    ``PAD_FACTOR * n_z``."""
    return 1 << int(math.ceil(math.log2(PAD_FACTOR * n_z)))


def check_cutoff(cutoff_fraction: float, n_z: int, error: type[Exception] = TomographyError) -> None:
    """Raise ``error`` unless ``cutoff_fraction`` lies in (2 / n_fft, 1], with n_fft the padded length of a grid of
    ``n_z`` points.

    The Hann taper is 0 at the cutoff, so the first ramp bin above DC, at 1 / (n_fft dz), passes only when the cutoff,
    ``cutoff_fraction`` times the Nyquist frequency 1 / (2 dz), lies above it; a lower cutoff passes the DC bin alone,
    or underflows to 0 and passes nothing.
    """
    n_fft = _fft_length(n_z)
    if not 2.0 / n_fft < cutoff_fraction <= 1.0:
        raise error(
            f"cutoff_fraction must be in (2 / {n_fft}, 1] for {n_z} grid points padded to {n_fft}, so that the ramp"
            f" filter passes a bin above DC; got {cutoff_fraction!r}"
        )


def _ramp_filter(n_fft: int, dz: float, cutoff_fraction: float) -> np.ndarray:
    """Half-spectrum (``rfft`` bins) of the Hann-apodized ramp |nu|, DC bin restored to its bin mean.

    The discrete DC coefficient should carry the average of |nu| over the first
    frequency bin, delta_nu / 4, not zero; this keeps each filtered projection's
    constant mode and pins the total integral of the reconstruction.
    """
    nu = np.fft.rfftfreq(n_fft, d=dz)
    nyquist = 0.5 / dz
    cutoff = cutoff_fraction * nyquist
    ramp = nu.copy()
    ramp[0] = 0.25 / (n_fft * dz)
    taper = nu[nu <= cutoff]  # the leading bins, as rfftfreq ascends; beyond them nu / cutoff may overflow
    return ramp * np.pad(0.5 * (1.0 + np.cos(math.pi * taper / cutoff)), (0, nu.size - taper.size))


def filtered_projections(rows: np.ndarray, dz: float, cutoff_fraction: float = 1.0) -> np.ndarray:
    """Ramp-filter every row of densities on a z grid of step ``dz`` (steps 1-3 of the reconstruction); a new array.

    The result is C-contiguous whatever the layout of ``rows``, a Fortran
    array or a broadcast view included. The padded transforms take at least
    one row and at most ``BLOCK_ROWS * n_z`` points at a time. The FFT
    transforms each row on its own, so the result equals the one-shot
    transform of all rows bit for bit.
    """
    n_z = rows.shape[1]
    n_fft = _fft_length(n_z)
    ramp = _ramp_filter(n_fft, dz, cutoff_fraction)
    filtered = np.empty(rows.shape)
    n_block = max(1, BLOCK_ROWS * n_z // n_fft)
    for first in range(0, rows.shape[0], n_block):
        block = slice(first, first + n_block)
        spectra = np.fft.rfft(rows[block], n=n_fft, axis=1)
        spectra *= ramp
        filtered[block] = np.fft.irfft(spectra, n=n_fft, axis=1)[:, :n_z]
    return filtered


def _dihedral_groups(angles: np.ndarray, tolerance: float) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Group the angles so that each member lies whole quarter turns from its group's theta or from -theta, to within
    ``tolerance``.

    Returns ``(theta, members, quarters, mirrored)`` per group: ``members``
    index ``angles``, ``theta`` is the angle of the first one, and
    ``members[k]`` lies ``quarters[k]`` (0 to 3) quarter turns beyond -theta
    where ``mirrored[k]``, else beyond theta; a member that is both (theta on
    a multiple of pi/4) counts as direct. An angle with no partner is a group
    of its own.
    """
    residues = np.mod(angles, QUARTER_TURN)
    # theta and -theta share this key: a residue and the quarter turn less it
    keys = np.minimum(residues, QUARTER_TURN - residues)
    indices: list[list[int]] = []
    start = -math.inf
    for i in np.argsort(keys, kind="stable"):
        if keys[i] - start > tolerance:
            start = keys[i]
            indices.append([])
        indices[-1].append(i)
    groups = []
    for group in indices:
        members = np.array(group)
        theta = float(angles[members[0]])
        direct = (angles[members] - theta) / QUARTER_TURN
        mirror = (angles[members] + theta) / QUARTER_TURN
        mirrored = np.abs(mirror - np.rint(mirror)) < np.abs(direct - np.rint(direct))
        quarters = np.rint(np.where(mirrored, mirror, direct)).astype(np.int64) % 4
        groups.append((theta, members, quarters, mirrored))
    return groups


def _worker_count(points: int) -> int:
    """Workers that back-project ``points`` interpolated samples: one per CPU this process may run on, and one per
    ``MIN_POINTS_PER_WORKER`` samples; below that the calling thread works alone."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, points // MIN_POINTS_PER_WORKER))


def _back_project_block(first: int, grid: tuple, groups: list, values: np.ndarray, buffers: tuple, lock) -> None:
    """Sum every group, in order, over output rows ``first`` to ``first + BLOCK_ROWS``, then add the sum into the grid.

    ``grid`` is the output axis, z[-1] and the z step, from which the block's
    sample points are worked out; ``buffers`` are the ``(BLOCK_ROWS, n_z)``
    arrays the points, their z indices, one gathered row, the complex sum G and
    the mirrored tables' sum (added with its columns reversed after the last
    group) are written into, and the ``(2, n_z + 1)`` slope rows of a group,
    0 from column n_z - 1 on. Every index lies in [0, n_z], an out-of-grid
    point sent to the tables' trailing 0, so the gathers clip nothing. Holding
    ``lock``, G.real is added into the block's rows of ``values`` and G.imag,
    turned by np.rot90 (rot90(G)[i, j] = G[j, n - 1 - i]), into its columns.
    """
    axis, z_max, dz = grid
    n_z = axis.size
    block = slice(first, first + BLOCK_ROWS)
    n_rows = min(BLOCK_ROWS, n_z - first)
    u, index, gathered, part, mirrored_sum = (buffer[:n_rows] for buffer in buffers[:5])
    slopes = buffers[5]
    part.fill(0.0)
    mirrored_sum.fill(0.0)
    for cos, sin, off_grid, tables, mirrored in groups:
        # s = z cos(theta) + p sin(theta) on the grid as a fractional z index: u[i, j] = a[i] + b[j]
        np.add(((axis[block] * cos + z_max) / dz)[:, None], axis * sin / dz, out=u)
        np.copyto(index, u, casting="unsafe")
        if off_grid:
            index[(u < 0.0) | (u > n_z - 1)] = n_z
        u -= index
        for table, slope, target in zip(tables, slopes, (part, mirrored_sum)[: 1 + mirrored]):
            np.subtract(table[1:n_z], table[: n_z - 1], out=slope[: n_z - 1])
            target += np.take(table, index, out=gathered, mode="clip")
            np.take(slope, index, out=gathered, mode="clip")
            gathered *= u
            target += gathered
    part += mirrored_sum[:, ::-1]
    with lock:
        values[block] += part.real
        values[::-1, block] += part.imag.T


def inverse_radon(marginals: MarginalSet, *, cutoff_fraction: float = 1.0) -> WignerGrid:
    """Filtered back-projection of the marginals onto a square phase-space grid.

    Angle bins may cover [0, 2 pi); diametrically opposed bins carry mirrored
    copies of the same projection and are all used with weight pi / n_angles.
    ``cutoff_fraction`` scales the ramp-filter cutoff relative to the grid
    Nyquist frequency; lower it, above the floor :func:`check_cutoff` sets, to
    suppress histogram noise. The output square is inscribed in the marginal
    support (half-width z[-1] / sqrt(2)), with as many points per axis as the
    position grid.

    The angles are back-projected one dihedral group at a time: theta and
    -theta, each plus whole quarter turns, share one set of interpolation
    indices and weights. The position grid is symmetric about 0 (a
    ``MarginalSet`` invariant), so the projection at phi + pi samples s -> -s
    and folds onto phi's row reversed. The folding is done on the densities,
    before the ramp filter, which is real, linear and even: a group's four
    folded rows (theta, theta + pi/2, -theta, -theta + pi/2) are filtered in
    place of its up to eight marginals. The output axis is symmetric too, so
    s_{theta + pi/2}[i, j] = s_theta[j, n - 1 - i] and
    s_{-theta}[i, j] = s_theta[i, n - 1 - j]. Each group has two complex
    tables, for theta and for -theta, whose real part is the row of the angle
    and whose imaginary part is the row a quarter turn on. Both are gathered
    with theta's indices into a complex sum per block of output rows, the
    table of -theta with its columns reversed, and the grid is the real part
    plus the imaginary part turned by np.rot90: each block adds both into a
    grid of -0.0, and -0.0 + x is x, so each element is the sum of its two
    terms whichever block comes first. Angles join a group when they lie
    whole quarter turns from theta or -theta to within an angle that moves no
    sample point by more than ``ORBIT_TOLERANCE`` of a z bin; any angle set,
    of any size, goes this one way. Each ``BLOCK_ROWS`` block of output rows
    is summed by one worker, the calling thread or a thread of its own; an
    exception in a worker is raised here, and no grid is returned.
    """
    z_grid = marginals.z_grid_m
    n_z = z_grid.size
    check_cutoff(cutoff_fraction, n_z)
    if n_z < MIN_GRID_SIZE:
        raise TomographyError(f"output grid must have at least {MIN_GRID_SIZE} points per axis")

    z_max = float(z_grid[-1])
    dz = 2.0 * z_max / (n_z - 1)
    axis = np.linspace(-z_max / math.sqrt(2.0), z_max / math.sqrt(2.0), n_z)
    angles = marginals.angles_rad
    groups = _dihedral_groups(angles, ORBIT_TOLERANCE * dz / z_max)
    # row 4 g + 2 m + h of the folded densities: group g's theta (m = 0) or -theta (m = 1), plus h quarter turns
    folded = np.zeros((4 * len(groups), n_z))
    for g, (_, members, quarters, mirrored) in enumerate(groups):
        for k, q, m in zip(members, quarters, mirrored):
            folded[4 * g + 2 * m + q % 2] += marginals.densities[k] if q < 2 else marginals.densities[k, ::-1]
    filtered = filtered_projections(folded, z_grid[1] - z_grid[0], cutoff_fraction).reshape(len(groups), 2, 2, n_z)
    del folded
    # tables[g, m]: row of theta (m = 0) or -theta (m = 1) + i (row a quarter turn on), then the off-grid 0
    tables = np.zeros((len(groups), 2, n_z + 1), dtype=complex)
    tables.real[..., :n_z] = filtered[:, :, 0]
    tables.imag[..., :n_z] = filtered[:, :, 1]
    del filtered
    work_list = []
    for g, (theta, _, _, mirrored) in enumerate(groups):
        a = (axis * math.cos(theta) + z_max) / dz
        b = axis * math.sin(theta) / dz
        off_grid = a.min() + b.min() < 0.0 or a.max() + b.max() > n_z - 1  # by rounding at most
        work_list.append((math.cos(theta), math.sin(theta), off_grid, tables[g], bool(mirrored.any())))
    values = np.full((n_z, n_z), -0.0)
    lock = threading.Lock()
    workers = min(-(-n_z // BLOCK_ROWS), _worker_count(angles.size * n_z * n_z))  # at most one per row block
    # each worker's u, index, gathered row, block sum, mirrored sum and slope rows, allocated once here and reused
    # for every row block it sums; a worker thread still gets a malloc arena of its own, from its per-block temporaries
    buffers = [
        (
            np.empty((BLOCK_ROWS, n_z)),
            np.empty((BLOCK_ROWS, n_z), dtype=np.intp),
            *np.empty((3, BLOCK_ROWS, n_z), dtype=complex),
            np.zeros((2, n_z + 1), dtype=complex),
        )
        for _ in range(workers)
    ]
    errors = []

    def work(k):
        try:
            for first in range(k * BLOCK_ROWS, n_z, workers * BLOCK_ROWS):
                _back_project_block(first, (axis, z_max, dz), work_list, values, buffers[k], lock)
        except BaseException as exc:  # re-raised by the caller, so no partial grid is returned
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)  # the calling thread is worker 0
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    values *= math.pi / angles.size
    return WignerGrid(axis_m=axis, values=values)


@dataclass(frozen=True)
class GaussianMomentFit:
    mean_z: float
    mean_p: float
    cov_zz: float
    cov_pp: float
    cov_zp: float
    r_squared: float


@dataclass(frozen=True)
class WignerReport:
    total_integral: float
    min_value: float
    negativity_volume: float  # integral of max(0, -W)
    abs_volume: float  # integral of |W|
    gaussian_fit: GaussianMomentFit


def _row_integrals(values: np.ndarray, axis: np.ndarray, integrands) -> list[float]:
    """Nested trapezoid over (z, p) of each ``integrand(v, z)``, evaluated ``BLOCK_ROWS`` rows of z at a time.

    ``v`` is a block of rows of ``values`` and ``z`` its z values as a column.
    Each row is integrated over p on its own, then the row integrals over z,
    so the result equals the integral of the full-grid integrand bit for bit.
    """
    inner = np.empty((len(integrands), axis.size))
    for first in range(0, axis.size, BLOCK_ROWS):
        block = slice(first, first + BLOCK_ROWS)
        v, z = values[block], axis[block, None]
        for k, integrand in enumerate(integrands):
            inner[k, block] = np.trapezoid(integrand(v, z), axis, axis=1)
    return [float(np.trapezoid(row, axis)) for row in inner]


def analyze(w: WignerGrid) -> WignerReport:
    """Normalization, negativity and moment-matched Gaussian fit of a grid.

    The Gaussian surface is built from the grid's first and second moments and
    r^2 measures how much of the grid's variance that surface explains. The
    moments are integrated ``BLOCK_ROWS`` rows at a time; the residual sums
    take one grid-sized array, and are taken over values divided by the peak
    |W|. A covariance that is not positive definite is an error.
    """
    values = w.values
    if not np.all(np.isfinite(values)):
        raise TomographyError("Wigner grid contains non-finite values")
    axis = w.axis_m
    total, int_z, int_p, negativity, abs_volume = _row_integrals(
        values,
        axis,
        (
            lambda v, z: v,
            lambda v, z: v * z,
            lambda v, z: v * axis,
            lambda v, z: np.maximum(0.0, -v),
            lambda v, z: np.abs(v),
        ),
    )
    if total <= 0:
        raise TomographyError("Wigner grid has non-positive total integral; cannot fit moments")
    mean_z = int_z / total
    mean_p = int_p / total
    dp_c = axis - mean_p
    int_zz, int_pp, int_zp = _row_integrals(
        values,
        axis,
        (
            lambda v, z: v * (z - mean_z) ** 2,
            lambda v, z: v * dp_c**2,
            lambda v, z: v * (z - mean_z) * dp_c,
        ),
    )
    cov_zz = int_zz / total
    cov_pp = int_pp / total
    cov_zp = int_zp / total
    det = cov_zz * cov_pp - cov_zp**2
    if cov_zz <= 0 or det <= 0:
        raise TomographyError("moment covariance is not positive definite")
    inv_zz, inv_pp, inv_zp = cov_pp / det, cov_zz / det, -cov_zp / det
    dz_c = axis - mean_z
    # the surface in one grid-sized array, by the full-grid formula's operations in its order (a + b is b + a
    # exactly), so r^2 does not depend on how the moments were integrated
    gauss = (2.0 * inv_zp * dz_c)[:, None] * dp_c
    gauss += (inv_zz * dz_c**2)[:, None]
    gauss += inv_pp * dp_c**2
    gauss *= -0.5
    np.exp(gauss, out=gauss)
    gauss *= total / (TWO_PI * math.sqrt(det))
    # both sums in units of the peak |W|, so no square overflows whatever the grid's unit
    peak = float(np.max(np.abs(values)))
    residual = np.subtract(values, gauss, out=gauss)
    residual /= peak
    residual **= 2
    ss_res = float(np.sum(residual))
    residual = np.subtract(values, values.mean(), out=residual)
    residual /= peak
    residual **= 2
    ss_tot = float(np.sum(residual))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return WignerReport(
        total_integral=total,
        min_value=float(values.min()),
        negativity_volume=negativity,
        abs_volume=abs_volume,
        gaussian_fit=GaussianMomentFit(
            mean_z=mean_z,
            mean_p=mean_p,
            cov_zz=cov_zz,
            cov_pp=cov_pp,
            cov_zp=cov_zp,
            r_squared=r_squared,
        ),
    )


def save_marginals(marginals: MarginalSet, path: str | Path) -> Path:
    """Write the ``(n_angles, n_z)`` densities as a float64 ``.npy`` array and return its JSON sidecar.

    Row ``k`` is the density at ``angles_rad[k]`` on ``z_grid_m``; the sidecar holds both axes.
    """
    info = {"angles_rad": marginals.angles_rad.tolist(), "z_grid_m": marginals.z_grid_m.tolist()}
    return artifacts.write_array(path, marginals.densities, info)


def save_wigner(w: WignerGrid, path: str | Path) -> Path:
    """Write ``values`` as a float64 ``.npy`` array and return its JSON sidecar.

    ``values[i, j]`` is W at (``axis_m[i]``, ``axis_m[j]``), rows z and
    columns p/(m omega); the sidecar holds the axis.
    """
    return artifacts.write_array(path, w.values, {"axis_m": w.axis_m.tolist()})


def save_report(report: WignerReport, path: str | Path) -> None:
    artifacts.write_json(path, asdict(report))
