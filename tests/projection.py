"""Forward projection of a reconstructed Wigner grid, for round-trip checks in the tests, and the
per-angle filtered back-projection that the tests check ``tomography.inverse_radon`` against."""

import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from levitomo.constants import TWO_PI
from levitomo.errors import TomographyError
from levitomo.tomography import PAD_FACTOR, MarginalSet, WignerGrid


def project_marginal(w: WignerGrid, theta: float) -> np.ndarray:
    """Line-integral projection of the grid onto the theta quadrature.

    Rotates the grid by theta and integrates along the conjugate axis with the
    trapezoid rule and bilinear interpolation (zero outside the grid). Returns
    the density over ``w.axis_m``.
    """
    if not 0.0 <= theta < TWO_PI:
        raise TomographyError(f"theta must lie in [0, 2 pi), got {theta!r}")
    axis = w.axis_m
    interp = RegularGridInterpolator((axis, axis), w.values, method="linear", bounds_error=False, fill_value=0.0)
    ss, uu = np.meshgrid(axis, axis, indexing="ij")
    x = ss * math.cos(theta) - uu * math.sin(theta)
    y = ss * math.sin(theta) + uu * math.cos(theta)
    sheet = interp(np.stack([x.ravel(), y.ravel()], axis=1)).reshape(ss.shape)
    return np.trapezoid(sheet, axis, axis=1)


def reference_filtered_projections(marginals: MarginalSet, cutoff_fraction: float = 1.0) -> np.ndarray:
    """Ramp filter by complex FFT over the full spectrum, zero-padded to ``PAD_FACTOR`` times the grid."""
    dens = marginals.densities
    n_z = dens.shape[1]
    dz = marginals.z_grid_m[1] - marginals.z_grid_m[0]
    n_fft = 1 << int(math.ceil(math.log2(PAD_FACTOR * n_z)))
    nu = np.fft.fftfreq(n_fft, d=dz)
    cutoff = cutoff_fraction * 0.5 / dz
    ramp = np.abs(nu)
    ramp[0] = 0.25 / (n_fft * dz)
    window = np.where(np.abs(nu) <= cutoff, 0.5 * (1.0 + np.cos(math.pi * nu / cutoff)), 0.0)
    padded = np.zeros((dens.shape[0], n_fft))
    padded[:, :n_z] = dens
    spectra = np.fft.fft(padded, axis=1) * (ramp * window)[None, :]
    return np.real(np.fft.ifft(spectra, axis=1))[:, :n_z]


def reference_inverse_radon(
    marginals: MarginalSet,
    grid_size: int | None = None,
    *,
    cutoff_fraction: float = 1.0,
) -> WignerGrid:
    """Filtered back-projection one angle at a time, each by ``np.interp`` (zero outside the z grid)."""
    z_grid = marginals.z_grid_m
    if grid_size is None:
        grid_size = z_grid.size
    filtered = reference_filtered_projections(marginals, cutoff_fraction)
    half_width = float(min(abs(z_grid[0]), z_grid[-1])) / math.sqrt(2.0)
    axis = np.linspace(-half_width, half_width, grid_size)
    zz, pp = np.meshgrid(axis, axis, indexing="ij")
    values = np.zeros_like(zz)
    for j, theta in enumerate(marginals.angles_rad):
        s = zz * math.cos(theta) + pp * math.sin(theta)
        values += np.interp(s, z_grid, filtered[j], left=0.0, right=0.0)
    values *= math.pi / marginals.angles_rad.size
    return WignerGrid(axis_m=axis, values=values)
