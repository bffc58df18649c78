"""Forward projection of a reconstructed Wigner grid, for round-trip checks in the tests, and the
references the tests check ``tomography`` against: the per-angle filtered back-projection, the
one-shot ramp filter and the full-grid moment analysis."""

import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from levitomo.constants import TWO_PI
from levitomo.errors import TomographyError
from levitomo.tomography import (
    PAD_FACTOR,
    GaussianMomentFit,
    MarginalSet,
    WignerGrid,
    WignerReport,
    _ramp_filter,
)


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


def oneshot_filtered_projections(marginals: MarginalSet, cutoff_fraction: float = 1.0) -> np.ndarray:
    """Ramp filter by one batched real FFT of every marginal row at once, zero-padded as the package pads."""
    dens = marginals.densities
    n_z = dens.shape[1]
    dz = marginals.z_grid_m[1] - marginals.z_grid_m[0]
    n_fft = 1 << int(math.ceil(math.log2(PAD_FACTOR * n_z)))
    spectra = np.fft.rfft(dens, n=n_fft, axis=1)
    spectra *= _ramp_filter(n_fft, dz, cutoff_fraction)
    return np.fft.irfft(spectra, n=n_fft, axis=1)[:, :n_z].copy()


def reference_inverse_radon(marginals: MarginalSet, *, cutoff_fraction: float = 1.0) -> WignerGrid:
    """Filtered back-projection one angle at a time, each by ``np.interp`` (zero outside the z grid)."""
    z_grid = marginals.z_grid_m
    filtered = reference_filtered_projections(marginals, cutoff_fraction)
    half_width = float(min(abs(z_grid[0]), z_grid[-1])) / math.sqrt(2.0)
    axis = np.linspace(-half_width, half_width, z_grid.size)
    zz, pp = np.meshgrid(axis, axis, indexing="ij")
    values = np.zeros_like(zz)
    for j, theta in enumerate(marginals.angles_rad):
        s = zz * math.cos(theta) + pp * math.sin(theta)
        values += np.interp(s, z_grid, filtered[j], left=0.0, right=0.0)
    values *= math.pi / marginals.angles_rad.size
    return WignerGrid(axis_m=axis, values=values)


def _trapz2d(values: np.ndarray, axis: np.ndarray) -> float:
    return float(np.trapezoid(np.trapezoid(values, axis, axis=1), axis))


def reference_analyze(w: WignerGrid) -> WignerReport:
    """``tomography.analyze``'s report from full-grid integrands on a meshgrid, with no checks."""
    values, axis = w.values, w.axis_m
    total = _trapz2d(values, axis)
    zz, pp = np.meshgrid(axis, axis, indexing="ij")
    mean_z = _trapz2d(values * zz, axis) / total
    mean_p = _trapz2d(values * pp, axis) / total
    dz_c, dp_c = zz - mean_z, pp - mean_p
    cov_zz = _trapz2d(values * dz_c**2, axis) / total
    cov_pp = _trapz2d(values * dp_c**2, axis) / total
    cov_zp = _trapz2d(values * dz_c * dp_c, axis) / total
    det = cov_zz * cov_pp - cov_zp**2
    inv_zz, inv_pp, inv_zp = cov_pp / det, cov_zz / det, -cov_zp / det
    gauss = (
        total
        / (TWO_PI * math.sqrt(det))
        * np.exp(-0.5 * (inv_zz * dz_c**2 + 2.0 * inv_zp * dz_c * dp_c + inv_pp * dp_c**2))
    )
    peak = float(np.max(np.abs(values)))
    ss_res = float(np.sum(((values - gauss) / peak) ** 2))
    ss_tot = float(np.sum(((values - values.mean()) / peak) ** 2))
    return WignerReport(
        total_integral=total,
        min_value=float(values.min()),
        negativity_volume=_trapz2d(np.maximum(0.0, -values), axis),
        abs_volume=_trapz2d(np.abs(values), axis),
        gaussian_fit=GaussianMomentFit(
            mean_z=mean_z,
            mean_p=mean_p,
            cov_zz=cov_zz,
            cov_pp=cov_pp,
            cov_zp=cov_zp,
            r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0,
        ),
    )
