"""Forward projection of a reconstructed Wigner grid, for round-trip checks in the tests."""

import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from levitomo.constants import TWO_PI
from levitomo.errors import TomographyError
from levitomo.tomography import WignerGrid


def project_marginal(w: WignerGrid, theta: float) -> np.ndarray:
    """Line-integral projection of the grid onto the theta quadrature.

    Rotates the grid by theta and integrates along the conjugate axis with the
    trapezoid rule and bilinear interpolation (zero outside the grid). Returns
    the density over ``w.z_grid_m``.
    """
    if not 0.0 <= theta < TWO_PI:
        raise TomographyError(f"theta must lie in [0, 2 pi), got {theta!r}")
    interp = RegularGridInterpolator(
        (w.z_grid_m, w.p_grid), w.values, method="linear", bounds_error=False, fill_value=0.0
    )
    s_axis = w.z_grid_m
    u_axis = w.p_grid
    ss, uu = np.meshgrid(s_axis, u_axis, indexing="ij")
    x = ss * math.cos(theta) - uu * math.sin(theta)
    y = ss * math.sin(theta) + uu * math.cos(theta)
    sheet = interp(np.stack([x.ravel(), y.ravel()], axis=1)).reshape(ss.shape)
    return np.trapezoid(sheet, u_axis, axis=1)
