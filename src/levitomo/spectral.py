"""Welch spectral estimation and damped-oscillator line fitting.

The fitted model is the steady-state displacement spectrum of a damped
harmonic oscillator plus a white floor,

    S(f) = A / ((omega^2 - omega0^2)^2 + xi^2 omega^2) + floor,  omega = 2 pi f,

so the linewidth parameter xi maps directly onto the mechanical damping rate
and A onto the thermal drive (A = 4 k_B T xi / m for a displacement spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import KB, TWO_PI
from .errors import SpectralError

MIN_SEGMENTS = 4
MIN_SEGMENT_LEN = 8
PEAK_OVER_MEDIAN = 5.0  # a real line must poke this far above the in-window median


@dataclass(frozen=True, eq=False)
class Psd:
    """One-sided power spectral density (signal units squared per Hz).

    The DC bin is dropped: the estimator detrends each segment, and fits must
    never see the zero-frequency bin.
    """

    freqs_Hz: np.ndarray
    power: np.ndarray
    n_segments: int
    segment_len: int


def estimate_psd(samples, sample_rate_Hz: float, segment_len: int, overlap_fraction: float = 0.5) -> Psd:
    """Welch-averaged one-sided periodogram with a Hann window.

    ``segment_len`` must be a power of two and small enough for at least four
    (overlapping) segments.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise SpectralError("samples must be 1-D")
    if segment_len < MIN_SEGMENT_LEN or segment_len & (segment_len - 1):
        raise SpectralError(f"segment_len must be a power of two >= {MIN_SEGMENT_LEN}, got {segment_len}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise SpectralError("overlap_fraction must be in [0, 1)")
    noverlap = int(segment_len * overlap_fraction)
    step = segment_len - noverlap
    n_segments = 0 if x.size < segment_len else 1 + (x.size - segment_len) // step
    if n_segments < MIN_SEGMENTS:
        required = segment_len + (MIN_SEGMENTS - 1) * step
        raise SpectralError(
            f"{x.size} samples give {n_segments} segments of {segment_len};"
            f" need at least {required} samples for {MIN_SEGMENTS} segments"
        )
    from scipy.signal import welch

    freqs, power = welch(
        x,
        fs=sample_rate_Hz,
        window="hann",
        nperseg=segment_len,
        noverlap=noverlap,
        detrend="constant",
        scaling="density",
    )
    return Psd(
        freqs_Hz=freqs[1:],
        power=power[1:],
        n_segments=n_segments,
        segment_len=segment_len,
    )


@dataclass(frozen=True, eq=False)
class LorentzianFit:
    omega0_rad_s: float
    linewidth_rad_s: float
    amplitude: float
    noise_floor: float
    residual_rms: float  # rms of the deviance residuals (relative-error scale)
    covariance: np.ndarray  # 4x4, parameter order (omega0, xi, amplitude, floor)


def _oscillator_psd(freqs_Hz: np.ndarray, omega0: float, xi: float, amplitude: float, floor: float):
    omega = TWO_PI * freqs_Hz
    return amplitude / ((omega**2 - omega0**2) ** 2 + (xi * omega) ** 2) + floor


def fit_lorentzian(psd: Psd, guess_window: tuple[float, float]) -> LorentzianFit:
    """Least-squares oscillator-line fit over (omega0, xi, amplitude, floor).

    ``guess_window`` is a (f_lo, f_hi) band in Hz that must contain the peak.
    Initial guesses come from the peak location, its half-power width, the peak
    height and the median off-peak power; the refinement runs
    Levenberg-Marquardt on Whittle (gamma) deviance residuals,
    sign(d - m) sqrt(2 (d/m - ln(d/m) - 1)). Averaged periodogram bins are
    chi-squared distributed, and this objective is their maximum likelihood:
    weighting plain residuals by the noisy data instead biases the fitted
    floor low by ~4/dof. The residuals depend on d/m only, so the fit is
    exactly equivariant under rescaling of the input signal.
    """
    f_lo, f_hi = guess_window
    in_window = (psd.freqs_Hz >= f_lo) & (psd.freqs_Hz <= f_hi)
    if np.count_nonzero(in_window) < 8:
        raise SpectralError(f"guess window [{f_lo:g}, {f_hi:g}] Hz holds fewer than 8 PSD bins")
    f_win = psd.freqs_Hz[in_window]
    p_win = psd.power[in_window]
    peak_idx = int(np.argmax(p_win))
    peak_power = p_win[peak_idx]
    window_median = float(np.median(p_win))
    interior = 0 < peak_idx < p_win.size - 1
    if not interior or peak_power < PEAK_OVER_MEDIAN * window_median:
        raise SpectralError(
            f"no peak in window [{f_lo:g}, {f_hi:g}] Hz: maximum is"
            f" {peak_power / window_median:.2f} x the median and must be an interior"
            f" local maximum at least {PEAK_OVER_MEDIAN:g} x above it"
        )

    f_peak = f_win[peak_idx]
    floor0 = float(np.median(psd.power))
    half_level = 0.5 * (peak_power + floor0)
    above = p_win >= half_level
    lo = peak_idx
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = peak_idx
    while hi < p_win.size - 1 and above[hi + 1]:
        hi += 1
    fwhm = max(f_win[hi] - f_win[lo], f_win[1] - f_win[0])
    omega0_0 = TWO_PI * f_peak
    xi0 = TWO_PI * fwhm
    amp0 = max(peak_power - floor0, peak_power * 1e-3) * (xi0 * omega0_0) ** 2
    floor0 = max(floor0, peak_power * 1e-12)

    scales = np.array([omega0_0, xi0, amp0, floor0])
    data = psd.power
    if np.any(data <= 0):
        raise SpectralError("PSD contains non-positive bins; cannot fit")

    def residuals(u):
        omega0, xi, amplitude, floor = u * scales
        model = _oscillator_psd(psd.freqs_Hz, omega0, xi, amplitude, floor)
        if np.any(model <= 0):
            return np.full(data.shape, 1e6)
        ratio = data / model
        return np.sign(ratio - 1.0) * np.sqrt(2.0 * np.maximum(ratio - np.log(ratio) - 1.0, 0.0))

    from scipy.optimize import least_squares

    result = least_squares(residuals, np.ones(4), method="lm", max_nfev=2000)
    if not result.success:
        raise SpectralError(f"oscillator fit did not converge: {result.message} (nfev={result.nfev})")
    omega0, xi, amplitude, floor = np.abs(result.x) * scales
    if not f_lo <= omega0 / TWO_PI <= f_hi:
        raise SpectralError(
            f"fit walked out of the guess window: omega0/2pi = {omega0 / TWO_PI:.6g} Hz"
        )

    n_res, n_par = result.jac.shape
    jac = result.jac / scales[None, :] * np.sign(result.x)[None, :]
    dof = max(n_res - n_par, 1)
    variance = 2.0 * result.cost / dof
    try:
        covariance = np.linalg.inv(jac.T @ jac) * variance
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(jac.T @ jac) * variance
    return LorentzianFit(
        omega0_rad_s=float(omega0),
        linewidth_rad_s=float(xi),
        amplitude=float(amplitude),
        noise_floor=float(floor),
        residual_rms=float(np.sqrt(np.mean(result.fun**2))),
        covariance=covariance,
    )


@dataclass(frozen=True)
class SnrReport:
    floor: float
    peak_power: float
    snr_db: float


def noise_floor_and_snr(psd: Psd, fit: LorentzianFit) -> SnrReport:
    """Noise floor and peak signal-to-noise ratio implied by a line fit."""
    if fit.noise_floor <= 0:
        raise SpectralError("fit has a non-positive noise floor")
    peak = fit.amplitude / (fit.linewidth_rad_s * fit.omega0_rad_s) ** 2 + fit.noise_floor
    return SnrReport(
        floor=fit.noise_floor,
        peak_power=peak,
        snr_db=10.0 * math.log10(peak / fit.noise_floor),
    )


def estimate_radius(fit: LorentzianFit, temperature_K: float, density_kg_m3: float) -> float:
    """Particle radius implied by a displacement-calibrated line fit (approximate).

    Equipartition fixes the integrated line power: integral S df = k_B T /
    (m omega0^2), and for this parameterization the integral is
    A / (4 xi omega0^2), so m = 4 xi k_B T / A and r = (3 m / 4 pi rho)^(1/3).
    Valid only when the PSD is in absolute m^2/Hz units; fit-window truncation
    and floor leakage make this an estimate, not a calibration.
    """
    if temperature_K <= 0 or density_kg_m3 <= 0:
        raise SpectralError("temperature and density must be positive")
    mass = 4.0 * fit.linewidth_rad_s * KB * temperature_K / fit.amplitude
    return (3.0 * mass / (4.0 * math.pi * density_kg_m3)) ** (1.0 / 3.0)
