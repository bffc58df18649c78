"""Welch spectral estimation and damped-oscillator line fitting.

The fitted model is the steady-state displacement spectrum of a damped
harmonic oscillator plus a white floor,

    S(f) = A / ((omega^2 - omega0^2)^2 + xi^2 omega^2) + floor,  omega = 2 pi f,

so the linewidth parameter xi maps directly onto the mechanical damping rate
and A onto the thermal drive (A = 4 k_B T xi / m for a displacement spectrum).
The fitted floor is the spectrum's white noise floor, the one the package
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .constants import TWO_PI
from .errors import SpectralError

MIN_SEGMENTS = 4
MIN_SEGMENT_LEN = 8
PEAK_OVER_MEDIAN = 5.0  # a real line must poke this far above the in-window median
FIT_MAX_NFEV = 2000
FIT_FTOL = FIT_XTOL = FIT_GTOL = 1e-10
FIT_INITIAL_DAMPING = 1e-3
FIT_SCALE_MEMORY = 0.9  # per-step decay of the damping scales, see _levenberg_marquardt
# spectrum bins per block of the Welch window and of the fit's sums: a block's dozen temporaries stay under a MB,
# so the 65536 bins of a long record's spectrum need no more memory than the 8192 of a short one
BLOCK_BINS = 1 << 13


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

    Each segment is mean-detrended and multiplied by a periodic Hann window;
    the mean of the segment periodograms is scaled to a one-sided density on
    the ``rfft`` frequency grid (Welch, IEEE Trans. Audio Electroacoust. 15,
    70 (1967)). The segments are those of :func:`welch_segments`, which picks
    the length for ``segment_len`` 0 and refuses a segmentation the record
    cannot hold. ``samples`` is a 1-D array or an ``artifacts.Series``; it is
    read in one pass, chunk by chunk, carrying the samples from the next
    segment's start on to the next chunk, and each segment's periodogram is
    added to a running sum in segment order, so the spectrum does not depend on
    the chunk length.
    """
    if not isinstance(samples, artifacts.Series) and np.ndim(samples) != 1:
        raise SpectralError("samples must be 1-D")
    x = artifacts.Series.of(samples)
    segment_len, step, n_segments = welch_segments(x.n, segment_len, overlap_fraction)
    power = _summed_periodograms(x, segment_len, step)
    power /= n_segments
    # one-sided density: every bin but DC and Nyquist carries its negative-frequency twin; 3 N / 8 is the sum of the
    # squared window
    power *= 2.0 / (sample_rate_Hz * 0.375 * segment_len)
    power[-1] *= 0.5
    return Psd(
        freqs_Hz=bin_frequencies(segment_len, sample_rate_Hz),
        power=power[1:],
        n_segments=n_segments,
        segment_len=segment_len,
    )


def welch_segments(n_samples, segment_len: int, overlap_fraction: float, error: type[Exception] = SpectralError):
    """The Welch segmentation of a record of ``n_samples`` (an int, or None): (segment length, step, segment count).

    ``segment_len`` (the setting ``psd_segment_len``) is 0, for the largest
    power of two at most ``n_samples`` / 4 (at least ``MIN_SEGMENT_LEN``, at
    most 2^17), or a power of two of at least ``MIN_SEGMENT_LEN``;
    ``overlap_fraction`` (``psd_overlap``) lies in [0, 1); and the record
    holds at least ``MIN_SEGMENTS`` segments. A setting that breaks a rule
    raises ``error``. With ``n_samples`` None only the two settings are
    checked, and None is returned.
    """
    if segment_len and (segment_len < MIN_SEGMENT_LEN or segment_len & (segment_len - 1)):
        raise error(f"psd_segment_len must be 0 (auto) or a power of two >= {MIN_SEGMENT_LEN}, got {segment_len!r}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise error(f"psd_overlap must be in [0, 1), got {overlap_fraction!r}")
    if n_samples is None:
        return None
    segment_len = segment_len or min(1 << (max(n_samples // 4, MIN_SEGMENT_LEN).bit_length() - 1), 1 << 17)
    step = segment_len - int(segment_len * overlap_fraction)
    least = segment_len + (MIN_SEGMENTS - 1) * step
    if n_samples < least:
        raise error(
            f"{n_samples} samples are too few for Welch segments of psd_segment_len {segment_len} at psd_overlap"
            f" {overlap_fraction}: need {MIN_SEGMENTS}, which need at least {least} samples"
        )
    return segment_len, step, 1 + (n_samples - segment_len) // step


def bin_frequencies(segment_len: int, sample_rate_Hz: float) -> np.ndarray:
    """The frequencies (Hz) of the bins of a Welch spectrum of ``segment_len``-sample segments, DC dropped."""
    return np.fft.rfftfreq(segment_len, 1.0 / sample_rate_Hz)[1:]


def window_bins(freqs_Hz: np.ndarray, guess_window: tuple[float, float]):
    """The mask of the bins at ``freqs_Hz`` in the line fit's ``guess_window`` (f_lo, f_hi) Hz; a
    :class:`SpectralError` when it holds fewer than 8, too few to place a line in."""
    f_lo, f_hi = guess_window
    in_window = (freqs_Hz >= f_lo) & (freqs_Hz <= f_hi)
    if np.count_nonzero(in_window) < 8:
        raise SpectralError(f"guess window [{f_lo:g}, {f_hi:g}] Hz holds fewer than 8 PSD bins of {freqs_Hz[0]:g} Hz")
    return in_window


def _summed_periodograms(x: artifacts.Series, segment_len: int, step: int) -> np.ndarray:
    """The sum over the segments of x, in order, of the power of each segment's ``rfft``, mean removed and
    Hann-windowed (bin 0 is left 0); its buffers are freed on return."""
    half = segment_len // 2
    batch = max(1, artifacts.CHUNK_SAMPLES // segment_len)  # segments per transform: about a chunk of samples
    spectra = np.empty((batch, half + 1), dtype=complex)
    total = np.zeros(half + 1)
    held = np.empty(segment_len + artifacts.CHUNK_SAMPLES)  # held[:filled]: the samples from the next segment on
    filled = 0
    for chunk in x.chunks():
        held[filled : filled + chunk.size] = chunk
        filled += chunk.size
        ready = 0 if filled < segment_len else 1 + (filled - segment_len) // step
        for first in range(0, ready, batch):
            count = min(batch, ready - first)
            # every segment is a view into held, transformed as it is; the window is applied to its spectrum
            raw = np.lib.stride_tricks.sliding_window_view(held[:filled], segment_len)[first * step :: step][:count]
            np.fft.rfft(raw, axis=1, out=spectra[:count])
            _add_hann_power(spectra[:count], total)
        held[: filled - ready * step] = held[ready * step : filled]
        filled -= ready * step
    return total


def _add_hann_power(spectra: np.ndarray, total: np.ndarray) -> None:
    """Add each row's power, mean removed and Hann-windowed, to ``total[1:]``, row after row.

    ``spectra`` holds the ``rfft`` of raw segments. Removing a segment's mean
    zeroes bin 0 and leaves every other bin. The periodic Hann window
    0.5 - 0.5 cos(2 pi n / N) is three-term in frequency (Harris, Proc. IEEE
    66, 51 (1978)): the windowed bin k is 0.5 X[k] - 0.25 (X[k - 1] + X[k + 1]),
    and the Nyquist bin's upper neighbour is the conjugate of its lower one.
    ``BLOCK_BINS`` bins go at a time, so the temporaries stay small.
    """
    half = spectra.shape[1] - 1
    spectra[:, 0] = 0.0
    for first in range(1, half, BLOCK_BINS):
        end = min(first + BLOCK_BINS, half)
        windowed = spectra[:, first - 1 : end - 1] + spectra[:, first + 1 : end + 1]
        windowed *= -0.25
        windowed += 0.5 * spectra[:, first:end]
        for row in windowed.real**2 + windowed.imag**2:
            total[first:end] += row
    nyquist = 0.5 * spectra[:, half] - 0.5 * spectra[:, half - 1].real
    for value in nyquist.real**2 + nyquist.imag**2:
        total[half] += value


@dataclass(frozen=True, eq=False)
class LorentzianFit:
    omega0_rad_s: float
    linewidth_rad_s: float
    amplitude: float
    noise_floor: float
    residual_rms: float  # rms of the deviance residuals (relative-error scale)
    covariance: np.ndarray  # 4x4, parameter order (omega0, xi, amplitude, floor)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array, bit for bit, from one partition.

    numpy's own median checks for NaN through ``numpy.ma``, which a fresh
    process would then import. The partition also puts the largest value
    last, so a NaN anywhere gives NaN, as there; two middle values are
    averaged as ``np.mean`` averages them, (a + b) / 2.
    """
    n = values.size
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(values, middle + [n - 1])
    if np.isnan(part[-1]):
        return math.nan
    return float(part[n // 2] if n % 2 else (part[n // 2 - 1] + part[n // 2]) / 2.0)


def _line_guess(psd: Psd, guess_window: tuple[float, float]) -> np.ndarray:
    """Starting (omega0, xi, amplitude, floor) of the line fit, which also scales its coordinates."""
    f_lo, f_hi = guess_window
    in_window = window_bins(psd.freqs_Hz, guess_window)
    f_win = psd.freqs_Hz[in_window]
    p_win = psd.power[in_window]
    peak_idx = int(np.argmax(p_win))
    peak_power = p_win[peak_idx]
    window_median = _median(p_win)
    interior = 0 < peak_idx < p_win.size - 1
    if not interior or peak_power < PEAK_OVER_MEDIAN * window_median:
        raise SpectralError(
            f"no peak in window [{f_lo:g}, {f_hi:g}] Hz: maximum is"
            f" {peak_power / window_median:.2f} x the median and must be an interior"
            f" local maximum at least {PEAK_OVER_MEDIAN:g} x above it"
        )

    f_peak = f_win[peak_idx]
    floor0 = _median(psd.power)
    df = f_win[1] - f_win[0]
    # the width from the line's area: a line of peak excess P and width xi holds P xi / 4 of excess power over
    # frequency. Summed over the window, the area holds up on a broad line, where noisy bins would end a run of
    # bins above half power a few bins from the peak; a line narrower than a bin starts one bin wide
    area = float(np.sum(np.maximum(p_win - floor0, 0.0))) * df
    omega0_0 = TWO_PI * f_peak
    xi0 = max(4.0 * area / max(peak_power - floor0, 1e-300), TWO_PI * df)
    amp0 = max(peak_power - floor0, peak_power * 1e-3) * (xi0 * omega0_0) ** 2
    floor0 = max(floor0, peak_power * 1e-12)
    return np.array([omega0_0, xi0, amp0, floor0])


def fit_lorentzian(psd: Psd, guess_window: tuple[float, float]) -> LorentzianFit:
    """Least-squares oscillator-line fit over (omega0, xi, amplitude, floor).

    ``guess_window`` is a (f_lo, f_hi) band in Hz that must contain the peak.
    Initial guesses come from the peak location and height, the line's area
    and the median power of the spectrum; the refinement runs
    Levenberg-Marquardt (Marquardt, J. SIAM 11, 431 (1963)) on Whittle (gamma)
    deviance residuals, sign(d - m) sqrt(2 (d/m - ln(d/m) - 1)), with the
    closed-form Jacobian of the rational model. Averaged periodogram bins are
    chi-squared distributed, and this objective is their maximum likelihood:
    weighting plain residuals by the noisy data instead biases the fitted
    floor low by ~4/dof. The residuals depend on d/m only, so the fit is
    exactly equivariant under rescaling of the input signal. A fit that has
    not converged after ``FIT_MAX_NFEV`` residual evaluations raises
    :class:`SpectralError`. The covariance is 2 cost / dof (J^T J)^-1 at the
    solution.
    """
    f_lo, f_hi = guess_window
    guess = _line_guess(psd, guess_window)
    data = psd.power
    if np.any(data <= 0):
        raise SpectralError("PSD contains non-positive bins; cannot fit")

    def equations(u):  # each coordinate in units of its guess
        sums = _normal_equations(u * guess, psd.freqs_Hz, data)
        return None if sums is None else (sums[0], sums[1] * np.outer(guess, guess), sums[2] * guess)

    u, cost, normal = _levenberg_marquardt(equations, np.ones(4))
    omega0, xi, amplitude, floor = np.abs(u) * guess
    if not f_lo <= omega0 / TWO_PI <= f_hi:
        raise SpectralError(
            f"fit walked out of the guess window: omega0/2pi = {omega0 / TWO_PI:.6g} Hz"
        )

    signs = np.sign(u) / guess
    normal = normal * np.outer(signs, signs)  # J^T J in the parameters themselves
    dof = max(data.size - u.size, 1)
    variance = 2.0 * cost / dof
    try:
        covariance = np.linalg.inv(normal) * variance
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(normal) * variance
    return LorentzianFit(
        omega0_rad_s=float(omega0),
        linewidth_rad_s=float(xi),
        amplitude=float(amplitude),
        noise_floor=float(floor),
        residual_rms=math.sqrt(2.0 * cost / data.size),
        covariance=covariance,
    )


def _normal_equations(params, freqs_Hz, data):
    """Half the squared norm of the deviance residuals at ``params``, J^T J and J^T r.

    The sums run over ``BLOCK_BINS`` bins at a time, in bin order. Returns
    ``None`` where the model is not positive at every bin.
    """
    cost, normal, gradient = 0.0, np.zeros((4, 4)), np.zeros(4)
    for first in range(0, data.size, BLOCK_BINS):
        block = slice(first, first + BLOCK_BINS)
        fitted = _deviance_and_jacobian(params, freqs_Hz[block], data[block])
        if fitted is None:
            return None
        res, jac = fitted
        cost += 0.5 * float(res @ res)
        normal += jac.T @ jac
        gradient += jac.T @ res
    return cost, normal, gradient


def _deviance_and_jacobian(params, freqs_Hz, data):
    """Deviance residuals of ``data`` against the model at ``params`` =
    (omega0, xi, amplitude, floor), and their Jacobian with respect to ``params``.

    Returns ``None`` where the model is not positive at every bin.
    """
    omega0, xi, amplitude, floor = params
    omega = TWO_PI * freqs_Hz
    detuning = omega**2 - omega0**2
    denom = detuning**2 + (xi * omega) ** 2
    line = amplitude / denom
    model = line + floor
    if np.any(model <= 0):
        return None
    excess = data / model - 1.0
    res = np.sign(excess) * np.sqrt(2.0 * np.maximum(excess - np.log1p(excess), 0.0))
    # d res / d model = -(excess / res) / model; excess / res -> 1 as d/m -> 1
    zero = res == 0.0
    slope = -np.divide(excess, res, out=np.ones_like(res), where=~zero) / model
    dmodel = np.stack(
        [4.0 * omega0 * detuning * line / denom, -2.0 * xi * omega**2 * line / denom, 1.0 / denom, np.ones_like(denom)],
        axis=1,
    )
    return res, slope[:, None] * dmodel


def _levenberg_marquardt(equations, x):
    """Minimise the cost of ``equations(x)``, which returns half the squared
    residual norm, J^T J and J^T r (or ``None`` where undefined).

    Marquardt's damping scales with the diagonal of J^T J, so the step does not
    depend on the units of the parameters. Each diagonal entry is the larger of
    its current value and ``FIT_SCALE_MEMORY`` times the previous scale: a
    coordinate whose column fades stays damped (the linewidth of a line
    narrower than a bin, where the model is flat in xi around 0, otherwise
    throws steps across zero and stalls the other coordinates), while the large
    curvatures of a poor starting guess are forgotten within a few dozen steps.
    The damping itself adapts to the ratio of actual to predicted cost
    decrease. Stops when a step changes the cost by a relative ``FIT_FTOL``,
    moves ``x`` by a relative ``FIT_XTOL``, or the gradient is orthogonal to the
    residual to within ``FIT_GTOL``; raises :class:`SpectralError` after
    ``FIT_MAX_NFEV`` evaluations. Returns the solution, its cost and its J^T J.
    """
    cost, normal, gradient = equations(x)
    damping, growth = FIT_INITIAL_DAMPING, 2.0
    scale = np.zeros(x.size)
    for _ in range(FIT_MAX_NFEV - 1):
        # the cosine between the residual and each column of J
        cosines = np.abs(gradient) / np.maximum(np.sqrt(np.diag(normal) * (2.0 * cost)), 1e-300)
        if np.max(cosines) <= FIT_GTOL:
            return x, cost, normal
        scale = np.maximum(np.diag(normal), FIT_SCALE_MEMORY * scale)
        step = np.linalg.solve(normal + damping * np.diag(scale), -gradient)
        predicted = -float(gradient @ step) - 0.5 * float(step @ normal @ step)
        trial = equations(x + step)
        new_cost = math.inf if trial is None else trial[0]
        actual = cost - new_cost
        small_step = np.linalg.norm(step) <= FIT_XTOL * (np.linalg.norm(x) + FIT_XTOL)
        if predicted > 0 and actual > 0:
            gain = actual / predicted
            x, (cost, normal, gradient), cost_before = x + step, trial, cost
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
            if small_step or (actual <= FIT_FTOL * cost_before and predicted <= FIT_FTOL * cost_before):
                return x, cost, normal
        else:
            if small_step:
                return x, cost, normal
            damping *= growth
            growth *= 2.0
    raise SpectralError(f"oscillator fit did not converge in {FIT_MAX_NFEV} evaluations")
