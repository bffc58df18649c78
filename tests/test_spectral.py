import dataclasses
import math

import numpy as np
import pytest

from levitomo import artifacts, spectral
from levitomo.dynamics import simulate_thermal
from levitomo.errors import SpectralError
from levitomo.physics import derive
from levitomo.spectral import (
    Psd,
    _line_guess,
    estimate_psd,
    fit_lorentzian,
)

TWO_PI = 2.0 * math.pi


def _oscillator_psd(freqs_Hz: np.ndarray, omega0: float, xi: float, amplitude: float, floor: float):
    """The fitted model: a damped oscillator's line plus a white floor, at ``freqs_Hz``."""
    omega = TWO_PI * freqs_Hz
    return amplitude / ((omega**2 - omega0**2) ** 2 + (xi * omega) ** 2) + floor


def test_white_noise_level_and_parseval():
    rng = np.random.default_rng(0)
    fs = 1e5
    x = rng.standard_normal(1 << 19)
    psd = estimate_psd(x, fs, segment_len=4096)
    assert float(np.mean(psd.power)) == pytest.approx(2.0 / fs, rel=0.05)
    assert float(np.trapezoid(psd.power, psd.freqs_Hz)) == pytest.approx(float(x.var()), rel=0.02)


def test_sinusoid_integrated_power():
    fs = 1e4
    segment = 4096
    amp = 0.7
    f0 = 100 * fs / segment  # bin-centered tone
    t = np.arange(1 << 16) / fs
    psd = estimate_psd(amp * np.sin(TWO_PI * f0 * t), fs, segment)
    total = float(np.trapezoid(psd.power, psd.freqs_Hz))
    assert total == pytest.approx(amp**2 / 2.0, rel=0.02)


def test_estimator_validation():
    x = np.zeros(1000)
    with pytest.raises(SpectralError, match="power of two"):
        estimate_psd(x, 1.0, segment_len=1000)
    with pytest.raises(SpectralError, match="need at least"):
        estimate_psd(x, 1.0, segment_len=1024)
    with pytest.raises(SpectralError):
        estimate_psd(x, 1.0, segment_len=256, overlap_fraction=1.5)


def test_psd_excludes_dc():
    psd = estimate_psd(np.random.default_rng(1).standard_normal(4096) + 100.0, 1.0, 256)
    assert psd.freqs_Hz[0] > 0


@pytest.mark.parametrize("rate", [1e6, 1.4e6, 3e6])
def test_every_bin_is_a_whole_multiple_of_the_first(rate):
    """A saved spectrum keeps only its bin spacing ``df_Hz``, so (k + 1) df_Hz must rebuild bin k exactly."""
    psd = estimate_psd(np.random.default_rng(2).standard_normal(4096), rate, 256)
    rebuilt = np.arange(1, psd.freqs_Hz.size + 1) * psd.freqs_Hz[0]
    assert rebuilt.tobytes() == psd.freqs_Hz.tobytes()


def _synthetic_psd(omega0, xi, amplitude, floor, noise=0.01, seed=3, n=4000, f_max=2e5):
    freqs = np.linspace(f_max / n, f_max, n)
    truth = _oscillator_psd(freqs, omega0, xi, amplitude, floor)
    rng = np.random.default_rng(seed)
    power = truth * (1.0 + noise * rng.standard_normal(n))
    return Psd(freqs_Hz=freqs, power=power, n_segments=1, segment_len=n)


def test_fit_recovers_synthetic_parameters():
    omega0, xi, amplitude, floor = TWO_PI * 7e4, 5e3, 50.0, 1e-21
    psd = _synthetic_psd(omega0, xi, amplitude, floor)
    fit = fit_lorentzian(psd, (4e4, 1e5))
    assert fit.omega0_rad_s == pytest.approx(omega0, rel=0.02)
    assert fit.linewidth_rad_s == pytest.approx(xi, rel=0.02)
    assert fit.amplitude == pytest.approx(amplitude, rel=0.02)
    assert fit.noise_floor == pytest.approx(floor, rel=0.02)
    assert fit.covariance.shape == (4, 4)
    assert np.all(np.diag(fit.covariance) >= 0)


def test_fit_rejects_white_noise():
    rng = np.random.default_rng(7)
    psd = estimate_psd(rng.standard_normal(1 << 16), 1e6, 4096)
    with pytest.raises(SpectralError, match="no peak"):
        fit_lorentzian(psd, (1e4, 4e5))


def test_fit_scale_equivariance():
    omega0, xi, amplitude, floor = TWO_PI * 7e4, 5e3, 50.0, 1e-21
    psd = _synthetic_psd(omega0, xi, amplitude, floor)
    scale = 123.456
    scaled = Psd(psd.freqs_Hz, psd.power * scale**2, psd.n_segments, psd.segment_len)
    base = fit_lorentzian(psd, (4e4, 1e5))
    other = fit_lorentzian(scaled, (4e4, 1e5))
    assert other.omega0_rad_s == pytest.approx(base.omega0_rad_s, rel=1e-6)
    assert other.linewidth_rad_s == pytest.approx(base.linewidth_rad_s, rel=1e-6)
    assert other.amplitude == pytest.approx(base.amplitude * scale**2, rel=1e-6)
    assert other.noise_floor == pytest.approx(base.noise_floor * scale**2, rel=1e-6)


def test_thermal_peak_within_one_bin(config, dq):
    """Reference low pressure (1e-2 mbar): the spectral peak sits on omega_s."""
    traj = simulate_thermal(config, dq, 0.5, 2e6, seed=13)
    psd = estimate_psd(traj.z_m, traj.sample_rate_Hz, 1 << 17)
    bin_width = psd.freqs_Hz[1] - psd.freqs_Hz[0]
    peak_freq = psd.freqs_Hz[int(np.argmax(psd.power))]
    assert abs(peak_freq - dq.omega_s_rad_s / TWO_PI) <= bin_width


def test_thermal_fit_frequency_within_one_percent(config, dq):
    traj = simulate_thermal(config, dq, 0.5, 2e6, seed=13)
    psd = estimate_psd(traj.z_m, traj.sample_rate_Hz, 1 << 17)
    f0 = dq.omega_s_rad_s / TWO_PI
    fit = fit_lorentzian(psd, (0.5 * f0, 1.5 * f0))
    assert fit.omega0_rad_s == pytest.approx(dq.omega_s_rad_s, rel=0.01)


def test_parseval_on_thermal_record(damped_config, damped_dq):
    traj = simulate_thermal(damped_config, damped_dq, 0.2, 1e6, seed=19)
    psd = estimate_psd(traj.z_m, traj.sample_rate_Hz, 1 << 14)
    assert float(np.trapezoid(psd.power, psd.freqs_Hz)) == pytest.approx(float(traj.z_m.values().var()), rel=0.02)


def test_time_shift_invariance():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(1 << 18)
    n = 1 << 17
    early = estimate_psd(x[:n], 1e6, 4096)
    late = estimate_psd(x[-n:], 1e6, 4096)
    assert float(np.mean(late.power)) == pytest.approx(float(np.mean(early.power)), rel=0.05)
    assert float(np.median(late.power)) == pytest.approx(float(np.median(early.power)), rel=0.05)


def test_fitted_floor_tracks_injected_variance(damped_config, damped_dq):
    """Doubling an additive white-noise variance doubles the fitted floor."""
    traj = simulate_thermal(damped_config, damped_dq, 0.25, 1e6, seed=29, temperature_K=0.03)
    rng = np.random.default_rng(30)
    z = traj.z_m.values()
    noise = rng.standard_normal(z.size)
    f0 = damped_dq.omega_s_rad_s / TWO_PI
    floors = []
    for variance_scale in (1.0, 2.0):
        sigma = 2e-10 * math.sqrt(variance_scale)
        psd = estimate_psd(z + sigma * noise, traj.sample_rate_Hz, 1 << 14)
        floors.append(fit_lorentzian(psd, (0.5 * f0, 1.5 * f0)).noise_floor)
    assert floors[1] / floors[0] == pytest.approx(2.0, rel=0.10)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 8193, 16384])
@pytest.mark.parametrize("ties", [False, True])
def test_median_equals_numpy_median_bitwise(n, ties):
    """The partition median gives np.median's bytes for odd and even lengths, with and without tied values."""
    values = np.random.default_rng(n).standard_normal(n) * 1e-20
    if ties:
        values = np.round(values * 1e20) * 0.1  # a handful of distinct values, each many times over
    assert np.float64(spectral._median(values)).tobytes() == np.median(values).tobytes()
    values[n // 2] = math.nan
    assert math.isnan(spectral._median(values)) and math.isnan(np.median(values))


# ---------------------------------------------------------------------------
# scipy as the reference for the numpy kernels


@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
@pytest.mark.parametrize("segment_len", [8, 256, 4096])
def test_welch_matches_scipy(segment_len, overlap):
    signal = pytest.importorskip("scipy.signal")
    x = 3.0 * np.random.default_rng(11).standard_normal(50_003) + 1.0
    psd = estimate_psd(x, 1e6, segment_len, overlap)
    freqs, power = signal.welch(
        x,
        fs=1e6,
        window="hann",
        nperseg=segment_len,
        noverlap=int(segment_len * overlap),
        detrend="constant",
        scaling="density",
    )
    np.testing.assert_array_equal(psd.freqs_Hz, freqs[1:])
    np.testing.assert_allclose(psd.power, power[1:], rtol=1e-10, atol=0.0)


def least_squares_fit(psd, guess_window, max_nfev):
    """The line fit run by ``scipy.optimize.least_squares(method="lm")`` from the
    same start, with finite-difference Jacobian and tight tolerances, so that it
    stops at the optimum rather than wherever its default tolerances let it."""
    optimize = pytest.importorskip("scipy.optimize")
    scales = _line_guess(psd, guess_window)

    def residuals(u):
        model = _oscillator_psd(psd.freqs_Hz, *(u * scales))
        if np.any(model <= 0):
            return np.full(psd.power.shape, 1e6)
        ratio = psd.power / model
        return np.sign(ratio - 1.0) * np.sqrt(2.0 * np.maximum(ratio - np.log(ratio) - 1.0, 0.0))

    tol = 1e-13
    result = optimize.least_squares(
        residuals, np.ones(4), method="lm", max_nfev=max_nfev, ftol=tol, xtol=tol, gtol=tol
    )
    return result.success, np.abs(result.x) * scales


@pytest.mark.parametrize("pressure_mbar", [1e-2, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_fit_matches_scipy_least_squares(config, pressure_mbar, seed):
    """1 s records: omega0 to 1e-6 relative, every parameter within 1e-3 of its fitted sigma.

    A record on which scipy itself does not converge is skipped. Its path is
    sensitive to the last digits of the record: at 1 mbar, seeds 6 and 9
    exhaust its 2000 evaluations. Converging records take scipy at most about
    60 evaluations, so a budget of 200 keeps a skip short.
    """
    damped = dataclasses.replace(config, pressure_mbar=pressure_mbar)
    dq = derive(damped)
    traj = simulate_thermal(damped, dq, 1.0, 1e6, seed=seed)
    psd = estimate_psd(traj.z_m, traj.sample_rate_Hz, 1 << 17)
    f0 = dq.omega_s_rad_s / TWO_PI
    window = (0.5 * f0, 1.5 * f0)
    converged, reference = least_squares_fit(psd, window, max_nfev=200)
    if not converged:
        pytest.skip("scipy's least_squares does not converge on this record")
    fit = fit_lorentzian(psd, window)
    fitted = np.array([fit.omega0_rad_s, fit.linewidth_rad_s, fit.amplitude, fit.noise_floor])
    assert fitted[0] == pytest.approx(reference[0], rel=1e-6)
    assert np.all(np.abs(fitted - reference) <= 1e-3 * np.sqrt(np.diag(fit.covariance)))


def test_welch_does_not_depend_on_the_chunks():
    """Chunks of any length up to a chunk give the spectrum of the whole record bit for bit."""
    x = np.random.default_rng(4).standard_normal(100_003)
    whole = estimate_psd(x, 1e6, 4096, 0.75)

    def read():
        first, sizes = 0, (1, 4093, artifacts.CHUNK_SAMPLES, 7)
        while first < x.size:
            size = sizes[first % len(sizes)]
            yield x[first : first + size]
            first += size

    chunked = estimate_psd(artifacts.Series(x.size, read), 1e6, 4096, 0.75)
    assert chunked.power.tobytes() == whole.power.tobytes()
    assert chunked.n_segments == whole.n_segments


@pytest.mark.parametrize("seed", [5, 6, 9])
def test_line_guess_starts_a_broad_line_near_its_width(damped_config, damped_dq, seed):
    """1 s at 1 mbar: the starting linewidth lies within 3x of the fitted one.

    The run of bins above half power, the earlier start, ended at the first
    noisy bin and started these lines 70 to 220 times too narrow.
    """
    traj = simulate_thermal(damped_config, damped_dq, 1.0, 1e6, seed=seed)
    psd = estimate_psd(traj.z_m, traj.sample_rate_Hz, 1 << 17)
    f0 = damped_dq.omega_s_rad_s / TWO_PI
    window = (0.5 * f0, 1.5 * f0)
    start, fitted = _line_guess(psd, window)[1], fit_lorentzian(psd, window).linewidth_rad_s
    assert fitted / 3.0 <= start <= 3.0 * fitted


def test_fit_that_does_not_converge_raises(monkeypatch):
    psd = _synthetic_psd(TWO_PI * 7e4, 5e3, 50.0, 1e-21)
    monkeypatch.setattr(spectral, "FIT_MAX_NFEV", 2)
    with pytest.raises(SpectralError, match="did not converge in 2 evaluations"):
        fit_lorentzian(psd, (4e4, 1e5))
