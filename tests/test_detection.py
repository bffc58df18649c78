import dataclasses
import json
import math

import numpy as np
import pytest

from levitomo import artifacts
from levitomo.constants import KB
from levitomo.detection import (
    INT32_HEADROOM_SIGMAS,
    MODELS,
    POISSON_MAX_MEAN,
    CountRecord,
    detect,
    invert_counts,
    params_from_config,
    save_count_record,
)
from levitomo.dynamics import Trajectory, simulate_coherent, simulate_thermal
from levitomo.errors import DetectionError
from levitomo.spectral import estimate_psd, fit_lorentzian
from noise_floor import predicted_noise_floor

TWO_PI = 2.0 * math.pi


def flat_trajectory(dq, rate=1.4e6, duration=2e-3):
    return simulate_coherent(dq, 0.0, 0.0, duration, rate)


def small_tone(dq, two_ka, config, rate_per_period=64, periods=16):
    k = TWO_PI / config.wavelength_m
    amplitude = two_ka / (2.0 * k)
    f0 = dq.omega_s_rad_s / TWO_PI
    return simulate_coherent(dq, amplitude, 0.0, periods / f0, rate_per_period * f0)


def test_ch_flat_at_quadrature(config, dq):
    params = params_from_config(config, "ch", T_int_s=1.0 / 1.4e6, model="exact")
    rec = detect(flat_trajectory(dq), params)
    c1, c2, d = rec.params.linear_constants()
    assert c2 == pytest.approx(0.0, abs=1e-9)  # cos(pi/2) = 0
    np.testing.assert_allclose(rec.counts.values(), c1, rtol=1e-12)


def test_cbh_maximum_fringe(config, dq):
    params = params_from_config(config, "cbh", delta_phi_rad=0.0, T_int_s=1.0 / 1.4e6, model="exact")
    rec = detect(flat_trajectory(dq), params)
    expected = params.count_prefactor * 2.0 * params.field_amp_A * params.field_amp_B
    np.testing.assert_allclose(rec.counts.values(), expected, rtol=1e-12)


def test_cbh_harmonic_distortion(config, dq):
    traj = small_tone(dq, two_ka=0.05, config=config)
    params = params_from_config(config, "cbh", T_int_s=1.0 / traj.sample_rate_Hz, model="exact")
    rec = detect(traj, params)
    counts = rec.counts.values()
    spectrum = np.abs(np.fft.rfft(counts - counts.mean()))
    fundamental = spectrum[16]  # 16 oscillation periods in the record
    third = spectrum[48]
    assert third / fundamental < 1e-3


@pytest.mark.parametrize("scheme", ["ch", "cbh"])
def test_exact_vs_linear_taylor_bound(config, dq, scheme):
    two_ka = 0.01
    traj = small_tone(dq, two_ka=two_ka, config=config)
    params = params_from_config(config, scheme, T_int_s=1.0 / traj.sample_rate_Hz)
    exact = detect(traj, dataclasses.replace(params, model="exact"))
    linear = detect(traj, params)
    pf = params.count_prefactor
    fringe = (pf if scheme == "cbh" else 0.5 * pf) * 2.0 * params.field_amp_A * params.field_amp_B
    bound = fringe * two_ka**2 / 2.0
    assert bound == pytest.approx(fringe * 5e-5, rel=1e-12)
    assert np.max(np.abs(exact.counts.values() - linear.counts.values())) <= bound * (1.0 + 1e-9)


def test_linear_offsets_at_rest(config, dq):
    traj = flat_trajectory(dq)
    ch = detect(traj, params_from_config(config, "ch", delta_phi_rad=math.pi / 4, T_int_s=1.0 / 1.4e6))
    c1, c2, _ = ch.params.linear_constants()
    np.testing.assert_allclose(ch.counts.values(), c1 + c2, rtol=1e-12)
    cbh = detect(traj, params_from_config(config, "cbh", delta_phi_rad=math.pi / 4, T_int_s=1.0 / 1.4e6))
    np.testing.assert_allclose(cbh.counts.values(), 2.0 * c2, rtol=1e-12)


def test_balanced_is_twice_dc_subtracted_single(config, dq):
    """Noise-free identity between the two schemes on any trajectory."""
    traj = small_tone(dq, two_ka=0.3, config=config)
    t_int = 1.0 / traj.sample_rate_Hz
    ch = detect(traj, params_from_config(config, "ch", T_int_s=t_int, model="exact"))
    cbh = detect(traj, params_from_config(config, "cbh", T_int_s=t_int, model="exact"))
    c1 = ch.params.linear_constants()[0]
    fringe = ch.params.count_prefactor * 2.0 * ch.params.field_amp_A * ch.params.field_amp_B
    np.testing.assert_allclose(cbh.counts.values(), 2.0 * (ch.counts.values() - c1), rtol=1e-12, atol=1e-12 * fringe)


def test_linear_balanced_has_no_dc_term(config, dq):
    """Fitting a constant to a z = 0 balanced record yields exactly 2 C2."""
    for dphi in (0.3, 1.0, 2.5):
        params = params_from_config(config, "cbh", delta_phi_rad=dphi, T_int_s=1.0 / 1.4e6)
        rec = detect(flat_trajectory(dq), params)
        _, c2, _ = rec.params.linear_constants()
        assert float(np.mean(rec.counts.values())) == pytest.approx(2.0 * c2, rel=1e-12)


def test_sensitivity_maximal_at_quadrature(config):
    phis = np.linspace(0.05, math.pi - 0.05, 181)
    slopes = [
        abs(params_from_config(config, "ch", delta_phi_rad=float(p)).linear_constants()[2])
        for p in phis
    ]
    assert np.argmax(slopes) == np.argmin(np.abs(phis - math.pi / 2))


def test_linearity_guard_reports_numbers(config, dq):
    """The message names the first sample at or beyond the bound, its |2 k z|, the bound, the guard and the phase
    margin, and how to stay below it."""
    traj = small_tone(dq, two_ka=0.5, config=config)
    rec = detect(traj, params_from_config(config, "cbh", T_int_s=1.0 / traj.sample_rate_Hz))
    message = (
        r"linearity guard violated: \|2 k z\| = 0\.5 rad at sample 0 is not below 0\.1571 rad"
        r" \(0\.1 x phase margin 1\.571 rad\); reduce the motion's amplitude \(sim_temperature_K or"
    )
    with pytest.raises(DetectionError, match=message):
        rec.counts.values()


def test_guard_rejects_zero_sensitivity_phase(config, dq):
    traj = small_tone(dq, two_ka=0.01, config=config)
    params = params_from_config(config, "cbh", delta_phi_rad=0.0, T_int_s=1.0 / traj.sample_rate_Hz)
    with pytest.raises(DetectionError, match="linearity guard"):
        detect(traj, params).counts.values()


def _one_sample_beyond_reach(params, n, index):
    """A record of ``n`` samples at 1 MHz, at rest but for sample ``index``, whose |2 k z| is twice the linear
    reach."""
    z = np.zeros(n)
    z[index] = 2.0 * params.linear_reach_rad() / (2.0 * params.k_rad_per_m)
    return Trajectory(sample_rate_Hz=1e6, z_m=z)


def test_guard_covers_the_samples_after_the_last_whole_window(config):
    """Windows of 4 samples leave 3 of 43 samples unaveraged; one of them beyond reach still fails the record."""
    params = params_from_config(config, "ch", T_int_s=4e-6)
    rec = detect(_one_sample_beyond_reach(params, 43, 41), params)
    assert len(rec.counts) == 10
    with pytest.raises(DetectionError, match="linearity guard violated: .* at sample 41 "):
        rec.counts.values()


def test_guard_runs_in_the_pass_that_draws_the_counts(config):
    """A sample beyond reach in the last chunk fails as that chunk is read: the chunks before it are drawn first."""
    n = 2 * artifacts.CHUNK_SAMPLES + 5
    params = params_from_config(config, "ch", T_int_s=1e-6)
    rec = detect(_one_sample_beyond_reach(params, n, n - 3), params)
    chunks = rec.counts.chunks()
    assert [next(chunks).size for _ in range(2)] == [artifacts.CHUNK_SAMPLES] * 2
    with pytest.raises(DetectionError, match=f"linearity guard violated: .* at sample {n - 3} "):
        next(chunks)


def test_exact_model_draws_beyond_the_linear_reach(config):
    """The exact response has no linearity guard: the record the linear guard refuses draws all its counts."""
    n = 2 * artifacts.CHUNK_SAMPLES + 5
    params = params_from_config(config, "ch", T_int_s=1e-6, model="exact")
    counts = detect(_one_sample_beyond_reach(params, n, n - 3), params).counts.values()
    assert counts.size == n and np.all(np.isfinite(counts))


def test_params_check_themselves(config):
    params = params_from_config(config, "cbh")
    with pytest.raises(DetectionError, match="linearity_guard"):
        dataclasses.replace(params, linearity_guard=0)
    with pytest.raises(DetectionError, match=r"model must be one of \('linear', 'exact'\), got 'cubic'"):
        dataclasses.replace(params, model="cubic")
    for name in ("delta_phi_rad", "linearity_guard", "T_int_s", "field_amp_A", "electronic_noise_counts_rms"):
        for value in (math.nan, math.inf, "1e-6"):
            with pytest.raises(DetectionError, match=name):
                dataclasses.replace(params, **{name: value})


def test_params_refuse_counts_a_float_or_the_poisson_sampler_cannot_hold(config):
    """C1, C2, D and the largest expected count must be finite; with shot noise that count must also be a mean
    numpy's Poisson sampler draws from (9.2e18 is, 9.3e18 is not)."""
    for name, value in (("field_amp_A", 1e200), ("field_amp_B", 1e200), ("sigma_d_m2", 1e300)):
        with pytest.raises(DetectionError, match="range of a float"):
            params_from_config(config, "cbh", **{name: value})
    for model in MODELS:
        largest = params_from_config(config, "ch", sigma_d_m2=1.0, shot_noise=True, model=model).max_expected_count()
        assert params_from_config(config, "ch", sigma_d_m2=9.2e18 / largest, shot_noise=True, model=model)
        with pytest.raises(DetectionError, match="Poisson"):
            params_from_config(config, "ch", sigma_d_m2=9.3e18 / largest, shot_noise=True, model=model)
        assert not params_from_config(config, "ch", sigma_d_m2=9.3e18 / largest, model=model).shot_noise


def test_params_bound_only_the_count_of_their_own_model(config):
    """At a T_int_s whose linear bound (guard 0.35) is 8.87e18 and whose exact bound is 9.58e18, either side of
    numpy's largest Poisson mean, 9.22e18: the linear params build, and the same params of the exact model do not."""
    unit = params_from_config(config, "ch", linearity_guard=0.35)
    t_int = unit.T_int_s * 8.87e18 / unit.max_expected_count()
    linear = params_from_config(config, "ch", T_int_s=t_int, linearity_guard=0.35, shot_noise=True)
    exact_bound = dataclasses.replace(linear, shot_noise=False, model="exact").max_expected_count()
    assert (linear.max_expected_count(), exact_bound) == pytest.approx((8.87e18, 9.58e18), rel=1e-3)
    assert POISSON_MAX_MEAN == pytest.approx(9.22e18, rel=1e-3)
    with pytest.raises(DetectionError, match="largest Poisson mean"):
        dataclasses.replace(linear, model="exact")


def test_window_validation(config, dq):
    traj = simulate_coherent(dq, 1e-9, 0.0, 1e-4, 1.4e6)
    with pytest.raises(DetectionError, match="longer than"):
        detect(traj, params_from_config(config, "ch", T_int_s=1.0, model="exact"))
    with pytest.raises(DetectionError, match="integral number"):
        detect(traj, params_from_config(config, "ch", T_int_s=1.5 / traj.sample_rate_Hz, model="exact"))


def test_invert_round_trip(config, dq):
    traj = small_tone(dq, two_ka=0.01, config=config)
    params = params_from_config(config, "cbh", T_int_s=4.0 / traj.sample_rate_Hz)
    rec = detect(traj, params)
    inverted = invert_counts(rec)
    z = traj.z_m.values()
    window_means = z[: 4 * (z.size // 4)].reshape(-1, 4).mean(axis=1)
    np.testing.assert_allclose(inverted.z_m.values(), window_means, rtol=1e-10, atol=1e-20)
    assert inverted.sample_rate_Hz == pytest.approx(1.0 / params.T_int_s, rel=1e-12)


def test_invert_zero_sensitivity_errors(config, dq):
    """At dphi = 0 the slope D is exactly 0: no count maps back to a position."""
    params = params_from_config(config, "ch", delta_phi_rad=0.0, T_int_s=1.0 / 1.4e6, model="exact")
    assert params.linear_constants()[2] == 0.0
    rec = detect(flat_trajectory(dq), params)
    with pytest.raises(DetectionError, match="zero-sensitivity"):
        invert_counts(rec)


def test_shot_noise_mean_converges(config, dq):
    params = params_from_config(
        config, "ch", delta_phi_rad=math.pi / 4, shot_noise=True, T_int_s=1.0 / 1.4e6, model="exact"
    )
    traj = flat_trajectory(dq, duration=4096 / 1.4e6)
    rec = detect(traj, params, seed=17)
    lam = params.linear_constants()[0] + params.linear_constants()[1]
    n = len(rec.counts)
    assert abs(rec.counts.values().mean() - lam) < 3.0 * math.sqrt(lam / n)


def test_shot_noise_deterministic(config, dq):
    params = params_from_config(config, "cbh", shot_noise=True, T_int_s=1.0 / 1.4e6, model="exact")
    traj = flat_trajectory(dq)
    a = detect(traj, params, seed=5)
    b = detect(traj, params, seed=5)
    assert np.array_equal(a.counts.values(), b.counts.values())


def test_counts_do_not_depend_on_the_chunk_length(monkeypatch, config, dq):
    """Windows of 3 samples straddle chunk ends; each Poisson arm and the electronic noise keep their own stream.

    A trajectory built from its samples in memory gives the same counts.
    """
    traj = simulate_thermal(config, dq, 0.03, 3e6, seed=2, temperature_K=0.03)
    params = params_from_config(config, "cbh", shot_noise=True, electronic_noise_counts_rms=3.0, linearity_guard=0.35)
    counts = []
    for chunk in (artifacts.BLOCK_SAMPLES, 3 * artifacts.BLOCK_SAMPLES):
        monkeypatch.setattr(artifacts, "CHUNK_SAMPLES", chunk)
        counts.append(detect(traj, params, seed=4).counts.values().tobytes())
    assert counts[1] == counts[0]
    in_memory = detect(dataclasses.replace(traj, z_m=traj.z_m.values()), params, seed=4)
    assert in_memory.counts.values().tobytes() == counts[1]


def test_equipartition_calibration_full_temperature(config, dq):
    """300 K record through the exact balanced detector, shot noise on."""
    traj = simulate_thermal(config, dq, 0.05, 1e6, seed=44)
    params = params_from_config(config, "cbh", shot_noise=True, model="exact")
    rec = detect(traj, params, seed=45)
    target = KB * config.temperature_K / (dq.mass_kg * dq.omega_s_rad_s**2)
    inverted = invert_counts(rec, target_variance_m2=target)
    assert inverted.z_m.values().var() == pytest.approx(target, rel=0.05)
    assert inverted.meta["calibration"] == "equipartition"
    assert "equipartition_scale" in inverted.meta


def test_equipartition_needs_target(config, dq):
    """A target variance that is not finite and positive fails; a NaN or infinite one gave all-NaN or all -inf
    positions."""
    rec = detect(flat_trajectory(dq), params_from_config(config, "ch", T_int_s=1.0 / 1.4e6))
    for target in (0.0, -1e-18, math.nan, math.inf):
        with pytest.raises(DetectionError, match="target_variance"):
            invert_counts(rec, target_variance_m2=target)


def _shot_limited_spectra(config, dq):
    """Welch spectra of matched single/balanced records of one 0.06 s thermal trajectory, linearly inverted;
    segment: the largest power of two <= n / 4.

    The interferometer amplitudes are scaled down so the shot floor dominates
    the mechanical Lorentzian tail everywhere off resonance (shot-noise-limited
    operation); the bright defaults bury the shot floor below the motion tail
    inside the Nyquist band.
    """
    traj = simulate_thermal(dataclasses.replace(config, pressure_mbar=1.0), dq, 0.06, 1e6, seed=8, temperature_K=0.03)
    dim = {"field_amp_A": 3.162, "field_amp_B": 0.3162}
    for scheme, seed in zip(("ch", "cbh"), (1, 2)):
        rec = detect(traj, params_from_config(config, scheme, shot_noise=True, linearity_guard=0.5, **dim), seed)
        z = invert_counts(rec).z_m
        yield rec, estimate_psd(z, rec.window_rate_Hz, 1 << int(math.log2(len(z) // 4)))


def test_shot_limited_fitted_floors_are_the_detection_models(config, damped_dq):
    """Each scheme's fitted floor is the closed-form shot floor of its counts, and balancing halves it.

    The bounds are relative, as the fit's own sigma is too small to bound it.
    """
    f0 = damped_dq.omega_s_rad_s / TWO_PI
    floors = []
    for rec, psd in _shot_limited_spectra(config, damped_dq):
        floors.append(fit_lorentzian(psd, (0.5 * f0, 1.5 * f0)).noise_floor)
        assert floors[-1] == pytest.approx(predicted_noise_floor(rec.info), rel=0.03), rec.params.scheme
    # ideal balanced detection halves the displacement-equivalent shot floor
    assert floors[0] / floors[1] == pytest.approx(2.0, rel=0.05)


def test_electronic_noise_floor_scales_with_variance(config, dq):
    """Doubling the additive white-noise variance doubles the displacement floor;
    doubling the rms therefore quadruples it."""
    traj = flat_trajectory(dq, duration=65536 / 1.4e6)
    floors = []
    for rms in (200.0, 400.0):
        params = params_from_config(
            config, "ch", electronic_noise_counts_rms=rms, T_int_s=1.0 / 1.4e6
        )
        rec = detect(traj, params, seed=9)
        inverted = invert_counts(rec)
        psd = estimate_psd(inverted.z_m, inverted.sample_rate_Hz, 4096)
        floors.append(float(np.median(psd.power)))
    assert floors[1] / floors[0] == pytest.approx(4.0, rel=0.10)


def test_count_record_npy(tmp_path, config, dq):
    """The counts go to a float64 array; the sidecar's t0_s and T_int_s place every window."""
    params = params_from_config(config, "cbh", T_int_s=1.0 / 1.4e6)
    rec = detect(dataclasses.replace(flat_trajectory(dq), t0_s=2.5e-6), params)
    path = tmp_path / "counts.npy"
    sidecar = save_count_record(rec, path)
    counts = np.load(path, allow_pickle=False)
    assert counts.dtype == np.dtype("<f8") and counts.tobytes() == rec.counts.values().tobytes()
    info = json.loads(sidecar.read_text())
    assert info["scheme"] == "cbh"
    assert info["D"] == pytest.approx(rec.params.linear_constants()[2])
    assert (info["t0_s"], info["T_int_s"], info["n_windows"]) == (2.5e-6, params.T_int_s, len(counts))
    assert invert_counts(rec).t0_s == 2.5e-6 + 0.5 * params.T_int_s  # the first window's center


def _record(params):
    return CountRecord(t0_s=0.0, counts=np.zeros(4), params=params)


def test_count_dtype_is_int32_only_for_whole_counts_that_fit(config):
    """Shot noise with no electronic noise gives whole counts; int32 when the bound plus its headroom fits."""
    for model in MODELS:
        base = params_from_config(config, "cbh", shot_noise=True, linearity_guard=0.35, model=model)
        assert _record(base).dtype == "<i4"
        assert _record(dataclasses.replace(base, shot_noise=False)).dtype == "<f8"
        assert _record(dataclasses.replace(base, electronic_noise_counts_rms=5.0)).dtype == "<f8"
        assert _record(dataclasses.replace(base, field_amp_A=500.0)).dtype == "<f8"
    # the exact bound pf/2 (A + B)^2 plus its Poisson headroom, either side of int32's largest value
    exact = params_from_config(config, "cbh", shot_noise=True, model="exact")
    limit = np.iinfo(np.int32).max
    root = 0.5 * (-INT32_HEADROOM_SIGMAS + math.sqrt(INT32_HEADROOM_SIGMAS**2 + 4.0 * limit))
    field_a = math.sqrt(2.0 * root**2 / exact.count_prefactor) - exact.field_amp_B
    for factor, dtype in ((1.0 - 1e-9, "<i4"), (1.0 + 1e-9, "<f8")):
        params = dataclasses.replace(exact, field_amp_A=field_a * factor)
        assert _record(params).dtype == dtype
    assert params.max_expected_count() < limit  # the mean alone fits: the headroom decides


def test_linear_count_bound_covers_what_the_guard_lets_through(config):
    """At guard 1 the linear ch count passes pf/2 (A + B)^2, the exact response's peak, but not its own bound."""
    params = params_from_config(config, "ch", linearity_guard=1.0)
    reach = 0.999 * params.linear_reach_rad()
    z = reach / (2.0 * params.k_rad_per_m) * np.sin(np.linspace(0.0, TWO_PI, 4001))
    counts = detect(Trajectory(sample_rate_Hz=1e6, z_m=z), params).counts.values()
    exact_bound = dataclasses.replace(params, model="exact").max_expected_count()
    assert exact_bound < counts.max() <= params.max_expected_count()

