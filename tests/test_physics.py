import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levitomo.cli import PipelineSettings, _decoherence_grid
from levitomo.constants import C, HBAR
from levitomo.errors import ConfigError
from levitomo.physics import (
    ExperimentConfig,
    calibrate_waist,
    decoherence_time,
    derive,
    from_mapping,
    load_key_values,
)

TWO_PI = 2.0 * math.pi

# frozen expected values, hand-computed from the closed forms before the build
W0_CALIBRATED = 9.272168931765024e-07
G0_OVER_KAPPA_17NM = 4.1718940174968993e-04
TAU_01NM_34NM = 5.761068165664254e-06
KNEE_DZ = 3.184756294317749e-07  # lambda * sqrt(5 / 12) / pi


def test_epsilon_c_value(dq):
    assert dq.epsilon_c == pytest.approx(3.0 * 1.1 / 4.1, rel=1e-15)


def test_waist_calibration_frozen_value(config):
    """The dataclass default is the reference experiment: its waist is, bit for bit, the 70 kHz calibration."""
    assert config == ExperimentConfig() and config.waist_m == calibrate_waist(TWO_PI * 70e3, config)
    assert config.waist_m == pytest.approx(W0_CALIBRATED, rel=1e-12)
    assert config.waist_m == pytest.approx(0.93e-6, rel=0.01)


def test_default_config_hits_70khz(dq):
    assert dq.omega_s_rad_s == pytest.approx(TWO_PI * 70e3, rel=1e-12)


def test_calibration_round_trip(config):
    target = derive(config).omega_s_rad_s
    assert calibrate_waist(target, config) == pytest.approx(config.waist_m, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    power=st.floats(1e-3, 10.0),
    radius=st.floats(5e-9, 100e-9),
    waist=st.floats(0.3e-6, 5e-6),
    eps_r=st.floats(1.2, 12.0),
)
def test_calibration_round_trip_property(power, radius, waist, eps_r):
    cfg = ExperimentConfig(power_W=power, particle_radius_m=radius, waist_m=waist, epsilon_r=eps_r)
    omega = derive(cfg).omega_s_rad_s
    assert calibrate_waist(omega, cfg) == pytest.approx(waist, rel=1e-12)


def test_halving_target_grows_rayleigh_range(config):
    w_full = calibrate_waist(TWO_PI * 70e3, config)
    w_half = calibrate_waist(TWO_PI * 35e3, config)
    z_r = lambda w: math.pi * w**2 / config.wavelength_m
    assert z_r(w_half) / z_r(w_full) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)


def test_omega_scales_with_sqrt_power(config, dq):
    quadrupled = derive(dataclasses.replace(config, power_W=4.0 * config.power_W))
    assert quadrupled.omega_s_rad_s == pytest.approx(2.0 * dq.omega_s_rad_s, rel=1e-12)


def test_gamma_scalings(config, dq):
    doubled_p = derive(dataclasses.replace(config, power_W=2.0 * config.power_W))
    assert doubled_p.gamma_scatter_per_s == pytest.approx(2.0 * dq.gamma_scatter_per_s, rel=1e-12)
    # gamma proportional to V^2 at fixed waist and wavelength: r -> 2r gives x64
    doubled_r = derive(dataclasses.replace(config, particle_radius_m=2.0 * config.particle_radius_m))
    assert doubled_r.gamma_scatter_per_s == pytest.approx(64.0 * dq.gamma_scatter_per_s, rel=1e-12)


def test_saturated_tau_scales_inverse_power(config, dq):
    doubled = derive(dataclasses.replace(config, power_W=2.0 * config.power_W))
    assert decoherence_time(1.0, doubled) == pytest.approx(0.5 * decoherence_time(1.0, dq), rel=1e-6)


def test_g0_over_kappa(dq):
    # independent route: z_zpf from mass and frequency directly
    z_zpf = math.sqrt(HBAR / (2.0 * dq.mass_kg * dq.omega_s_rad_s))
    assert dq.g0_over_kappa == pytest.approx(4.0 * math.pi * z_zpf / 1550e-9, rel=1e-12)
    assert dq.g0_over_kappa == pytest.approx(G0_OVER_KAPPA_17NM, rel=1e-9)
    assert 1e-4 <= dq.g0_over_kappa <= 6e-4


def test_transverse_frequencies(config, dq):
    assert dq.omega_x_rad_s == dq.omega_y_rad_s
    expected_ratio = dq.z_R_m * math.sqrt(2.0) / config.waist_m
    assert dq.omega_x_rad_s / dq.omega_s_rad_s == pytest.approx(expected_ratio, rel=1e-15)


def test_derive_is_pure(config):
    assert derive(config) == derive(config)


@pytest.mark.parametrize(
    "bad_field, bad_value",
    [
        ("power_W", -1.0),
        ("power_W", 0.0),
        ("epsilon_r", 1.0),
        ("epsilon_r", 0.5),
        ("particle_radius_m", -17e-9),
        ("temperature_K", 0.0),
        ("integration_time_s", -1e-6),
        ("pressure_mbar", math.nan),
        ("wavelength_m", 0.0),
        ("power_W", "0.65"),
        ("epsilon_r", "2.1"),
        ("phase_s_rad", "0"),
    ],
)
def test_invalid_config_names_field(config, bad_field, bad_value):
    """A non-physical value or a non-number is a :class:`ConfigError` that names the field."""
    with pytest.raises(ConfigError, match=bad_field):
        dataclasses.replace(config, **{bad_field: bad_value})


def test_rayleigh_standard_form_ratio(config, dq):
    std = derive(dataclasses.replace(config, rayleigh_standard_form=True))
    assert std.cross_section_m2 / dq.cross_section_m2 == pytest.approx(dq.epsilon_c / 3.0, rel=1e-12)


def test_decoherence_zero_distance_is_infinite(dq):
    assert decoherence_time(0.0, dq) == math.inf


def test_decoherence_saturates_at_inverse_gamma(dq):
    assert decoherence_time(1.0, dq) == pytest.approx(1.0 / dq.gamma_scatter_per_s, rel=1e-6)


def test_decoherence_negative_distance_rejected(dq):
    with pytest.raises(ConfigError):
        decoherence_time(-1e-10, dq)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-13, 1e-5), min_size=2, max_size=12, unique=True))
def test_decoherence_monotone_non_increasing(dq, grid):
    grid = sorted(grid)
    taus = [decoherence_time(dz, dq) for dz in grid]
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def test_reference_config_decoherence_band():
    # The estimate of ~10 us at 0.1 nm requires the radius-34nm reading of the
    # particle size (the diameter reading gives ~370 us).
    cfg = dataclasses.replace(ExperimentConfig(), particle_radius_m=34e-9)
    tau = decoherence_time(0.1e-9, derive(cfg))
    assert tau == pytest.approx(TAU_01NM_34NM, rel=1e-9)
    assert 3e-6 <= tau <= 30e-6


def test_decoherence_saturates_without_overflow(dq):
    """Where Gamma dz^2 / gamma exceeds 20, tanh rounds to 1 and tau is 1/gamma: also where dz^2 overflows a float."""
    saturated = 1.0 / dq.gamma_scatter_per_s
    knee = math.sqrt(dq.gamma_scatter_per_s / dq.Gamma_loc_per_m2_s)
    assert decoherence_time(4.4 * knee, dq) == saturated  # tanh(19.36) is already 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dz in (1e200, sys.float_info.max, np.float64(1e300)):
            assert decoherence_time(dz, dq) == saturated


def test_decoherence_quadratic_regime_ratio(dq):
    tau_01, tau_1 = (decoherence_time(dz, dq) for dz in (0.1e-9, 1e-9))
    assert tau_01 / tau_1 == pytest.approx(100.0, rel=1e-3)


def test_decoherence_knee_location(config, dq):
    # knee where Gamma dz^2 = gamma; location depends only on the wavelength
    assert dq.Gamma_loc_per_m2_s * KNEE_DZ**2 / dq.gamma_scatter_per_s == pytest.approx(1.0, rel=1e-9)
    assert KNEE_DZ == pytest.approx(config.wavelength_m * math.sqrt(5.0 / 12.0) / math.pi, rel=1e-12)


def test_decoherence_curve_pointwise_and_empty():
    """The decoherence stage evaluates decoherence_time at each size of the CLI's grid, which holds zmin alone for one
    point and refuses an empty curve, a repeated size and reversed bounds before any stage."""
    grid = _decoherence_grid(PipelineSettings(decoherence_zmin_m=0.1e-9, decoherence_points=1))
    assert grid.tolist() == [0.1e-9]
    with pytest.raises(ConfigError, match="decoherence_points must be an integer > 0"):
        PipelineSettings(decoherence_points=0)
    repeated = PipelineSettings(decoherence_zmin_m=1e-9, decoherence_zmax_m=1.0000000000000002e-9)
    with pytest.raises(ConfigError, match="strictly increasing"):
        _decoherence_grid(repeated)
    for points in (1, 200):  # a one-point grid holds zmin alone, yet reversed bounds are refused there too
        reversed_bounds = PipelineSettings(decoherence_zmin_m=1e-9, decoherence_zmax_m=1e-10, decoherence_points=points)
        with pytest.raises(ConfigError, match="strictly increasing"):
            _decoherence_grid(reversed_bounds)


def test_config_file_round_trip(tmp_path):
    cfg = from_mapping(ExperimentConfig, load_key_values("reference.cfg"))
    assert derive(cfg).omega_s_rad_s == pytest.approx(TWO_PI * 70e3, rel=1e-9)


def test_config_mapping_starts_from_the_reference_config(tmp_path):
    """A file without ``waist_m`` keeps the calibrated 70 kHz waist, as ``levitomo --config`` does, and
    ``reference.cfg`` resolves to the dataclass defaults."""
    assert from_mapping(ExperimentConfig, {}) == ExperimentConfig()
    assert from_mapping(ExperimentConfig, load_key_values("reference.cfg")) == ExperimentConfig()
    path = tmp_path / "power.cfg"
    path.write_text("power_W = 0.65\n")
    cfg = from_mapping(ExperimentConfig, load_key_values(path))
    assert derive(cfg).omega_s_rad_s == pytest.approx(TWO_PI * 70e3, rel=1e-12)


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("wavelength_m = 1550e-9\nwaist_um = 1.0\n")
    with pytest.raises(ConfigError, match="waist_um"):
        from_mapping(ExperimentConfig, load_key_values(path))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "some.cfg"
    path.write_text("# comment\npower_W = 1.3  # trailing comment\n\nepsilon_r = 2.0\n")
    values = load_key_values(path)
    assert values == {"power_W": "1.3", "epsilon_r": "2.0"}
    path.write_text("power_W = 1.0\npower_W = 2.0\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_key_values(path)
    with pytest.raises(ConfigError, match="not found"):
        load_key_values(tmp_path / "missing.cfg")


def test_rayleigh_range_never_stored(config):
    # single source of truth: changing the waist moves z_R with it
    wider = dataclasses.replace(config, waist_m=2.0 * config.waist_m)
    assert wider.rayleigh_range_m == pytest.approx(4.0 * config.rayleigh_range_m, rel=1e-15)
