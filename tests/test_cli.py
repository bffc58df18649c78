import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import levitomo
from levitomo import artifacts, cli, detection, dynamics, spectral, tomography
from levitomo.cli import PipelineSettings, main
from levitomo.errors import ConfigError, SpectralError
from levitomo.physics import ExperimentConfig, decoherence_time, derive, from_mapping
from noise_floor import predicted_noise_floor

TWO_PI = 2.0 * math.pi

FAST_PIPELINE = [
    "--set",
    "sim_duration_s=0.1",
    "--set",
    "pressure_mbar=1.0",
    "--set",
    "psd_segment_len=16384",
]


def run(argv):
    return main([str(a) for a in argv])


def test_derive_writes_json_and_prints(tmp_path, capsys):
    assert run(["derive", "--config", "reference.cfg", "--out", tmp_path]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((tmp_path / "derived.json").read_text())
    assert printed == on_disk
    assert printed["omega_s_rad_s"] == pytest.approx(TWO_PI * 70e3, rel=1e-9)


def test_built_in_defaults_are_the_reference_file(tmp_path):
    """``derive`` without ``--config`` writes the bytes that ``derive --config reference.cfg`` writes."""
    assert run(["derive", "--out", tmp_path / "defaults"]) == 0
    assert run(["derive", "--config", "reference.cfg", "--out", tmp_path / "file"]) == 0
    assert (tmp_path / "defaults/derived.json").read_bytes() == (tmp_path / "file/derived.json").read_bytes()


def test_derive_power_override_doubles_frequency(tmp_path, capsys):
    assert run(["derive", "--out", tmp_path]) == 0
    base = json.loads(capsys.readouterr().out)["omega_s_rad_s"]
    assert run(["derive", "--out", tmp_path, "--set", "power_W=2.6"]) == 0
    boosted = json.loads(capsys.readouterr().out)["omega_s_rad_s"]
    assert boosted == pytest.approx(2.0 * base, rel=1e-12)


def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert run(["derive", "--config", missing, "--out", tmp_path]) == 2
    assert str(missing) in capsys.readouterr().err


def test_unknown_set_key_exits_2(tmp_path, capsys):
    assert run(["derive", "--out", tmp_path, "--set", "wavelenth_m=1e-6"]) == 2
    assert "wavelenth_m" in capsys.readouterr().err


def test_set_without_a_value_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["derive", "--out", out, "--set", "power_W"]) == 2
    assert capsys.readouterr().err == "configuration error: --set expects key=value, got 'power_W'\n"
    assert not out.exists()


@pytest.mark.parametrize("content", [None, b"power_W = 0.65\n\xff\xfe = 1\n"], ids=["name-too-long", "not-utf8"])
def test_config_file_that_cannot_be_read_fails_before_any_stage(tmp_path, capsys, content):
    """The configuration is read before ``--out`` exists, so a file whose name the file system refuses, or whose
    bytes are not UTF-8 text, is a configuration error, whatever raised it: exit 2, one stderr line, no ``--out``."""
    config, out = tmp_path / ("a" * 5000), tmp_path / "run"
    if content is not None:
        config = tmp_path / "bad.cfg"
        config.write_bytes(content)
    assert run(["derive", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    named = "File name too long" if content is None else f"{config}: not a UTF-8 text file"
    assert err.startswith("configuration error: ") and named in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_out_that_cannot_be_made_fails_before_any_stage(tmp_path, capsys):
    """``--out`` is made before any stage runs, so one that names an existing file is a configuration error: exit 2,
    one stderr line naming it, and the file is neither written nor renamed."""
    out = tmp_path / "a-file"
    out.touch()
    assert run(["derive", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(out) in err and len(err.splitlines()) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["a-file"] and out.read_bytes() == b""


@pytest.mark.parametrize("value", ["90.7", "abc", "90.0", "1e2", ""])
def test_integer_setting_is_never_truncated(tmp_path, capsys, value):
    assert run(["derive", "--out", tmp_path, "--set", f"n_angles={value}"]) == 2
    err = capsys.readouterr().err
    assert "n_angles" in err and "integer" in err


def test_fractional_integer_setting_fails_before_any_stage(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["pipeline", "--seed", 1, "--out", out, "--set", "marginal_grid_points=129.5"]) == 2
    assert "marginal_grid_points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    [
        "sim_duration_s=nan",
        "decoherence_zmin_m=0",
        "detection_model=foo",
        "cutoff_fraction=2",
        "n_angles=4",
        "marginal_grid_points=7",
        "wigner_grid_size=64",  # the output grid is the marginal grid; the key is gone
        "marginal_span_sigmas=0",
        "psd_segment_len=1000",
        "psd_overlap=1",
        "linearity_guard=0",
        "electronic_noise_counts_rms=-1",
        "marginal_grid_points=128",
        "marginal_grid_points=1",
        "coherent_amplitude_m=-1e-9",
        "coherent_amplitude_m=nan",
        "coherent_phase_rad=inf",
    ],
)
def test_invalid_setting_fails_before_any_stage(tmp_path, capsys, setting):
    out = tmp_path / "run"
    assert run(["pipeline", "--seed", 1, "--out", out] + FAST_PIPELINE + ["--set", setting]) == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, settings, named",
    [
        ("derive", ["waist_m=1e-120"], "range of a float"),
        ("derive", ["particle_radius_m=1e-120"], "range of a float"),
        ("derive", ["density_kg_m3=1e-320"], "range of a float"),
        ("derive", ["wavelength_m=1e-200"], "range of a float"),
        ("derive", ["power_W=1e300"], "derived omega_s_rad_s"),
        ("pipeline", ["phase_d_rad=1e308", "phase_s_rad=-1e308"], "phase_d_rad - phase_s_rad"),
    ],
)
def test_configuration_out_of_float_range_fails_before_any_stage(tmp_path, capsys, command, settings, named):
    """A derived quantity that leaves the range of a float, or a phase difference that overflows, is a configuration
    error: exit 2 before ``--out`` exists, not a traceback or a stage failure."""
    out = tmp_path / "run"
    assert run([command, "--out", out] + [arg for item in settings for arg in ("--set", item)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


UNDER_SAMPLED = ["sim_duration_s=0.1", "sim_sample_rate_hz=5e5", "integration_time_s=2e-6"]
UNDAMPED = ["sim_duration_s=0.1", "pressure_mbar=1e-322"]  # the gas damping rate underflows to 0
ONE_ULP_RANGE = ["decoherence_zmin_m=1e-9", "decoherence_zmax_m=1.0000000000000002e-9"]


@pytest.mark.parametrize(
    "command, settings, named",
    [
        ("pipeline", UNDER_SAMPLED, "does not resolve the oscillation"),
        ("simulate", UNDER_SAMPLED, "does not resolve the oscillation"),
        ("pipeline", UNDAMPED, "a thermal state needs damping"),
        ("simulate", UNDAMPED, "a thermal state needs damping"),
        ("decoherence", ONE_ULP_RANGE, "strictly increasing"),
        ("pipeline", ["sim_state=fock1"] + ONE_ULP_RANGE, "strictly increasing"),
        ("pipeline", ["sim_duration_s=0.1"] + ONE_ULP_RANGE, "strictly increasing"),
        ("decoherence", ["decoherence_zmax_m=1.7976931348623157e308"], "leaves the range of a float"),
    ],
)
def test_record_or_curve_a_stage_would_refuse_fails_before_any_stage(tmp_path, capsys, command, settings, named):
    """The pre-flight builds the record and the decoherence curve its stages build, so every check of the simulator
    and of the curve's grid refuses the run before ``--out`` exists: a 500 kHz record under the thermal simulator's
    sample-rate guard, a gas damping rate that underflows to 0, and 200 points between bounds one ulp apart."""
    out = tmp_path / "run"
    assert run([command, "--seed", 1, "--out", out] + [arg for item in settings for arg in ("--set", item)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "simulate"])
@pytest.mark.parametrize("window", ["1.5e-6", "0.2"], ids=["fractional-samples", "longer-than-record"])
def test_detection_window_that_cannot_tile_the_record_fails_before_any_stage(tmp_path, capsys, command, window):
    """The window follows from the settings alone, so a command that simulates refuses it before ``--out`` exists.

    ``detect --traj`` learns the rate from its file, so there the same window is a stage failure.
    """
    out = tmp_path / "run"
    window_set = ["--set", "sim_duration_s=0.1", "--set", f"integration_time_s={window}"]
    assert run([command, "--seed", 1, "--out", out] + window_set) == 2
    assert "configuration error: " in capsys.readouterr().err
    assert not out.exists()
    assert run(["simulate", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.1"]) == 0
    capsys.readouterr()
    assert run(["detect", "--traj", tmp_path / "trajectory.npy", "--out", out] + window_set) == 3
    assert "detect stage failed: " in capsys.readouterr().err


def test_fock_grid_below_the_output_minimum_fails_before_any_stage(tmp_path, capsys):
    """Every state reconstructs onto its marginal grid, so one rule holds for all: odd, and the output-grid minimum."""
    out = tmp_path / "run"
    assert run(["pipeline", "--seed", 1, "--out", out, "--state", "fock1", "--set", "marginal_grid_points=5"]) == 2
    assert "marginal_grid_points" in capsys.readouterr().err
    assert not out.exists()
    for state in ("thermal", "coherent", "fock1"):
        with pytest.raises(ConfigError, match="marginal_grid_points must be odd"):
            PipelineSettings(sim_state=state, marginal_grid_points=128)
        assert PipelineSettings(sim_state=state, marginal_grid_points=9).marginal_grid_points == 9


def test_sample_count_that_overflows_fails_before_any_stage(tmp_path, capsys):
    """Each factor is finite, but their product, the record's sample count, is not."""
    out = tmp_path / "run"
    sets = ["--set", "sim_duration_s=1e300", "--set", "sim_sample_rate_hz=1e300"]
    for command, state in (("pipeline", "thermal"), ("pipeline", "coherent"), ("simulate", "thermal")):
        assert run([command, "--seed", 1, "--out", out, "--set", f"sim_state={state}"] + sets) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
        assert "sim_duration_s" in err and "sim_sample_rate_hz" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "simulate"])
@pytest.mark.parametrize("state", ["thermal", "coherent"])
def test_record_under_the_minimum_sample_count_fails_before_any_stage(tmp_path, capsys, command, state):
    """5 samples at 1 MHz: a record of either state too short to simulate is refused before ``--out`` exists."""
    out = tmp_path / "run"
    assert run([command, "--state", state, "--seed", 1, "--out", out, "--set", "sim_duration_s=5e-6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
    assert f"5 samples, need at least {dynamics.MIN_SAMPLES}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "sets",
    [
        ["sim_duration_s=0.1", "psd_segment_len=1048576"],
        ["sim_duration_s=64e-6", "integration_time_s=4e-6"],  # 16 windows: the auto segment of 8 fits 3 times
    ],
    ids=["explicit-segment", "auto-segment"],
)
def test_record_with_too_few_welch_segments_fails_before_any_stage(tmp_path, capsys, sets):
    """The pipeline's spectra are of its window-rate counts; a record that holds too few segments is refused."""
    out = tmp_path / "run"
    assert run(["pipeline", "--seed", 1, "--out", out] + [arg for pair in sets for arg in ("--set", pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
    assert "psd_segment_len" in err and f"need {spectral.MIN_SEGMENTS}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, refusal",
    [
        ("psd_segment_len=64", "holds fewer than 8 PSD bins of 15625 Hz"),
        ("n_angles=1001", f"put {tomography.DEFAULT_MIN_OCCUPANCY} in each of n_angles = 1001 bins"),
    ],
    ids=["line-window", "angle-bins"],
)
def test_counts_the_stages_cannot_use_fail_before_any_stage(tmp_path, capsys, setting, refusal):
    """The 0.1 s record's 100000 windows at 1 MHz: 64-sample segments leave the line fit's 35-105 kHz window 4
    bins, and no phase binning puts 100 samples in each of 1001 angle bins."""
    out = tmp_path / "run"
    assert run(["pipeline", "--seed", 1, "--out", out, "--set", "sim_duration_s=0.1", "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
    assert refusal in err
    assert not out.exists()


def test_line_window_of_nine_bins_runs(tmp_path):
    """128-sample segments give the line fit's window 9 bins, enough to fit in."""
    sets = ["--set", "sim_duration_s=0.1", "--set", "psd_segment_len=128"]
    assert run(["pipeline", "--seed", 1, "--out", tmp_path] + sets) == 0
    assert json.loads((tmp_path / "psd_ch.json").read_text())["df_Hz"] == 7812.5


@pytest.mark.parametrize("segment_len", [1000, 4])
def test_settings_and_welch_refuse_a_segment_length_in_the_same_words(segment_len):
    with pytest.raises(ConfigError) as config_error:
        PipelineSettings(psd_segment_len=segment_len)
    with pytest.raises(SpectralError) as spectral_error:
        spectral.estimate_psd(np.zeros(1 << 12), 1.0, segment_len)
    assert str(config_error.value) == str(spectral_error.value)
    assert f"got {segment_len}" in str(spectral_error.value)


def test_fock1_pipeline_ignores_the_record_size(tmp_path, capsys):
    """fock1 simulates no record, so a sample count that would overflow does not stop it."""
    sets = ["--set", "sim_duration_s=1e300", "--set", "sim_sample_rate_hz=1e300"]
    assert run(["pipeline", "--state", "fock1", "--seed", 1, "--out", tmp_path] + sets) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "wigner.npy").is_file()


def test_record_too_large_to_allocate_is_a_stage_failure(tmp_path, capsys):
    """An exabyte record is refused at once, before any of it is simulated: its file cannot fit on the disk. The
    run leaves only the ``.partial`` file of the stage before."""
    assert run(["pipeline", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=1e12"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline stage failed: ") and len(err.splitlines()) == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["derived.json.partial"]


@pytest.mark.parametrize("command", ["pipeline", "simulate"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--seed", -1, "--out", out])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_non_integer_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        run(["derive", "--seed", "abc", "--out", out])
    assert exit_info.value.code == 2
    assert "--seed: expected a non-negative integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_unparsable_float_setting_exits_2(tmp_path, capsys):
    assert run(["derive", "--out", tmp_path, "--set", "sim_duration_s=abc"]) == 2
    assert "sim_duration_s" in capsys.readouterr().err


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineSettings) if f.type in ("float", "int")])
def test_non_number_setting_is_a_config_error(name):
    """A string in a numeric field is a :class:`ConfigError` naming the field, as for the experiment config."""
    with pytest.raises(ConfigError, match=f"{name} must be an? (finite number|integer)"):
        PipelineSettings(**{name: "0.1"})


@pytest.mark.parametrize("command", ["pipeline", "simulate"])
@pytest.mark.parametrize("setting", ["pressure_mbar=1e4", "temperature_K=1e-300", "temperature_K=5e-324"])
def test_overdamped_thermal_record_fails_before_any_stage(tmp_path, capsys, command, setting):
    """Gas damping at or above 2 omega_s has no underdamped transition to simulate; at 5e-324 K the gas's thermal
    speed rounds to 0 and the damping rate is infinite."""
    out = tmp_path / "run"
    assert run([command, "--seed", 1, "--out", out, "--set", "sim_duration_s=0.1", "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: damping rate ") and "not underdamped" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_overdamped_gas_does_not_stop_a_coherent_record(tmp_path):
    """A coherent record is simulated without damping, so the gas damping rate is not checked for it."""
    sets = ["--set", "sim_duration_s=0.1", "--set", "pressure_mbar=1e4"]
    assert run(["simulate", "--state", "coherent", "--out", tmp_path] + sets) == 0


def test_integer_settings_accept_integer_literals():
    mapping = {"n_angles": " 120 ", "psd_segment_len": "+4096", "decoherence_points": 7}
    settings = from_mapping(PipelineSettings, mapping)
    assert (settings.n_angles, settings.psd_segment_len, settings.decoherence_points) == (120, 4096, 7)


def test_boolean_settings_set_true(tmp_path, capsys):
    """``true`` and ``yes`` set a boolean; the textbook Rayleigh form scales the scattering rate by eps_c / 3."""
    config, settings = cli.resolve_settings(None, ["rayleigh_standard_form=true", "shot_noise=yes"])
    assert config.rayleigh_standard_form is True and settings.shot_noise is True
    assert run(["derive", "--out", tmp_path / "plain"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert run(["derive", "--out", tmp_path / "standard", "--set", "rayleigh_standard_form=true"]) == 0
    standard = json.loads(capsys.readouterr().out)
    ratio = plain["epsilon_c"] / 3.0
    assert standard["gamma_scatter_per_s"] == pytest.approx(ratio * plain["gamma_scatter_per_s"], rel=1e-12)


@pytest.mark.parametrize("cls, count", [(ExperimentConfig, 15), (PipelineSettings, 20)])
def test_every_setting_default_has_its_annotated_type(cls, count):
    """A setting's text is parsed as the type of the field's default, so that type must be the annotated one."""
    assert len(fields(cls)) == count
    for f in fields(cls):
        assert type(f.default).__name__ == f.type, f.name


# the thread-count variables of numpy's BLAS builds; OpenBLAS falls back on the second and third
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def fresh_python(code: str, **blas_env: str) -> str:
    """The stdout of a fresh interpreter that runs ``code`` with this package on its path and, of the BLAS thread
    variables, only ``blas_env``: importing ``levitomo.cli`` in this process has set one in ``os.environ``."""
    src = str(Path(levitomo.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_ENV}
    env.update(blas_env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def loaded_modules(code: str, package: str) -> set[str]:
    """``package`` and its modules one level down, as far as a fresh interpreter that runs ``code`` with this package
    on its path loaded them."""
    depth = package.count(".") + 1
    report = (
        "import sys; print(*(m for m in sys.modules"
        f" if m.split('.')[:{depth}] == {package.split('.')!r} and m.count('.') <= {depth}))"
    )
    return set(fresh_python(f"{code}\n{report}").split())


def test_package_import_loads_no_numpy():
    """``import levitomo`` loads no numpy, so ``cli`` sets its BLAS thread default before numpy loads, under
    ``python -m levitomo.cli`` and under the ``levitomo`` console script alike."""
    loaded = loaded_modules("import levitomo", "numpy")
    assert not loaded, f"import levitomo loaded {sorted(loaded)}"


@pytest.mark.skipif(
    not (Path("/proc/self/task").is_dir() and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1),
    reason="needs /proc/self/task and two usable CPUs",
)
def test_cli_import_starts_no_blas_threads():
    """With no BLAS variable set, a process that imports the CLI runs one OS thread: numpy's OpenBLAS would start a
    worker for every usable CPU but the first."""
    assert fresh_python("import os, levitomo.cli; print(len(os.listdir('/proc/self/task')))").strip() == "1"


def test_cli_import_keeps_the_callers_blas_threads():
    """A BLAS thread count the caller exported stays as it was."""
    code = "import os, levitomo.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2").strip() == "2"


def test_cli_import_loads_no_scipy():
    """The package is numpy-only: importing the CLI loads no scipy module.

    The runs themselves load none either, see
    ``test_thermal_runs_load_no_scipy``.
    """
    loaded = loaded_modules("import levitomo.cli", "scipy")
    assert not loaded, f"import levitomo.cli loaded {sorted(loaded)}"


def test_thermal_runs_load_no_scipy(tmp_path):
    """A thermal pipeline run (simulate, detect, invert, Welch, line fit, tomography)
    and a ``psd --traj`` run on its trajectory load no scipy module."""
    out = tmp_path / "run"
    argv = ["pipeline", "--seed", "1", "--out", str(out)] + FAST_PIPELINE
    psd_argv = ["psd", "--traj", str(out / "trajectory.npy"), "--out", str(tmp_path / "psd")] + FAST_PIPELINE
    code = (
        "from contextlib import redirect_stdout\n"
        "from io import StringIO\n"
        "from levitomo.cli import main\n"
        "with redirect_stdout(StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"    assert main({psd_argv!r}) == 0"
    )
    loaded = loaded_modules(code, "scipy")
    assert not loaded, f"the runs loaded {sorted(loaded)}"


def test_runs_import_no_numpy_ma(tmp_path):
    """A fock1 pipeline and a 0.05 s thermal pipeline never import ``numpy.ma``, about 17 ms of a fresh process.

    ``np.median`` and ``np.unique`` would: the line fit takes its medians from a partition.
    """
    fock = ["pipeline", "--state", "fock1", "--out", str(tmp_path / "fock")]
    thermal = ["pipeline", "--seed", "1", "--out", str(tmp_path / "thermal"), "--set", "sim_duration_s=0.05"]
    code = (
        "from contextlib import redirect_stdout\n"
        "from io import StringIO\n"
        "from levitomo.cli import main\n"
        "with redirect_stdout(StringIO()):\n"
        f"    assert main({fock!r}) == 0\n"
        f"    assert main({thermal!r}) == 0"
    )
    loaded = loaded_modules(code, "numpy.ma")
    assert not loaded, f"the runs loaded {sorted(loaded)}"


def test_cli_import_loads_no_openssl():
    """``hashlib`` loads OpenSSL's ``_hashlib``, 3.7 MB resident, which the CLI needs only to digest a run's files."""
    assert fresh_python("import sys, levitomo.cli; print('_hashlib' in sys.modules)").strip() == "False"


def test_fock1_run_loads_openssl_only_after_its_reconstruction(tmp_path):
    """A fock1 pipeline draws no random numbers, so ``_hashlib`` loads with the first digest, after the last stage,
    and the back-projection's peak holds no OpenSSL."""
    argv = ["pipeline", "--state", "fock1", "--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from contextlib import redirect_stdout\n"
        "from io import StringIO\n"
        "from levitomo import tomography\n"
        "from levitomo.cli import main\n"
        "analyze, seen = tomography.analyze, []\n"
        "def probed(wigner):\n"
        "    report = analyze(wigner)\n"
        "    seen.append('_hashlib' in sys.modules)\n"
        "    return report\n"
        "tomography.analyze = probed\n"
        "with redirect_stdout(StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(*seen, '_hashlib' in sys.modules)"
    )
    assert fresh_python(code).split() == ["False", "True"]


def test_run_digests_each_file_once_after_its_last_stage(tmp_path, monkeypatch):
    """Every file a thermal run read or wrote is digested once, and only once the last stage, decoherence, has
    written its last file."""
    out, calls, sha256 = tmp_path / "run", [], cli._sha256

    def counted(path):
        calls.append((path, (out / "decoherence.json").is_file()))
        return sha256(path)

    monkeypatch.setattr(cli, "_sha256", counted)
    assert run(["pipeline", "--config", "reference.cfg", "--seed", 1, "--out", out, "--set", "sim_duration_s=0.1"]) == 0
    paths = [path for path, _ in calls]
    assert len(paths) == len(set(paths)) and all(after for _, after in calls)
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert set(paths) == {out / rel for stage in stages for rel in stage["outputs"]} | {Path("reference.cfg")}


def test_failed_run_hashes_nothing(tmp_path, monkeypatch, capsys):
    """A run that fails in a stage writes no manifest, so it digests no file: here the linearity guard at 300 K."""
    calls = []
    monkeypatch.setattr(cli, "_sha256", calls.append)
    argv = ["pipeline", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.1", "--set", "sim_temperature_K=300"]
    assert run(argv) == 3
    assert "linearity guard violated" in capsys.readouterr().err
    assert calls == []


def test_decoherence_single_point(tmp_path):
    assert run(
        ["decoherence", "--out", tmp_path, "--zmin", "1e-10", "--zmax", "1e-9", "--npoints", "1"]
    ) == 0
    taus = np.load(tmp_path / "decoherence.npy", allow_pickle=False)
    info = json.loads((tmp_path / "decoherence.json").read_text())
    assert set(info) == {"delta_z_m"}
    [dz], [tau] = info["delta_z_m"], taus.tolist()
    assert dz == 1e-10
    assert tau == pytest.approx(decoherence_time(1e-10, derive(ExperimentConfig())), rel=1e-12)


def test_decoherence_beyond_float_squares_warns_nothing(tmp_path, capsys):
    """Superposition sizes whose square leaves the range of a float take the saturated 1/gamma, with no warning."""
    sets = ["--set", "decoherence_zmin_m=1e-300", "--set", "decoherence_zmax_m=1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["decoherence", "--out", tmp_path] + sets) == 0
    assert capsys.readouterr().err == ""
    taus = np.load(tmp_path / "decoherence.npy", allow_pickle=False)
    assert taus[0] == math.inf and taus[-1] == 1.0 / derive(ExperimentConfig()).gamma_scatter_per_s


@pytest.mark.parametrize(
    "sets",
    [[], ["decoherence_zmin_m=1e-300", "decoherence_zmax_m=1e300", "decoherence_points=10000"]],
    ids=["default", "1e4-points-across-the-float-range"],
)
def test_decoherence_npy_is_decoherence_time_at_each_listed_size(tmp_path, sets):
    """Each value of ``decoherence.npy`` is, bit for bit, ``decoherence_time`` at the size its sidecar lists; the wide
    grid crosses the quadratic regime's underflow to infinity, the knee and the saturated 1/gamma."""
    dq = derive(ExperimentConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["decoherence", "--out", tmp_path] + [arg for item in sets for arg in ("--set", item)]) == 0
        sizes = json.loads((tmp_path / "decoherence.json").read_text())["delta_z_m"]
        expected = np.array([decoherence_time(dz, dq) for dz in sizes])
    assert np.load(tmp_path / "decoherence.npy", allow_pickle=False).tobytes() == expected.tobytes()
    if sets:
        saturated = 1.0 / dq.gamma_scatter_per_s
        assert expected[0] == math.inf and expected[-1] == saturated
        assert any(saturated < tau < math.inf for tau in expected)


def test_decoherence_doubling_power_halves_saturated_tau(tmp_path):
    taus = []
    for power, sub in (("0.65", "a"), ("1.3", "b")):
        out = tmp_path / sub
        assert run(
            [
                "decoherence",
                "--out",
                out,
                "--zmin",
                "0.5",
                "--zmax",
                "1.0",
                "--npoints",
                "2",
                "--set",
                f"power_W={power}",
            ]
        ) == 0
        taus.append(float(np.load(out / "decoherence.npy", allow_pickle=False)[-1]))
    assert taus[1] == pytest.approx(0.5 * taus[0], rel=1e-6)


def test_decoherence_invalid_range(tmp_path, capsys):
    assert run(["decoherence", "--out", tmp_path, "--zmin", "1e-9", "--zmax", "1e-10"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["decoherence", "--npoints", 2**62], ["pipeline", "--set", f"decoherence_points={2**62}"] + FAST_PIPELINE],
    ids=["decoherence", "pipeline"],
)
def test_decoherence_grid_numpy_cannot_address_fails_before_any_stage(tmp_path, capsys, argv):
    """A grid of 2^62 points, more than numpy can address, is refused by the bound on the points before numpy sees
    it."""
    out = tmp_path / "run"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: decoherence_points = {2**62} ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_decoherence_grid_too_large_to_allocate_fails_before_any_stage(tmp_path, capsys, monkeypatch):
    """A ``MemoryError`` of the pre-flight is a configuration error too. It is raised by a stand-in here, at the bound
    on the points: a grid that size takes 800 kB, which any host allocates."""

    def unable_to_allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 781. KiB for an array")

    monkeypatch.setattr(np, "logspace", unable_to_allocate)
    out = tmp_path / "run"
    assert run(["decoherence", "--npoints", cli._MAX_DECOHERENCE_POINTS, "--out", out]) == 2
    assert capsys.readouterr().err == "configuration error: Unable to allocate 781. KiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["decoherence", "--npoints", 100001], ["pipeline", "--set", "decoherence_points=100001"] + FAST_PIPELINE],
    ids=["decoherence", "pipeline"],
)
def test_decoherence_grid_above_the_bound_fails_before_any_stage(tmp_path, capsys, argv):
    """A curve of 100,001 sizes is one more than a curve takes: refused before ``--out`` exists, in one line."""
    out = tmp_path / "run"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: decoherence_points = 100001 ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_simulate_then_detect_then_psd(tmp_path):
    assert run(
        ["simulate", "--out", tmp_path, "--seed", 3, "--set", "sim_duration_s=0.05", "--set", "pressure_mbar=1.0"]
    ) == 0
    traj_npy = tmp_path / "trajectory.npy"
    assert traj_npy.is_file()
    assert run(["detect", "--traj", traj_npy, "--out", tmp_path, "--seed", 4]) == 0
    assert (tmp_path / "counts_ch.npy").is_file()
    assert (tmp_path / "counts_cbh.npy").is_file()
    assert run(["psd", "--traj", traj_npy, "--out", tmp_path, "--set", "psd_segment_len=8192"]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["omega0_rad_s"] == pytest.approx(TWO_PI * 70e3, rel=0.01)


@pytest.mark.parametrize("rate", ["1e6", "3e6"])
def test_staged_subcommands_reproduce_pipeline_files(tmp_path, rate):
    """simulate then detect with the pipeline's --seed derive its stage seeds and write its files.

    At 3 MHz the reciprocal of a mean sample step would be an ulp off the
    simulated rate; ``detect`` takes the exact rate from the sidecar.
    """
    staged, piped = tmp_path / "staged", tmp_path / "pipeline"
    common = ["--seed", 9, "--set", f"sim_sample_rate_hz={rate}"] + FAST_PIPELINE
    assert run(["simulate", "--out", staged] + common) == 0
    assert run(["detect", "--traj", staged / "trajectory.npy", "--out", staged] + common) == 0
    assert run(["pipeline", "--out", piped] + common) == 0
    for name in ("trajectory", "counts_ch", "counts_cbh"):
        for suffix in (".npy", ".json"):
            rel = name + suffix
            assert (staged / rel).read_bytes() == (piped / rel).read_bytes(), rel


def test_simulate_fock_state_rejected(tmp_path, capsys):
    """One rule for every way the state is set: fock1 has no trajectory, and no ``--out`` is made for it."""
    cfg = tmp_path / "fock.cfg"
    cfg.write_text("sim_state = fock1\n")
    for n, state in enumerate((["--state", "fock1"], ["--set", "sim_state=fock1"], ["--config", cfg])):
        out = tmp_path / f"run{n}"
        assert run(["simulate", "--out", out] + state) == 2
        assert "oracle" in capsys.readouterr().err
        assert not out.exists(), state


def test_pipeline_end_to_end_and_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["pipeline", "--config", "reference.cfg", "--seed", 11, "--out", out] + FAST_PIPELINE) == 0
    expected = [
        "trajectory.npy",
        "trajectory.json",
        "counts_ch.npy",
        "counts_ch.json",
        "counts_cbh.npy",
        "counts_cbh.json",
        "calibration.json",
        "psd_ch.npy",
        "psd_ch.json",
        "psd_cbh.npy",
        "psd_cbh.json",
        "fit_ch.json",
        "fit_cbh.json",
        "marginals.npy",
        "marginals.json",
        "wigner.npy",
        "wigner.json",
        "analyze.json",
        "decoherence.npy",
        "decoherence.json",
        "derived.json",
        "manifest.json",
        "timings.json",
    ]
    assert sorted(path.relative_to(out_a).as_posix() for path in out_a.rglob("*") if path.is_file()) == sorted(expected)
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
    report = json.loads((out_a / "analyze.json").read_text())
    assert abs(report["total_integral"] - 1.0) < 0.05
    assert report["gaussian_fit"]["r_squared"] > 0.9


@pytest.mark.parametrize("extra", [FAST_PIPELINE, ["--state", "fock1"]], ids=["thermal", "fock1"])
def test_no_two_artifacts_share_a_digest(tmp_path, extra):
    assert run(["pipeline", "--seed", 11, "--out", tmp_path] + extra) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    outputs = {rel: digest for stage in manifest["stages"] for rel, digest in stage["outputs"].items()}
    by_digest = {}
    for rel, digest in sorted(outputs.items()):
        assert digest not in by_digest, f"{rel} duplicates {by_digest[digest]}"
        by_digest[digest] = rel


# the settings a fock1 oracle run reads: the trap's for derived.json, the grid, the cutoff and the decoherence curve
FOCK1_SETTINGS = {
    "wavelength_m",
    "power_W",
    "waist_m",
    "particle_radius_m",
    "density_kg_m3",
    "epsilon_r",
    "rayleigh_standard_form",
    "sim_state",
    "n_angles",
    "marginal_grid_points",
    "cutoff_fraction",
    "decoherence_zmin_m",
    "decoherence_zmax_m",
    "decoherence_points",
}
EVERY_SETTING = {f.name for cls in (ExperimentConfig, PipelineSettings) for f in fields(cls)}


@pytest.mark.parametrize(
    "extra, unread, listed",
    [
        (["--state", "fock1"], ["marginal_span_sigmas=3", "psd_overlap=0.1"], FOCK1_SETTINGS),
        (FAST_PIPELINE, ["coherent_amplitude_m=3e-9"], EVERY_SETTING - {"coherent_amplitude_m", "coherent_phase_rad"}),
    ],
    ids=["fock1", "thermal"],
)
def test_manifest_lists_only_the_settings_the_run_read(tmp_path, extra, unread, listed):
    """A setting the run never reads is not in its manifest, so changing it leaves the manifest's bytes alone."""
    plain, changed = tmp_path / "plain", tmp_path / "changed"
    assert run(["pipeline", "--seed", 1, "--out", plain] + extra) == 0
    assert run(["pipeline", "--seed", 1, "--out", changed] + extra + [a for s in unread for a in ("--set", s)]) == 0
    assert (plain / "manifest.json").read_bytes() == (changed / "manifest.json").read_bytes()
    assert set(json.loads((plain / "manifest.json").read_text())["config"]) == listed


def test_pipeline_coherent_auto_calibration_is_linear(tmp_path):
    """A deterministic oscillation is never rescaled to the thermal equipartition variance."""
    assert run(["pipeline", "--state", "coherent", "--seed", 1, "--out", tmp_path] + FAST_PIPELINE) == 0
    meta = json.loads((tmp_path / "calibration.json").read_text())
    assert meta["calibration"] == "linear"
    assert "equipartition_scale" not in meta


@pytest.mark.parametrize("state", ["thermal", "coherent"])
def test_calibration_record_rebuilds_the_binned_positions(tmp_path, state):
    """``calibration.json``'s map, applied with numpy to the counts file it names, gives the positions that, binned at
    the fitted frequency on the marginals' grid, give ``marginals.npy`` bit for bit."""
    assert run(["pipeline", "--state", state, "--seed", 1, "--out", tmp_path] + FAST_PIPELINE) == 0
    cal = json.loads((tmp_path / "calibration.json").read_text())
    z = (np.load(tmp_path / cal["counts_file"], allow_pickle=False) - cal["offset"]) / cal["d_eff"]
    if cal["calibration"] == "equipartition":
        z = (z - cal["mean_m"]) * cal["equipartition_scale"]
    assert cal["calibration"] == ("equipartition" if state == "thermal" else "linear")
    assert (cal["counts_file"], z.size) == ("counts_cbh.npy", cal["n_samples"])
    axis = {key: cal[key] for key in ("t0_s", "sample_rate_Hz")}

    grid = json.loads((tmp_path / "marginals.json").read_text())
    omega0 = json.loads((tmp_path / f"fit_{cal['scheme']}.json").read_text())["omega0_rad_s"]
    positions = dynamics.Trajectory(z_m=z, **axis)
    binned = tomography.bin_marginals(positions, omega0, len(grid["angles_rad"]), grid["z_grid_m"])
    assert binned.densities.tobytes() == np.load(tmp_path / "marginals.npy", allow_pickle=False).tobytes()
    # both stages that read the counts name them by the digest the detect stage recorded
    stages = {stage["name"]: stage for stage in json.loads((tmp_path / "manifest.json").read_text())["stages"]}
    counts = {"counts": stages["detect"]["outputs"][cal["counts_file"]]}
    assert stages["invert"]["inputs"] == stages["tomography"]["inputs"] == counts


def test_pipeline_seed_changes_artifacts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["pipeline", "--seed", 11, "--out", out_a] + FAST_PIPELINE) == 0
    assert run(["pipeline", "--seed", 12, "--out", out_b] + FAST_PIPELINE) == 0
    assert (out_a / "manifest.json").read_bytes() != (out_b / "manifest.json").read_bytes()


def test_pipeline_fock_oracle_mode(tmp_path, capsys):
    assert run(["pipeline", "--state", "fock1", "--out", tmp_path, "--seed", 2]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("wrote ") and str(tmp_path / "analyze.json") in printed.split(", ")
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert report["min_value"] < -0.2


def test_pipeline_fock_oracle_honours_the_cutoff(tmp_path):
    """fock1 goes through the one tomography stage, so ``cutoff_fraction`` changes its reconstruction."""
    default, lowered = tmp_path / "default", tmp_path / "lowered"
    assert run(["pipeline", "--state", "fock1", "--out", default]) == 0
    assert run(["pipeline", "--state", "fock1", "--out", lowered, "--set", "cutoff_fraction=0.3"]) == 0
    assert (default / "marginals.npy").read_bytes() == (lowered / "marginals.npy").read_bytes()
    assert (default / "wigner.npy").read_bytes() != (lowered / "wigner.npy").read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args",
    [
        ["--state", "fock1", "--set", "marginal_grid_points=9", "--set", "cutoff_fraction=5e-324"],
        ["--config", "reference.cfg", "--set", "sim_duration_s=0.1", "--set", "cutoff_fraction=1e-310"],
    ],
    ids=["fock1-9-points", "reference-0.1s"],
)
def test_cutoff_that_passes_no_ramp_bin_fails_before_any_stage(tmp_path, capsys, args):
    """The Hann taper is 0 at the cutoff, so a ``cutoff_fraction`` at or below 2 / n_fft passes the DC bin alone, or
    underflows to 0 and passes nothing (n_fft is 64 for 9 grid points, 1024 for 129): the run is refused before
    ``--out`` exists."""
    out = tmp_path / "run"
    assert run(["pipeline", "--seed", 1, "--out", out] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cutoff_fraction") and len(err.splitlines()) == 1
    assert not out.exists()


def test_cutoff_floor_is_two_over_the_padded_length():
    """9 grid points pad to 64: the floor 2 / 64 is refused, and the next float above it accepted."""
    with pytest.raises(ConfigError, match=re.escape("cutoff_fraction must be in (2 / 64, 1]")):
        PipelineSettings(marginal_grid_points=9, cutoff_fraction=2 / 64)
    assert PipelineSettings(marginal_grid_points=9, cutoff_fraction=math.nextafter(2 / 64, 1.0))


def test_pipeline_stage_failure_keeps_partial_artifacts(tmp_path, capsys):
    code = run(
        ["pipeline", "--seed", 5, "--out", tmp_path] + FAST_PIPELINE + ["--set", "n_angles=1000"]
    )
    assert code == 3
    assert "under-sampled" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()
    assert (tmp_path / "trajectory.npy.partial").is_file()
    assert not (tmp_path / "trajectory.npy").exists()


def test_negative_expected_count_is_a_stage_failure(tmp_path, capsys):
    """A guard loosened past the fringe lets the linear model's expected count go negative, which no Poisson draw
    takes: the detect stage fails after ``simulate`` has written, and every file is left ``.partial``."""
    sets = ["--set", "sim_duration_s=0.01", "--set", "sim_temperature_K=300", "--set", "linearity_guard=10"]
    assert run(["pipeline", "--seed", 1, "--out", tmp_path] + sets) == 3
    assert capsys.readouterr().err == "pipeline stage failed: arm 1 has negative expected count at window 0\n"
    names = [path.name for path in tmp_path.iterdir()]
    assert "trajectory.npy.partial" in names and [name for name in names if not name.endswith(".partial")] == []


def test_failed_second_line_fit_marks_the_first_schemes_files(tmp_path, monkeypatch, capsys):
    """A stage that fails part-way marks the files it wrote before the failure."""
    fit_lorentzian = spectral.fit_lorentzian
    calls = []

    def second_fit_fails(psd, window):
        calls.append(window)
        if len(calls) == 2:
            raise SpectralError("no line in the second spectrum")
        return fit_lorentzian(psd, window)

    monkeypatch.setattr(spectral, "fit_lorentzian", second_fit_fails)
    assert run(["pipeline", "--seed", 5, "--out", tmp_path] + FAST_PIPELINE) == 3
    assert "no line in the second spectrum" in capsys.readouterr().err
    for name in ("trajectory.npy", "psd_ch.npy", "psd_ch.json", "fit_ch.json"):
        assert (tmp_path / f"{name}.partial").is_file(), name
        assert not (tmp_path / name).exists(), name


@pytest.mark.parametrize(
    "blocked, written",
    [
        ("psd_ch.npy", ["trajectory.npy", "trajectory.json", "counts_cbh.npy", "calibration.json"]),
        ("trajectory.json", ["trajectory.npy"]),
        ("counts_cbh.npy", ["trajectory.npy", "trajectory.json", "counts_ch.npy", "counts_ch.json"]),
    ],
)
def test_unwritable_output_is_a_stage_failure(tmp_path, capsys, blocked, written):
    """A directory in place of an output file fails the stage; every file written so far is marked."""
    (tmp_path / blocked).mkdir()
    assert run(["pipeline", "--seed", 5, "--out", tmp_path] + FAST_PIPELINE) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline stage failed:") and blocked in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "manifest.json").exists()
    for name in written:
        assert (tmp_path / f"{name}.partial").is_file(), name
        assert not (tmp_path / name).exists(), name


@pytest.mark.parametrize(
    "command, blocked, written",
    [
        ("derive", "derived.json", []),
        ("simulate", "trajectory.json", ["trajectory.npy"]),
        ("detect", "counts_cbh.npy", ["counts_ch.npy", "counts_ch.json"]),
        ("psd", "fit.json", ["psd.npy", "psd.json"]),
        ("tomo", "analyze.json", ["marginals.npy", "marginals.json", "wigner.npy", "wigner.json"]),
        ("decoherence", "decoherence.npy", []),
    ],
)
def test_failed_subcommand_marks_every_file_it_wrote(tmp_path, capsys, command, blocked, written):
    """Every subcommand, not only ``pipeline``, leaves no file of a failed run under its final name."""
    traj = stage_input(tmp_path / "input", command)
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    capsys.readouterr()
    assert run([command, "--seed", 1, "--out", out] + traj + FAST_PIPELINE) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{command} stage failed:") and blocked in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert sorted(path.name for path in out.iterdir()) == sorted([blocked] + [name + ".partial" for name in written])


def test_non_finite_report_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    """A report that holds an infinity, which JSON cannot store, fails the stage; its file is left ``.partial``."""
    analyze = tomography.analyze
    monkeypatch.setattr(tomography, "analyze", lambda w: replace(analyze(w), min_value=-math.inf))
    assert run(["pipeline", "--state", "fock1", "--seed", 1, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline stage failed:") and "analyze.json" in err and "NaN or infinity" in err
    assert (tmp_path / "analyze.json.partial").is_file() and not (tmp_path / "analyze.json").exists()
    assert (tmp_path / "wigner.npy.partial").is_file() and not (tmp_path / "manifest.json").exists()


def test_failed_back_projection_worker_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    """A row block that runs out of memory fails the tomography stage; no Wigner grid is written."""

    def out_of_memory(*args):
        raise MemoryError("row block")

    monkeypatch.setattr(tomography, "_back_project_block", out_of_memory)
    assert run(["pipeline", "--state", "fock1", "--seed", 1, "--out", tmp_path]) == 3
    assert capsys.readouterr().err.startswith("pipeline stage failed: row block")
    assert not (tmp_path / "wigner.npy").exists() and not (tmp_path / "analyze.json").exists()


def test_configuration_error_inside_a_stage_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    """The exit code follows when a run fails, not the class of what failed it: once ``--out`` exists, even a
    :class:`ConfigError` exits 3 and leaves the files written so far ``.partial``."""

    def refused(wigner):
        raise ConfigError("analysis refused")

    monkeypatch.setattr(tomography, "analyze", refused)
    assert run(["pipeline", "--state", "fock1", "--seed", 1, "--out", tmp_path]) == 3
    assert capsys.readouterr().err == "pipeline stage failed: analysis refused\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["derived.json.partial"]


def test_failed_rerun_leaves_no_result_of_the_earlier_run(tmp_path, capsys):
    """A rerun into the same ``--out`` that fails leaves only ``.partial`` names, the earlier run's results included."""
    assert run(["pipeline", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.1"]) == 0
    assert (tmp_path / "manifest.json").is_file() and (tmp_path / "wigner.npy").is_file()
    rerun = ["pipeline", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.1", "--set", "n_angles=1000"]
    assert run(rerun) == 3
    assert "under-sampled" in capsys.readouterr().err
    left = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_file())
    assert "manifest.json.partial" in left and "decoherence.npy.partial" in left
    assert [name for name in left if not name.endswith(".partial")] == []


def test_failed_rerun_retires_an_earlier_manifest_that_is_not_json(tmp_path, capsys):
    """An earlier manifest that cannot be read lists no result: a failed rerun retires it and its timings, and every
    other file in ``--out`` keeps its name."""
    (tmp_path / "manifest.json").write_text("not json")
    (tmp_path / "timings.json").write_text("{}")
    (tmp_path / "notes.txt").write_text("kept")
    (tmp_path / "derived.json").mkdir()  # the first file the run writes cannot be written
    assert run(["pipeline", "--state", "fock1", "--out", tmp_path]) == 3
    assert capsys.readouterr().err.startswith("pipeline stage failed: ")
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["derived.json", "manifest.json.partial", "notes.txt", "timings.json.partial"]


def test_guard_checks_the_samples_after_the_last_whole_window_of_a_record(tmp_path, capsys):
    """3-sample windows tile 16383 of a 16384-sample record: the last sample is in no window, and a block of it alone
    draws no count, yet the guard still checks it."""
    assert run(["simulate", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.016384"]) == 0
    npy = tmp_path / "trajectory.npy"
    detect = ["detect", "--seed", 1, "--traj", npy, "--set", "integration_time_s=3e-6"]
    assert run(detect + ["--out", tmp_path / "whole"]) == 0
    assert np.load(tmp_path / "whole" / "counts_ch.npy").size == 5461
    z = np.load(npy)
    z[-1] = 1e-6
    np.save(npy, z)
    capsys.readouterr()
    assert run(detect + ["--out", tmp_path / "beyond"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("detect stage failed: linearity guard violated: ") and "at sample 16383 " in err, err


def test_failed_stage_subcommand_keeps_the_record_it_read(tmp_path, capsys):
    """Stage subcommands share one ``--out``: a detect that fails there leaves the trajectory it read, and marks the
    counts it was writing partial."""
    assert run(["simulate", "--seed", 1, "--out", tmp_path] + FAST_PIPELINE) == 0
    traj = tmp_path / "trajectory.npy"
    assert run(["detect", "--traj", traj, "--out", tmp_path, "--set", "linearity_guard=1e-6"] + FAST_PIPELINE) == 3
    assert "linearity guard" in capsys.readouterr().err
    assert traj.is_file() and (tmp_path / "trajectory.json").is_file()
    # the guard fails as the counts are written: the file it was writing is left partial, with no sidecar
    assert (tmp_path / "counts_ch.npy.partial").is_file()
    assert not (tmp_path / "counts_ch.npy").exists() and not (tmp_path / "counts_ch.json").exists()


def test_linewidth_resolved_flags_a_line_narrower_than_a_bin(tmp_path):
    """0.1 s at the reference 1e-2 mbar: the line is narrower than the 61 Hz bin; 1 s at 1 mbar resolves it."""
    short, damped = tmp_path / "short", tmp_path / "damped"
    common = ["pipeline", "--config", "reference.cfg", "--seed", 1]
    assert run(common + ["--out", short, "--set", "sim_duration_s=0.1"]) == 0
    assert run(common + ["--out", damped, "--set", "pressure_mbar=1.0"]) == 0
    for out, resolved in ((short, False), (damped, True)):
        for scheme in ("ch", "cbh"):
            fit = json.loads((out / f"fit_{scheme}.json").read_text())
            df_hz = json.loads((out / f"psd_{scheme}.json").read_text())["df_Hz"]
            assert fit["linewidth_resolved"] is resolved, (out.name, scheme)
            assert (fit["linewidth_rad_s"] >= TWO_PI * df_hz) is resolved


@pytest.mark.parametrize("extra", [[], ["--set", "sim_sample_rate_hz=3e6", "--set", "detection_model=exact"]])
def test_manifest_does_not_depend_on_the_chunk_length(tmp_path, monkeypatch, extra):
    """Two other multiples of BLOCK_SAMPLES write the same bytes; at 3 MHz a window of 3 samples straddles chunks."""
    manifests = []
    for chunk in (artifacts.CHUNK_SAMPLES, 2 * artifacts.BLOCK_SAMPLES, 3 * artifacts.BLOCK_SAMPLES):
        monkeypatch.setattr(artifacts, "CHUNK_SAMPLES", chunk)
        out = tmp_path / str(chunk)
        argv = ["pipeline", "--config", "reference.cfg", "--seed", 2, "--out", out, "--set", "sim_duration_s=0.05"]
        assert run(argv + extra) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[1] == manifests[0] and manifests[2] == manifests[0]


def _peak_rss_mb(argv) -> float:
    """Peak resident set of one ``levitomo`` run in a fresh interpreter, in MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(levitomo.__file__).parent.parent))
    argv = [sys.executable, "-m", "levitomo.cli"] + [str(a) for a in argv]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_maxrss * 1024 / 1e6


def test_peak_rss_does_not_grow_with_the_record(tmp_path):
    """0.1 s and 0.8 s records peak within 5 MB of each other: the chain holds chunks, not the record.

    A chain that holds whole records grows by about 100 MB per second of record at 1 MHz.
    """
    common = ["pipeline", "--config", "reference.cfg", "--seed", 1]
    peaks = [
        _peak_rss_mb(common + ["--out", tmp_path / duration, "--set", f"sim_duration_s={duration}"])
        for duration in ("0.1", "0.8")
    ]
    assert abs(peaks[1] - peaks[0]) < 5.0, peaks


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The folder of a 0.1 s reference pipeline run at seed 1."""
    folder = tmp_path_factory.mktemp("reference")
    argv = ["pipeline", "--config", "reference.cfg", "--seed", 1, "--out", folder, "--set", "sim_duration_s=0.1"]
    assert run(argv) == 0
    return folder


def test_fit_snr_is_the_noise_floor_snr(reference_run):
    """A fit file's SNR is its spectrum's strongest bin over the fitted noise floor.

    A 0.1 s record cannot resolve the linewidth, so an SNR taken from the fitted
    line's peak would read about 80 dB too high.
    """
    for scheme in ("ch", "cbh"):
        fit = json.loads((reference_run / f"fit_{scheme}.json").read_text())
        peak = float(np.max(np.load(reference_run / f"psd_{scheme}.npy")))
        assert fit["snr_db"] == 10.0 * math.log10(peak / fit["noise_floor"]), scheme


def test_fitted_floors_are_the_detection_models(reference_run):
    """Each scheme's fitted floor is the closed-form shot floor of the constants in its counts sidecar, and the
    balanced floor is half the single-detector one. The bounds are relative, as the fit's own sigma is too small
    to bound it."""
    floors = []
    for scheme in ("ch", "cbh"):
        floor = json.loads((reference_run / f"fit_{scheme}.json").read_text())["noise_floor"]
        info = json.loads((reference_run / f"counts_{scheme}.json").read_text())
        assert floor == pytest.approx(predicted_noise_floor(info), rel=0.03), scheme
        floors.append(floor)
    assert floors[0] / floors[1] == pytest.approx(2.0, rel=0.03)


def test_spectral_stage_names_the_count_files_it_reads(reference_run):
    """The pipeline's spectral stage reads each scheme's counts: its inputs give each file the digest detect gave it."""
    stages = {stage["name"]: stage for stage in json.loads((reference_run / "manifest.json").read_text())["stages"]}
    detected = stages["detect"]["outputs"]
    assert stages["spectral"]["inputs"] == {f"counts_{s}": detected[f"counts_{s}.npy"] for s in ("ch", "cbh")}


# the files of one scheme that the detect and spectral stages write, in sorted order
SCHEME_FILES = ("counts_{}.json", "counts_{}.npy", "fit_{}.json", "psd_{}.json", "psd_{}.npy")


@pytest.mark.parametrize("scheme", ["ch", "cbh"])
def test_single_scheme_pipeline_writes_that_schemes_files_of_the_both_scheme_run(tmp_path, reference_run, scheme):
    """``--scheme`` runs one scheme: its counts, spectrum and line fit are the both-scheme run's bytes, and no file of
    the other scheme is written. The record's reconstruction reads the cbh counts when they are run, else the ch."""
    argv = ["pipeline", "--config", "reference.cfg", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.1"]
    assert run(argv + ["--scheme", scheme]) == 0
    names = [name.format(scheme) for name in SCHEME_FILES]
    assert sorted(path.name for glob in ("counts_*", "fit_*", "psd_*") for path in tmp_path.glob(glob)) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (reference_run / name).read_bytes(), name
    assert json.loads((tmp_path / "calibration.json").read_text())["counts_file"] == f"counts_{scheme}.npy"
    if scheme == "cbh":
        assert (tmp_path / "wigner.npy").read_bytes() == (reference_run / "wigner.npy").read_bytes()


def test_missing_trajectory_exits_3_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.npy"
    assert run(["psd", "--traj", missing, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert str(missing) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["detect", "psd", "tomo"])
def test_non_finite_trajectory_exits_3_naming_the_row(tmp_path, capsys, command):
    fit = stage_input(tmp_path, command)[2:]  # tomo's --fit, the line psd fitted to the record before the damage
    path = tmp_path / "trajectory.npy"
    z = np.load(path, allow_pickle=False)
    z[100] = np.nan
    np.save(path, z)
    capsys.readouterr()
    assert run([command, "--traj", path, "--out", tmp_path / command] + fit + FAST_PIPELINE) == 3
    err = capsys.readouterr().err
    assert f"{path}: sample 100 holds a non-finite value" in err and len(err.splitlines()) == 1


def test_readme_recipe_makes_a_record_the_stages_read(tmp_path):
    """A measured array becomes a record in the one line README gives, and ``psd --traj`` runs on it."""
    assert run(["simulate", "--seed", 1, "--out", tmp_path / "sim"] + FAST_PIPELINE) == 0
    z = np.load(tmp_path / "sim" / "trajectory.npy", allow_pickle=False)  # stands in for measured positions in m
    fs, t0, path = 1e6, 0.0, tmp_path / "measured.npy"
    dynamics.save_trajectory(dynamics.Trajectory(sample_rate_Hz=fs, z_m=z, t0_s=t0), path)
    assert run(["psd", "--seed", 1, "--traj", path, "--out", tmp_path / "psd"] + FAST_PIPELINE) == 0
    assert (tmp_path / "psd" / "fit.json").is_file()


def stage_input(folder: Path, command: str, seed: int = 1) -> list:
    """Simulate a fast record into ``folder`` and return the input arguments of ``command``: none, ``--traj`` for a
    command that reads a record, and for ``tomo`` also ``--fit``, the line fit ``psd`` writes into ``folder``."""
    assert run(["simulate", "--seed", seed, "--out", folder] + FAST_PIPELINE) == 0
    if command not in STAGE_COMMANDS:
        return []
    args = ["--traj", folder / "trajectory.npy"]
    if command == "tomo":
        assert run(["psd", "--out", folder] + args + FAST_PIPELINE) == 0
        args += ["--fit", folder / "fit.json"]
    return args


class _Touch:
    """Unpickling this creates ``path``: proof of whether a loader ran pickled code."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (self.path,))


def _with_sidecar(info, **fields):
    info.write_text(json.dumps(dict(json.loads(info.read_text()), **fields)))


def _without_rate(info):
    info.write_text(json.dumps({k: v for k, v in json.loads(info.read_text()).items() if k != "sample_rate_Hz"}))


def _save_version_3(npy):
    z = np.load(npy)
    with npy.open("wb") as fh:
        np.lib.format.write_array(fh, z, version=(3, 0))


def _nan_at_99(z):
    z[99] = np.nan
    return z


@pytest.mark.parametrize(
    "damage, message",
    [
        pytest.param(
            lambda npy, info, marker: np.save(npy, np.array([_Touch(marker), 1.0], dtype=object), allow_pickle=True),
            "not a readable .npy array",
            id="object-dtype",
        ),
        pytest.param(
            lambda npy, info, marker: npy.write_bytes(pickle.dumps(_Touch(marker))),
            "not a readable .npy array",
            id="pickle",
        ),
        pytest.param(
            lambda npy, info, marker: npy.write_bytes(npy.read_bytes()[:20]),
            "not a readable .npy array",
            id="truncated-header",
        ),
        pytest.param(
            lambda npy, info, marker: npy.write_bytes(npy.read_bytes()[:1000]),
            "not a readable .npy array",
            id="truncated-data",
        ),
        pytest.param(
            lambda npy, info, marker: npy.write_bytes(npy.read_bytes().replace(b"'descr'", b"'dscr!'", 1)),
            "not a readable .npy array",
            id="corrupt-header",
        ),
        pytest.param(
            lambda npy, info, marker: np.save(npy, np.load(npy).reshape(2, -1)),
            "expected a 1-D array",
            id="two-dimensional",
        ),
        pytest.param(
            lambda npy, info, marker: np.save(npy, np.load(npy)[:1]),
            "expected a 1-D array of at least 2 samples",
            id="one-sample",
        ),
        pytest.param(
            lambda npy, info, marker: _save_version_3(npy),
            "not a readable .npy array (format version (3, 0) is not one np.save writes for a series)",
            id="format-version-3",
        ),
        pytest.param(lambda npy, info, marker: info.unlink(), "trajectory.json is missing", id="no-sidecar"),
        pytest.param(
            lambda npy, info, marker: info.write_text("sample_rate_Hz = 1e6"),
            "trajectory.json is not JSON (",
            id="sidecar-not-json",
        ),
        pytest.param(
            lambda npy, info, marker: info.write_text("[1e6]"),
            "trajectory.json is not a JSON object",
            id="sidecar-list",
        ),
        pytest.param(
            lambda npy, info, marker: _with_sidecar(info, sample_rate_Hz="1e6"),
            "trajectory.json holds sample_rate_Hz '1e6', not a finite number",
            id="sidecar-rate-string",
        ),
        pytest.param(
            lambda npy, info, marker: _without_rate(info),
            "trajectory.json holds no sample_rate_Hz",
            id="sidecar-no-rate",
        ),
        pytest.param(
            lambda npy, info, marker: _with_sidecar(info, n_samples=12345),
            "sidecar n_samples 12345 differs",
            id="sidecar-count",
        ),
        pytest.param(
            lambda npy, info, marker: _with_sidecar(info, t0_s=math.nan),
            "trajectory.json holds t0_s nan, not a finite number",
            id="sidecar-t0-nan",
        ),
        pytest.param(
            lambda npy, info, marker: _with_sidecar(info, sample_rate_Hz=math.inf),
            "trajectory.json holds sample_rate_Hz inf, not a finite number",
            id="sidecar-rate-inf",
        ),
        pytest.param(
            lambda npy, info, marker: _with_sidecar(info, sample_rate_Hz=10**400),
            "not a finite number",
            id="sidecar-rate-beyond-float",
        ),
        pytest.param(
            lambda npy, info, marker: np.save(npy, _nan_at_99(np.load(npy))),
            "sample 99 holds a non-finite value",
            id="non-finite",
        ),
    ],
)
def test_unreadable_npy_trajectory_exits_3_naming_the_file(tmp_path, capsys, damage, message):
    """Every way a ``.npy`` trajectory can be unfit ends in one stage-failure line, and no pickled code runs."""
    assert run(["simulate", "--seed", 1, "--out", tmp_path] + FAST_PIPELINE) == 0
    npy, marker = tmp_path / "trajectory.npy", tmp_path / "unpickled"
    damage(npy, tmp_path / "trajectory.json", marker)
    capsys.readouterr()
    assert run(["psd", "--traj", npy, "--out", tmp_path / "psd"] + FAST_PIPELINE) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"psd stage failed: {npy}") and message in err, err
    assert len(err.splitlines()) == 1
    assert not marker.exists()


@pytest.mark.parametrize(
    "rows",
    [None, "0,1e-9\n1e-6,one\n", "0,1e-9,0\n1e-6,2e-9,0\n", "0,1e-9\n1e-6,2e-9\n3e-6,3e-9\n"],
    ids=["well-formed", "unparsable", "three-columns", "non-uniform-time"],
)
def test_unreadable_csv_trajectory_exits_3_naming_the_file(tmp_path, capsys, rows):
    """A record is a ``.npy`` array: a ``t_s,z_m`` table, even that of a record the stages run on, ends in one
    stage-failure line naming it as no such array, with that record's sidecar beside it or none, and no line fit."""
    assert run(["simulate", "--seed", 1, "--out", tmp_path] + FAST_PIPELINE) == 0
    table = tmp_path / "trajectory.csv"  # its sidecar is the record's trajectory.json
    if rows is None:
        z = np.load(tmp_path / "trajectory.npy", allow_pickle=False)
        times_s = np.arange(z.size) / 1e6
        np.savetxt(table, np.column_stack([times_s, z]), fmt="%.17g", delimiter=",", header="t_s,z_m", comments="")
    else:
        table.write_text("t_s,z_m\n" + rows)
    capsys.readouterr()
    for sidecar in (True, False):
        if not sidecar:
            artifacts.sidecar(table).unlink()
        out = tmp_path / f"psd-{sidecar}"
        assert run(["psd", "--traj", table, "--out", out] + FAST_PIPELINE) == 3
        err = capsys.readouterr().err
        expected = f"psd stage failed: {table}: not a readable .npy array (the magic string is not correct; "
        assert err.startswith(expected) and len(err.splitlines()) == 1, err
        assert not (out / "fit.json").exists()


def test_unexpected_exception_marks_the_run_and_propagates(tmp_path, monkeypatch):
    def broken(wigner):
        raise RuntimeError("analysis bug")

    monkeypatch.setattr(tomography, "analyze", broken)
    with pytest.raises(RuntimeError, match="analysis bug"):
        run(["pipeline", "--state", "fock1", "--seed", 2, "--out", tmp_path])
    assert (tmp_path / "derived.json.partial").is_file()
    assert not (tmp_path / "derived.json").exists()


def sidecar_shape(info: dict) -> tuple[int, ...]:
    """The shape of a table as the axes in its sidecar give it."""
    if "angles_rad" in info:
        return len(info["angles_rad"]), len(info["z_grid_m"])
    if "axis_m" in info:
        return len(info["axis_m"]), len(info["axis_m"])
    if "df_Hz" in info:
        return (info["segment_len"] // 2,)
    if "delta_z_m" in info:
        return (len(info["delta_z_m"]),)
    return (info["n_samples"],)


@pytest.mark.parametrize(
    "extra, tables",
    [
        (FAST_PIPELINE, ["decoherence", "marginals", "psd_cbh", "psd_ch", "wigner"]),
        (["--state", "fock1"], ["decoherence", "marginals", "wigner"]),
    ],
    ids=["thermal", "fock1"],
)
def test_every_figure_table_loads_in_the_shape_of_its_sidecar(tmp_path, extra, tables):
    """Each table of README's figure map is float64 ``.npy`` that loads without pickle, shaped as its sidecar says;
    they are every table a run writes but the bulk series. Each spectrum's floor is the ``noise_floor`` of the line
    fit of its scheme, not a copy."""
    assert run(["pipeline", "--seed", 11, "--out", tmp_path] + extra) == 0
    bulk = {"trajectory.npy", "counts_ch.npy", "counts_cbh.npy"}
    assert sorted(path.name for path in tmp_path.glob("*.npy") if path.name not in bulk) == [f"{t}.npy" for t in tables]
    for name in tables:
        values = np.load(tmp_path / f"{name}.npy", allow_pickle=False)
        info = json.loads((tmp_path / f"{name}.json").read_text())
        assert values.dtype == np.dtype("<f8"), name
        assert values.shape == sidecar_shape(info), name
        if name.startswith("psd_"):
            fit = json.loads((tmp_path / f"fit_{info['scheme']}.json").read_text())
            assert type(fit["noise_floor"]) is float and fit["noise_floor"] > 0, name
            assert fit["snr_db"] == 10.0 * math.log10(values.max() / fit["noise_floor"]), name


@pytest.mark.parametrize(
    "extra, stages",
    [
        (FAST_PIPELINE, ["derive", "simulate", "detect", "invert", "spectral", "tomography", "decoherence"]),
        (["--state", "fock1"], ["derive", "tomography", "decoherence"]),
    ],
    ids=["thermal", "fock1"],
)
def test_pipeline_writes_no_plot_map_and_no_position_head(tmp_path, extra, stages):
    """README maps each figure to its table, and ``calibration.json`` rebuilds the positions: a run writes no
    ``plotdata/`` and no ``fig2a`` table, and its last stage is decoherence."""
    assert run(["pipeline", "--seed", 1, "--out", tmp_path] + extra) == 0
    assert not (tmp_path / "plotdata").exists() and not list(tmp_path.glob("fig2a*"))
    assert [path for path in tmp_path.rglob("*") if path.is_dir()] == []
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [stage["name"] for stage in manifest["stages"]] == stages


REFERENCE_THERMAL = ["pipeline", "--config", "reference.cfg", "--seed", 1, "--set", "sim_duration_s=0.1"]


def test_reference_thermal_pipeline_writes_int32_counts(tmp_path):
    """Shot-noise counts with no electronic noise are whole numbers about 1e8, well inside int32."""
    assert run(REFERENCE_THERMAL + ["--out", tmp_path]) == 0
    for scheme in detection.SCHEMES:
        counts = np.load(tmp_path / f"counts_{scheme}.npy", allow_pickle=False)
        assert counts.dtype == np.dtype("<i4"), scheme
        assert counts.size == json.loads((tmp_path / f"counts_{scheme}.json").read_text())["n_windows"]
    ch = np.load(tmp_path / "counts_ch.npy", allow_pickle=False)
    assert 1.0e8 < ch.min() and ch.max() < 1.1e8


@pytest.mark.parametrize(
    "setting",
    ["electronic_noise_counts_rms=5", "shot_noise=false", "field_amp_A=500"],
    ids=["electronic-noise", "no-shot-noise", "beyond-int32"],
)
def test_counts_int32_cannot_hold_exactly_are_float64(tmp_path, setting):
    """Fractional counts, or counts whose bound passes int32's range (about 2.7e9 at A = 500), are float64."""
    assert run(REFERENCE_THERMAL + ["--set", setting, "--out", tmp_path]) == 0
    for scheme in detection.SCHEMES:
        assert np.load(tmp_path / f"counts_{scheme}.npy", allow_pickle=False).dtype == np.dtype("<f8"), scheme
    assert (tmp_path / "manifest.json").is_file()


@pytest.mark.parametrize(
    "setting, value",
    [("field_amp_A=500", r"sample 0, \d{10}, is not exact in <i4"), ("shot_noise=false", r"sample 0, \d+\.\d+, is")],
    ids=["beyond-int32", "fraction"],
)
def test_count_int32_does_not_hold_is_a_stage_failure(tmp_path, capsys, monkeypatch, setting, value):
    """A count file forced to int32 whose counts it cannot hold fails the detect stage, never wrapping a count."""
    monkeypatch.setattr(detection.CountRecord, "dtype", property(lambda self: "<i4"))
    assert run(REFERENCE_THERMAL + ["--set", setting, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline stage failed:") and re.search(r"counts_ch\.npy: " + value, err), err
    assert (tmp_path / "counts_ch.npy.partial").is_file() and (tmp_path / "trajectory.npy.partial").is_file()
    assert not (tmp_path / "counts_ch.npy").exists() and not (tmp_path / "manifest.json").exists()


def test_int32_counts_change_no_other_artifact(tmp_path, monkeypatch):
    """Every file but the two count files has the bytes of a run whose counts are float64 copies of the same
    values, so calibration, spectra, marginals, Wigner grid and analysis read the counts exactly."""
    assert run(REFERENCE_THERMAL + ["--out", tmp_path / "int32"]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(detection.CountRecord, "dtype", property(lambda self: "<f8"))
        assert run(REFERENCE_THERMAL + ["--out", tmp_path / "float64"]) == 0
    manifests = [json.loads((tmp_path / dtype / "manifest.json").read_text()) for dtype in ("int32", "float64")]
    outputs = [{rel: digest for stage in m["stages"] for rel, digest in stage["outputs"].items()} for m in manifests]
    assert outputs[0].keys() == outputs[1].keys()
    counts = {f"counts_{scheme}.npy" for scheme in detection.SCHEMES}
    assert {rel for rel in outputs[0] if outputs[0][rel] != outputs[1][rel]} == counts
    for name in counts:
        exact, wide = (np.load(tmp_path / dtype / name, allow_pickle=False) for dtype in ("int32", "float64"))
        assert (exact.dtype, wide.dtype) == (np.dtype("<i4"), np.dtype("<f8"))
        assert exact.astype("<f8").tobytes() == wide.tobytes()
    for name in ("calibration.json", "marginals.npy", "wigner.npy", "analyze.json"):
        assert (tmp_path / "int32" / name).read_bytes() == (tmp_path / "float64" / name).read_bytes(), name


@pytest.mark.parametrize("extra", [FAST_PIPELINE, ["--state", "fock1"]], ids=["thermal", "fock1"])
def test_every_json_artifact_has_the_one_format(tmp_path, extra):
    """Two-space indent, sorted keys and one trailing newline: the bytes the manifest digests pin."""
    assert run(["pipeline", "--seed", 11, "--out", tmp_path] + extra) == 0
    paths = sorted(tmp_path.rglob("*.json"))
    assert len(paths) >= 5
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def test_analyze_report_keys(tmp_path):
    assert run(["pipeline", "--state", "fock1", "--seed", 2, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert set(report) == {"total_integral", "min_value", "negativity_volume", "abs_volume", "gaussian_fit"}
    assert set(report["gaussian_fit"]) == {"mean_z", "mean_p", "cov_zz", "cov_pp", "cov_zp", "r_squared"}


def test_tomo_subcommand(tmp_path):
    """``tomo`` bins the record at the frequency of the line ``psd`` fitted to it, read from ``--fit``."""
    assert run(
        ["simulate", "--out", tmp_path, "--seed", 6, "--set", "sim_duration_s=0.1", "--set", "pressure_mbar=1.0"]
    ) == 0
    traj = ["--traj", tmp_path / "trajectory.npy", "--out", tmp_path]
    assert run(["psd"] + traj + ["--set", "psd_segment_len=16384"]) == 0
    assert run(["tomo"] + traj + ["--fit", tmp_path / "fit.json", "--set", "n_angles=30"]) == 0
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert abs(report["total_integral"] - 1.0) < 0.05
    assert (tmp_path / "marginals.npy").is_file()
    assert (tmp_path / "wigner.npy").is_file()
    omega0 = json.loads((tmp_path / "fit.json").read_text())["omega0_rad_s"]
    marginals = tomography.bin_marginals(
        dynamics.load_trajectory(tmp_path / "trajectory.npy"),
        omega0,
        30,
        json.loads((tmp_path / "marginals.json").read_text())["z_grid_m"],
    )
    assert marginals.densities.tobytes() == np.load(tmp_path / "marginals.npy", allow_pickle=False).tobytes()


def test_pipeline_exact_detection_model(tmp_path):
    code = run(
        ["pipeline", "--seed", 11, "--out", tmp_path] + FAST_PIPELINE + ["--set", "detection_model=exact"]
    )
    assert code == 0
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert abs(report["total_integral"] - 1.0) < 0.05


def test_pipeline_full_temperature_exact_model_fails_cleanly(tmp_path, capsys):
    """At 300 K the interferometer phase wraps (|2 k z| >> 1): no spectral line
    survives a linear inversion of the exact response, and the run must abort
    with a stage diagnostic instead of producing a fake reconstruction."""
    code = run(
        ["pipeline", "--seed", 11, "--out", tmp_path]
        + FAST_PIPELINE
        + ["--set", "detection_model=exact", "--set", "sim_temperature_K=300"]
    )
    assert code == 3
    assert "no peak" in capsys.readouterr().err


STAGE_COMMANDS = ("detect", "psd", "tomo")  # the commands that read --traj
REPORTS = {"derive": "derived.json", "tomo": "analyze.json"}  # the commands that print a report, and its file


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["derive", "simulate", "detect", "psd", "tomo", "decoherence", "pipeline"])
def test_manifest_digests_match_files(tmp_path, capsys, command):
    """Every command writes a manifest of its own that lists every file the run wrote, with its digest; a stage
    subcommand's stages list the digest of the trajectory they read."""
    traj, out = tmp_path / "input" / "trajectory.npy", tmp_path / "run"
    traj_args = stage_input(traj.parent, command, seed=11)
    capsys.readouterr()
    assert run([command, "--seed", 11, "--out", out] + traj_args + FAST_PIPELINE) == 0
    on_disk = sorted(str(path) for path in out.rglob("*") if path.is_file())
    printed = capsys.readouterr().out
    if command in REPORTS:
        assert json.loads(printed) == json.loads((out / REPORTS[command]).read_text())
    else:
        assert sorted(printed.removeprefix("wrote ").rstrip("\n").split(", ")) == on_disk
    suffix = "" if command == "pipeline" else f"_{command}"
    manifest = json.loads((out / f"manifest{suffix}.json").read_text())
    assert manifest["seed"] == 11
    outputs = {rel: digest for stage in manifest["stages"] for rel, digest in stage["outputs"].items()}
    assert sorted(str(out / rel) for rel in [*outputs, f"manifest{suffix}.json", f"timings{suffix}.json"]) == on_disk
    for rel, digest in outputs.items():
        assert sha256(out / rel) == digest, rel
    if command in STAGE_COMMANDS:
        expected = {"detect": "detect", "psd": "spectral", "tomo": "tomography"}[command]
        assert [stage["name"] for stage in manifest["stages"]] == [expected]
        inputs = {"trajectory": sha256(traj)}
        if command == "tomo":
            inputs["fit"] = sha256(traj.parent / "fit.json")
        assert manifest["stages"][0]["inputs"] == inputs


def test_failed_stage_rerun_retires_the_same_commands_results(tmp_path, capsys):
    """A failed ``tomo`` rerun into a shared ``--out`` retires every result the earlier ``tomo`` manifest lists, and
    leaves the ``simulate`` run's files it read."""
    assert run(["simulate", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.1"]) == 0
    common = ["--traj", tmp_path / "trajectory.npy", "--out", tmp_path, "--set", "sim_duration_s=0.1"]
    assert run(["psd"] + common) == 0
    tomo = ["tomo", "--fit", tmp_path / "fit.json"] + common
    assert run(tomo) == 0
    earlier = json.loads((tmp_path / "manifest_tomo.json").read_text())
    results = [rel for stage in earlier["stages"] for rel in stage["outputs"]]
    results += ["manifest_tomo.json", "timings_tomo.json"]
    assert {"marginals.npy", "wigner.npy", "analyze.json"} <= set(results)
    capsys.readouterr()
    assert run(tomo + ["--set", "n_angles=5000"]) == 3
    assert capsys.readouterr().err.startswith("tomo stage failed: ")
    for name in results:
        assert not (tmp_path / name).exists() and (tmp_path / f"{name}.partial").is_file(), name
    read = ("trajectory.npy", "trajectory.json", "manifest_simulate.json", "timings_simulate.json", "fit.json")
    for name in read:
        assert (tmp_path / name).is_file(), name


def test_psd_and_tomo_share_one_out(tmp_path):
    """``tomo`` reads the line fit ``psd`` wrote and writes no file of ``psd``'s, so in one ``--out`` every digest
    ``manifest_psd.json`` lists still matches after a ``tomo`` run, and after a failed ``tomo`` rerun retires that
    run's results; ``tomo``'s manifest names the fit by the digest ``psd`` gave it."""
    assert run(["simulate", "--seed", 1, "--out", tmp_path, "--set", "sim_duration_s=0.1"]) == 0
    common = ["--traj", tmp_path / "trajectory.npy", "--out", tmp_path, "--set", "sim_duration_s=0.1"]
    assert run(["psd"] + common) == 0
    manifest = json.loads((tmp_path / "manifest_psd.json").read_text())
    outputs = {rel: digest for stage in manifest["stages"] for rel, digest in stage["outputs"].items()}
    assert sorted(outputs) == ["fit.json", "psd.json", "psd.npy"]
    tomo = ["tomo", "--fit", tmp_path / "fit.json"] + common
    assert run(tomo) == 0
    (stage,) = json.loads((tmp_path / "manifest_tomo.json").read_text())["stages"]
    assert stage["inputs"]["fit"] == outputs["fit.json"]
    assert sorted(path.name for path in tmp_path.glob("*_tomo*")) == ["manifest_tomo.json", "timings_tomo.json"]
    assert run(tomo + ["--set", "n_angles=5000"]) == 3
    for rel, digest in outputs.items():
        assert sha256(tmp_path / rel) == digest, rel


@pytest.fixture(scope="module")
def fitted_record(tmp_path_factory):
    """A fast record and the line fit ``psd`` wrote for it, in one folder."""
    folder = tmp_path_factory.mktemp("fitted")
    stage_input(folder, "tomo")
    return folder


# the text of a --fit file that gives no frequency to bin at, or None for no file
UNUSABLE_FITS = {
    "missing": None,
    "not-json": "omega0_rad_s = 4.4e5",
    "not-text": "\xff\xfe",
    "list": "[4.4e5]",
    "no-omega0": '{"linewidth_rad_s": 100.0}',
    "nan": '{"omega0_rad_s": NaN}',
    "inf": '{"omega0_rad_s": Infinity}',
    "beyond-float": '{"omega0_rad_s": 1%s}' % ("0" * 400),  # an integer no float holds
    "bool": '{"omega0_rad_s": true}',
    "string": '{"omega0_rad_s": "4.4e5"}',
    "null": '{"omega0_rad_s": null}',
    "zero": '{"omega0_rad_s": 0}',
    "negative": '{"omega0_rad_s": -4.4e5}',
}


@pytest.mark.parametrize("text", UNUSABLE_FITS.values(), ids=UNUSABLE_FITS.keys())
def test_unusable_fit_exits_3_naming_the_file(tmp_path, capsys, fitted_record, text):
    """A ``--fit`` that gives no finite positive ``omega0_rad_s`` fails ``tomo`` with one line naming it, and a
    rerun that fails so leaves no result of the earlier ``tomo`` run under its final name."""
    fit = tmp_path / "fit.json"
    if text is not None:
        fit.write_bytes(text.encode("latin-1"))
    tomo = ["tomo", "--traj", fitted_record / "trajectory.npy", "--out", tmp_path / "run"] + FAST_PIPELINE
    assert run(tomo + ["--fit", fitted_record / "fit.json"]) == 0
    capsys.readouterr()
    assert run(tomo + ["--fit", fit]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tomo stage failed: ") and str(fit) in err and len(err.splitlines()) == 1, err
    assert [path.name for path in (tmp_path / "run").iterdir() if not path.name.endswith(".partial")] == []


def test_calibration_is_not_a_setting(tmp_path, capsys):
    """The invert stage picks its calibration from the record: no setting can rescale a coherent signal."""
    out = tmp_path / "run"
    assert run(["pipeline", "--out", out, "--set", "calibration=linear"] + FAST_PIPELINE) == 2
    assert "unknown configuration key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "pipeline"])
@pytest.mark.parametrize("setting", ["field_amp_A=1e200", "field_amp_B=1e200", "detector_area_m2=1e300"])
def test_counts_beyond_a_float_fail_before_any_stage(tmp_path, capsys, command, setting):
    """Count constants that leave the range of a float are a configuration error of every command that detects:
    exit 2 before ``--out`` exists, not a traceback after ``simulate`` has run."""
    out = tmp_path / "run"
    traj = ["--traj", tmp_path / "trajectory.npy"] if command == "detect" else []
    assert run([command, "--out", out, "--set", setting] + traj + FAST_PIPELINE) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "range of a float" in err and len(err.splitlines()) == 1
    assert not out.exists()
