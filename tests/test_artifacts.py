import dataclasses
import errno
import re

import numpy as np
import pytest

from levitomo import artifacts
from levitomo.artifacts import Series
from levitomo.detection import CountRecord, params_from_config
from levitomo.dynamics import Trajectory
from levitomo.errors import ArtifactError, DetectionError, LevitomoError, SimulationError


def irregular(values, sizes):
    """A series over ``values`` whose chunks take the lengths ``sizes`` in turn."""

    def read():
        first, k = 0, 0
        while first < values.size:
            yield values[first : first + sizes[k % len(sizes)]]
            first += sizes[k % len(sizes)]
            k += 1

    return Series(values.size, read)


def test_blocks_repartition_any_chunks():
    values = np.arange(1000.0)
    blocks = list(irregular(values, (1, 300, 7, 64)).blocks(128))
    assert [block.size for block in blocks] == [128] * 7 + [104]
    assert np.array_equal(np.concatenate(blocks), values)


def test_moments_depend_on_the_samples_alone():
    """Mean and variance of fixed blocks merged in order: the same bits for any chunks, and np.var's value."""
    values = 3.0 + np.random.default_rng(1).standard_normal(3 * artifacts.BLOCK_SAMPLES + 5)
    whole = Series.of(values).moments()
    assert irregular(values, (5, artifacts.BLOCK_SAMPLES - 1, 17)).moments() == whole
    assert whole[0] == pytest.approx(values.mean(), rel=1e-14)
    assert whole[1] == pytest.approx(values.var(), rel=1e-12)


def test_series_round_trip_reads_the_file_in_chunks(tmp_path):
    values = np.random.default_rng(2).standard_normal(2 * artifacts.CHUNK_SAMPLES + 3)
    artifacts.write_series(tmp_path / "x.npy", irregular(values, (1000, 3)), {"n": values.size})
    back = artifacts.read_series(tmp_path / "x.npy")
    assert [chunk.size for chunk in back.chunks()] == [artifacts.CHUNK_SAMPLES] * 2 + [3]
    assert back.values().tobytes() == values.tobytes()
    assert back.max_abs() == np.max(np.abs(values))


def test_series_that_cannot_fit_on_the_disk_is_refused_before_its_file(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts.shutil, "disk_usage", lambda path: type("Usage", (), {"free": 100})())
    with artifacts.journal() as written, pytest.raises(OSError) as raised:
        artifacts.write_series(tmp_path / "x.npy", Series.of(np.zeros(13)), {})
    assert raised.value.errno == errno.ENOSPC
    assert written == [] and not (tmp_path / "x.npy").exists()


def test_a_record_built_from_an_array_holds_a_series_of_its_bytes(config):
    """A trajectory or count record given an array holds it as a series, also when ``replace`` builds it anew."""
    values = np.random.default_rng(3).standard_normal(2 * artifacts.CHUNK_SAMPLES + 5)
    params = params_from_config(config, "cbh")
    records = {
        "z_m": Trajectory(sample_rate_Hz=1e6, z_m=values),
        "counts": CountRecord(t0_s=0.0, counts=values, params=params, linear_constants=params.linear_constants()),
    }
    for name, record in records.items():
        kept = dataclasses.replace(record, t0_s=1.0)
        swapped = dataclasses.replace(record, **{name: values[::-1]})
        for copy, samples in ((record, values), (kept, values), (swapped, values[::-1])):
            series = getattr(copy, name)
            assert isinstance(series, Series) and len(series) == values.size, name
            assert series.values().tobytes() == samples.tobytes(), name


@pytest.mark.parametrize("shape", [(3, 4), (12, 1), ()])
def test_a_record_refuses_an_array_that_is_not_1d(config, shape):
    """A 2-D or 0-D array is not a record of samples: each record type names its shape in its own error."""
    values = np.zeros(shape)
    with pytest.raises(ValueError, match=rf"1-D array of samples, got shape {re.escape(str(shape))}"):
        Series.of(values)
    with pytest.raises(SimulationError, match=rf"z_m: .* got shape {re.escape(str(shape))}"):
        Trajectory(sample_rate_Hz=1e6, z_m=values)
    params = params_from_config(config, "ch")
    with pytest.raises(DetectionError, match=rf"counts: .* got shape {re.escape(str(shape))}"):
        CountRecord(t0_s=0.0, counts=values, params=params, linear_constants=params.linear_constants())


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_json_holds_no_nan_or_infinity(tmp_path, value):
    """A non-finite number is refused with a named error, not written as the non-JSON ``Infinity`` or ``NaN``."""
    path = tmp_path / "report.json"
    with artifacts.journal() as written, pytest.raises(ArtifactError, match="report.json"):
        artifacts.write_json(path, {"x": value})
    assert issubclass(ArtifactError, LevitomoError)
    assert written == [path] and path.read_text() == ""
    with pytest.raises(ArtifactError):
        artifacts.dumps({"nested": {"x": [1.0, value]}})
