import dataclasses
import errno
import io
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


def test_an_array_of_any_layout_reaches_np_save_c_ordered(tmp_path, monkeypatch):
    """A broadcast view and a Fortran array are written as the bytes of their C copy, by one ``np.save`` of a
    C-ordered array: ``np.save`` writes any other layout one element per call."""
    rows = np.arange(12.0).reshape(3, 4)
    views = (np.broadcast_to(rows[1], rows.shape), np.asfortranarray(rows))
    expected = []
    for values in views:
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(values), allow_pickle=False)
        expected.append(buffer.getvalue())
    save, layouts = np.save, []

    def spy(fh, values, **kwargs):
        layouts.append(values.flags.c_contiguous)
        save(fh, values, **kwargs)

    monkeypatch.setattr(artifacts.np, "save", spy)
    for values, data in zip(views, expected):
        artifacts.write_array(tmp_path / "x.npy", values, {})
        assert (tmp_path / "x.npy").read_bytes() == data
    assert layouts == [True, True]


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
        "counts": CountRecord(t0_s=0.0, counts=values, params=params),
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
        CountRecord(t0_s=0.0, counts=values, params=params)


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


def test_int32_series_reads_back_as_the_same_float64_values(tmp_path):
    """An ``<i4`` file, as ``write_series`` and ``np.save`` both write it, reads back widened to exact float64."""
    values = np.random.default_rng(4).integers(-(2**31), 2**31, 2 * artifacts.CHUNK_SAMPLES + 7)
    values[:2] = -(2**31), 2**31 - 1
    saved, written = tmp_path / "saved.npy", tmp_path / "written.npy"
    np.save(saved, values.astype("<i4"), allow_pickle=False)
    artifacts.write_series(written, irregular(values, (1000, 3)), {}, "<i4")
    assert written.read_bytes() == saved.read_bytes()
    back = artifacts.read_series(written)
    assert {chunk.dtype for chunk in back.chunks()} == {np.dtype(float)}
    assert back.values().tobytes() == values.astype(float).tobytes()


@pytest.mark.parametrize("dtype", ["<i8", "u1", "?", ">i4", "<c16"])
def test_read_series_refuses_every_other_integer_boolean_or_complex_dtype(tmp_path, dtype):
    """Only ``<i4`` among the non-float dtypes is a count file's; any other is refused, naming it."""
    path = tmp_path / "x.npy"
    np.save(path, np.arange(10).astype(dtype), allow_pickle=False)
    with pytest.raises(ValueError, match=re.escape(f"got dtype {np.dtype(dtype).str}")):
        artifacts.read_series(path)


@pytest.mark.parametrize(
    "value",
    [2.0**31, -(2.0**31) - 1, 0.5, float("nan"), np.int64(2**31), np.int64(-(2**32) + 5)],
    ids=["above-float", "below-float", "fraction", "nan", "above-int64", "wraps-to-5"],
)
def test_write_series_refuses_a_sample_int32_does_not_hold_exactly(tmp_path, value):
    """A value beyond int32's range or a fraction is an ``ArtifactError`` naming it, never a wrapped count; the file
    stays journaled for a failed run to mark, and no sidecar is written."""
    values = np.zeros(artifacts.CHUNK_SAMPLES + 10, dtype=np.asarray(value).dtype)
    values[artifacts.CHUNK_SAMPLES + 3] = value
    path = tmp_path / "counts.npy"
    with artifacts.journal() as written, pytest.raises(ArtifactError) as raised:
        artifacts.write_series(path, irregular(values, (artifacts.CHUNK_SAMPLES,)), {}, "<i4")
    assert str(raised.value).startswith(f"{path}: sample {artifacts.CHUNK_SAMPLES + 3}, ")
    assert str(raised.value).endswith("is not exact in <i4")
    assert written == [path] and not artifacts.sidecar(path).exists()


def test_free_space_check_counts_the_dtypes_bytes(tmp_path, monkeypatch):
    """13 int32 samples take 52 bytes and fit in 60 free; as float64 they take 104 and do not."""
    monkeypatch.setattr(artifacts.shutil, "disk_usage", lambda path: type("Usage", (), {"free": 60})())
    artifacts.write_series(tmp_path / "x.npy", Series.of(np.arange(13.0)), {}, "<i4")
    assert np.load(tmp_path / "x.npy").tolist() == list(range(13))
    with pytest.raises(OSError, match="104 bytes of 13 samples"):
        artifacts.write_series(tmp_path / "y.npy", Series.of(np.arange(13.0)), {})
