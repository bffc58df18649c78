"""The one owner of the package's file formats: float64 and int32 arrays, JSON reports and chunked records.

Every file the package creates is written here, so this module also knows
which files a run wrote: each open :func:`journal` gets the path of every file
before the file is opened. Every file a run reads back (a record and its
sidecar, a line fit, an earlier run's manifest) is read here too, by one rule:
what the writer would refuse to write is refused on reading, with an
``ArtifactError`` that names the file.

JSON is written with two-space indentation and sorted keys, one trailing
newline on disk, and finite numbers only: a NaN or an infinity fails the write
with an ``ArtifactError``. :func:`read_json` reads one object back and refuses
a number key that holds ``NaN``, ``Infinity`` or an integer beyond a float's
range, which JSON readers accept.

Every numeric table (a bulk series, a spectrum, the marginals, the Wigner
grid, the decoherence curve) is one little-endian ``.npy`` array, written
without pickling: float64, or int32 for a count series that int32 holds
exactly (``detection.CountRecord.dtype``). Its axes and provenance go to a
``.json`` sidecar next to it, so the array holds no axis column or header.

A record (a trajectory, a count series, the calibrated positions mapped from
a count file) is a :class:`Series`: ``n`` samples that are produced or read
``CHUNK_SAMPLES`` at a time, from memory, from a generator or from a ``.npy``
file, so no stage of the record chain holds a whole record.
:func:`write_series` writes the ``.npy`` header for the known length, then
appends each chunk, refusing a sample its dtype would not hold exactly;
:func:`read_series` reads a file back with plain reads, because the pages of a
memory map count toward the resident set, widens int32 counts to float64,
which holds every one exactly, and refuses a non-finite sample of a
floating-point file in the pass that reaches it. A statistic of a whole record
(:meth:`Series.moments`) runs over fixed ``BLOCK_SAMPLES`` blocks, so no
artifact depends on the chunk length.
"""

from __future__ import annotations

import errno
import json
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ArtifactError

# samples per chunk of a record: 128 kB per float64 array, so a stage's dozen chunk-sized temporaries stay near a
# MB. Measured on the reference run, 2^14 peaks 0.6 MB below 2^15 and 2.7 MB below 2^16 at 0.1 s, in the same
# time. It must be a multiple of BLOCK_SAMPLES; any multiple writes the same bytes
CHUNK_SAMPLES = 1 << 14
# samples per block of every reduction over a whole record (Series.moments); the AR(2) scan's blocks divide it
BLOCK_SAMPLES = 1 << 14

_open_journals: list[list[Path]] = []


@contextmanager
def journal():
    """Yield a list that gets the path of every file written inside the block.

    A path is added before its file is opened, so a write that fails part-way
    is listed too. Journals nest: a path goes to every journal that is open.
    """
    paths: list[Path] = []
    _open_journals.append(paths)
    try:
        yield paths
    finally:
        _open_journals.pop()


def _create(path: str | Path) -> Path:
    path = Path(path)
    for paths in _open_journals:
        paths.append(path)
    return path


def dumps(payload) -> str:
    """The JSON text of a report, as written to disk and printed; NaN or infinity in it is an ``ArtifactError``."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArtifactError("the report holds NaN or infinity, which JSON cannot store") from None


def write_json(path: str | Path, payload) -> Path:
    """Write ``payload`` to ``path`` as JSON and return the path.

    The file is opened first, so a payload ``dumps`` refuses leaves it empty
    and journaled, for the failed run to mark.
    """
    path = _create(path)
    with path.open("w") as fh:
        try:
            fh.write(dumps(payload) + "\n")
        except ArtifactError as exc:
            raise ArtifactError(f"{path}: {exc}") from None
    return path


def read_json(path: str | Path, numbers: Iterable[str] = ()) -> dict:
    """The JSON object in the UTF-8 file at ``path``, each present key of ``numbers`` an int or float that a float
    holds finitely.

    Text that is not JSON, a value that is not an object, or such a key with
    any other value (a string, a boolean, ``null``, ``NaN``, ``Infinity``, an
    integer beyond a float's range) is an ``ArtifactError`` that begins with
    the path. A file that cannot be opened raises its ``OSError``.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ArtifactError(f"{path} is not JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path} is not a JSON object")
    for key in numbers:
        value = payload.get(key, 0.0)  # an absent key is the caller's to require
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ArtifactError(f"{path} holds {key} {value!r}, not a finite number")
    return payload


def sidecar(path: str | Path) -> Path:
    """The ``.json`` sidecar of the array at ``path``: its axes and provenance."""
    return Path(path).with_suffix(".json")


def write_array(path: str | Path, values, info: dict) -> Path:
    """Write ``values`` to ``path`` as a little-endian float64 ``.npy`` array, ``info`` to its sidecar.

    Returns the sidecar's path. ``values`` is written as one C-ordered block:
    ``np.save`` writes any other layout, a broadcast view's included, one
    element per call.
    """
    with _create(path).open("wb") as fh:
        np.save(fh, np.ascontiguousarray(values, dtype="<f8"), allow_pickle=False)
    return write_json(sidecar(path), info)


class Series:
    """``n`` samples of a record, float64 or a detector's integer counts, yielded in chunks from the first sample on
    every pass.

    ``read`` returns a fresh iterable of 1-D chunks on each call; a chunk has
    at most ``CHUNK_SAMPLES`` samples, and together they hold ``n``.
    """

    def __init__(self, n: int, read: Callable[[], Iterable[np.ndarray]]):
        self.n = n
        self._read = read

    @classmethod
    def of(cls, values) -> "Series":
        """``values`` itself if it is a series, else a series over the 1-D array in memory.

        Raises ``ValueError`` for an array that is not 1-D, naming its shape.
        """
        if isinstance(values, cls):
            return values
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"expected a 1-D array of samples, got shape {values.shape}")
        return cls(values.size, lambda: (values[i : i + CHUNK_SAMPLES] for i in range(0, values.size, CHUNK_SAMPLES)))

    def __len__(self) -> int:
        return self.n

    def chunks(self) -> Iterator[np.ndarray]:
        return iter(self._read())

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Series":
        """The series of ``fn`` applied to every chunk, computed on each pass; ``fn`` keeps a chunk's length."""
        return Series(self.n, lambda: map(fn, self._read()))

    def values(self) -> np.ndarray:
        """The whole record in one array."""
        out = np.empty(self.n)
        end = 0
        for chunk in self.chunks():
            out[end : end + chunk.size] = chunk
            end += chunk.size
        if end != self.n:
            raise ValueError(f"a series of {self.n} samples yielded {end}")
        return out

    def blocks(self, size: int) -> Iterator[np.ndarray]:
        """The samples in consecutive pieces of ``size`` (the last may be shorter), whatever the chunks' lengths."""
        held = np.empty(0)
        for chunk in self.chunks():
            if held.size:
                take = size - held.size
                held, chunk = np.concatenate([held, chunk[:take]]), chunk[take:]
                if held.size < size:
                    continue
                yield held
            whole = chunk.size - chunk.size % size
            for first in range(0, whole, size):
                yield chunk[first : first + size]
            held = chunk[whole:]
        if held.size:
            yield held

    def moments(self) -> tuple[float, float]:
        """Mean and variance (``ddof = 0``) of the samples.

        Each ``BLOCK_SAMPLES`` block's mean and sum of squared deviations are
        merged into the running pair in block order (Chan, Golub & LeVeque,
        Am. Stat. 37, 242 (1983)), so the result depends on the samples alone.
        """
        count, mean, m2 = 0, 0.0, 0.0
        for block in self.blocks(BLOCK_SAMPLES):
            block_mean = float(np.mean(block))
            block_m2 = float(np.sum((block - block_mean) ** 2))
            total = count + block.size
            delta = block_mean - mean
            mean += delta * block.size / total
            m2 += block_m2 + delta * delta * count * block.size / total
            count = total
        return mean, m2 / count


def write_series(path: str | Path, series: Series, info: dict, dtype: str = "<f8") -> Path:
    """Write ``series`` to ``path`` as a little-endian ``.npy`` array of ``dtype``, chunk by chunk; ``info`` to its
    sidecar.

    ``dtype`` is ``<f8``, or ``<i4`` for whole counts. The header is the one
    ``np.save`` writes for ``series.n`` samples of ``dtype``, so the file holds
    the same bytes. A series larger than the free space of the file's folder
    is refused with an ``OSError`` before the file is created. A sample that
    ``<i4`` does not hold exactly, a fraction or one beyond its range, is an
    ``ArtifactError`` naming it, never a wrapped count; the file stays
    journaled for the failed run to mark. Returns the sidecar's path.
    """
    dtype = np.dtype(dtype)
    size, free = dtype.itemsize * series.n, shutil.disk_usage(Path(path).parent).free
    if size > free:
        message = f"{size} bytes of {series.n} samples do not fit in the {free} bytes free"
        raise OSError(errno.ENOSPC, message, str(path))
    with _create(path).open("wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {"descr": dtype.str, "fortran_order": False, "shape": (series.n,)})
        written = 0
        for chunk in series.chunks():
            with np.errstate(invalid="ignore"):  # a float beyond an integer dtype's range casts to junk, refused below
                stored = np.ascontiguousarray(chunk, dtype=dtype)
            if dtype.kind == "i" and not np.array_equal(stored, chunk):
                first = int(np.flatnonzero(stored != chunk)[0])
                value = chunk[first].item()
                raise ArtifactError(f"{path}: sample {written + first}, {value!r}, is not exact in {dtype.str}")
            fh.write(stored)
            written += len(chunk)
    if written != series.n:
        raise ValueError(f"{path}: a series of {series.n} samples yielded {written}")
    return write_json(sidecar(path), info)


def read_series(path: str | Path) -> Series:
    """The 1-D floating-point or ``<i4`` ``.npy`` array at ``path`` as a float64 series read back chunk by chunk; no
    pickle is loaded. float64 holds every int32 exactly.

    Raises ``ValueError`` for a file that is not such an array, saying why; any other dtype is named. A pass raises
    an ``ArtifactError`` at the first non-finite sample of a floating-point file it reaches, naming the file and the
    sample, and an ``OSError`` if the file ends early.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            version = np.lib.format.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"format version {version} is not one np.save writes for a series")
            header = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
            shape, _, dtype = header(fh)
            offset = fh.tell()
        if dtype.hasobject:
            raise ValueError("object arrays cannot be read without pickle")
        n = int(np.prod(shape))
        if path.stat().st_size != offset + n * dtype.itemsize:
            raise ValueError(f"the file does not hold the {n} values of its header")
    except (ValueError, EOFError) as exc:
        raise ValueError(f"not a readable .npy array ({exc})") from None
    if dtype.kind != "f" and dtype != np.dtype("<i4"):  # int32 is a count file's one integer dtype
        raise ValueError(f"expected a floating-point or <i4 .npy array, got dtype {dtype.str}")
    if len(shape) != 1 or n < 2:
        raise ValueError(f"expected a 1-D array of at least 2 samples, got shape {shape}")

    def read():
        with path.open("rb") as fh:
            fh.seek(offset)
            for first in range(0, n, CHUNK_SAMPLES):
                count = min(CHUNK_SAMPLES, n - first)
                chunk = np.fromfile(fh, dtype=dtype, count=count)
                if chunk.size != count:  # the file shrank after it was opened
                    raise OSError(f"{path}: ends at value {first + chunk.size} of {n}")
                if dtype.kind == "f" and not np.isfinite(chunk).all():  # an int32 count is always finite
                    bad = first + int(np.flatnonzero(~np.isfinite(chunk))[0])
                    raise ArtifactError(f"{path}: sample {bad} holds a non-finite value")
                yield chunk.astype(float, copy=False)

    return Series(n, read)
