"""The one owner of the package's file formats: CSV tables, JSON reports and
binary float64 arrays.

Every file the package creates is written here, so this module also knows
which files a run wrote: each open :func:`journal` gets the path of every file
before the file is opened.

JSON is written with two-space indentation and sorted keys, one trailing
newline on disk; the metadata of an array or a CSV table goes to a ``.json``
sidecar next to it.

A bulk series (a trajectory, a count record) is one 1-D little-endian float64
``.npy`` array, written by ``np.save`` without pickling. It carries no time
column: its sidecar holds ``t0_s`` and the rate that place each sample in time.

The CSV format is fixed here: numbers as ``%.17g`` (round-trips every float64,
and ``nan``, ``inf``, ``-0`` spelled as Python spells them), fields separated
by ``,``, nothing quoted, every line ended by LF.

Rows are formatted a block at a time by a single ``%`` operation over
``"%.17g,...,%.17g\\n" * rows``. Each column's block slice goes through
``tolist`` on its own, so every column keeps its dtype's formatting and no
full-record ``column_stack`` copy is ever made.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

NUMBER = "%.17g"
SEPARATOR = ","
LF = "\n"
BLOCK_VALUES = 1 << 13  # numbers per formatting block; larger blocks gain no speed and add peak RSS

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


def format_numbers(values) -> list[str]:
    """Each value as one CSV field, for header rows that carry an axis."""
    return [NUMBER % v for v in np.asarray(values).tolist()]


def write_columns(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """Write ``header`` then one row per index of the equal-length 1-D ``columns``."""
    columns = [np.asarray(col) for col in columns]
    n_cols = len(columns)
    n_rows = len(columns[0])
    if any(col.shape != (n_rows,) for col in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    row_format = SEPARATOR.join([NUMBER] * n_cols) + LF
    block_rows = max(1, BLOCK_VALUES // n_cols)
    with _create(path).open("w", newline="") as fh:
        fh.write(SEPARATOR.join(header) + LF)
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            flat: list = [None] * ((stop - start) * n_cols)
            for j, col in enumerate(columns):
                flat[j::n_cols] = col[start:stop].tolist()
            fh.write((row_format * (stop - start)) % tuple(flat))


def write_array(path: str | Path, values) -> None:
    """Write ``values`` to exactly ``path`` as a little-endian float64 ``.npy`` array."""
    with _create(path).open("wb") as fh:
        np.save(fh, np.asarray(values, dtype="<f8"), allow_pickle=False)


def dumps(payload) -> str:
    """The JSON text of a report, as written to disk and printed."""
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(path: str | Path, payload) -> Path:
    """Write ``payload`` to ``path`` as JSON and return the path."""
    path = _create(path)
    path.write_text(dumps(payload) + "\n")
    return path


def sidecar(path: str | Path) -> Path:
    """The JSON file that carries the metadata of the array or CSV table at ``path``."""
    return Path(path).with_suffix(".json")
