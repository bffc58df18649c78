"""The one owner of the package's file formats: float64 arrays and JSON reports.

Every file the package creates is written here, so this module also knows
which files a run wrote: each open :func:`journal` gets the path of every file
before the file is opened.

JSON is written with two-space indentation and sorted keys, one trailing
newline on disk.

Every numeric table (a bulk series, a spectrum, the marginals, the Wigner
grid, the decoherence curve) is one little-endian float64 ``.npy`` array,
written by ``np.save`` without pickling. Its axes and provenance go to a
``.json`` sidecar next to it, so the array holds no axis column or header.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

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
    """The JSON text of a report, as written to disk and printed."""
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(path: str | Path, payload) -> Path:
    """Write ``payload`` to ``path`` as JSON and return the path."""
    path = _create(path)
    path.write_text(dumps(payload) + "\n")
    return path


def sidecar(path: str | Path) -> Path:
    """The ``.json`` sidecar of the array at ``path``, or of a ``t_s,z_m`` trajectory table: its axes and provenance."""
    return Path(path).with_suffix(".json")


def write_array(path: str | Path, values, info: dict) -> Path:
    """Write ``values`` to ``path`` as a little-endian float64 ``.npy`` array, ``info`` to its sidecar.

    Returns the sidecar's path.
    """
    with _create(path).open("wb") as fh:
        np.save(fh, np.asarray(values, dtype="<f8"), allow_pickle=False)
    return write_json(sidecar(path), info)
