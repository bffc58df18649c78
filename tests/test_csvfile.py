"""The block-formatted CSV writer must reproduce the per-value loops it replaced.

Every table now ends lines with LF. The ``csv.writer`` loop that wrote the
trajectory, count, marginal and Wigner tables ended them with CRLF, so its
output is compared after CRLF -> LF; the row loop of the other tables is
compared byte for byte. Each case runs against both loops, named by the line
ending each one wrote.
"""

import csv
import math

import numpy as np
import pytest

from levitomo import artifacts as csvfile
from levitomo.tomography import WignerGrid, save_wigner

SPECIAL = [
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1.0,
    -3.0,
    1e16,
    2.0**53,
    2.0**53 + 2.0,
    123456789.0,
    1e-300,
    0.1,
    1.0 / 3.0,
]


def legacy_crlf(path, header, columns):
    """The ``csv.writer`` loop of the trajectory, count, marginal and Wigner writers."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.17g}" for v in row])


def legacy_lf(path, header, columns):
    """The row loop of the plot-data and spectrum writer."""
    rows = np.column_stack(columns)
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


LF, CRLF = "\n", "\r\n"
LEGACY = {CRLF: legacy_crlf, LF: legacy_lf}


def as_lf(data: bytes) -> bytes:
    return data.replace(CRLF.encode(), LF.encode())


def assert_same_bytes(tmp_path, header, columns, legacy_end):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    csvfile.write_columns(new, header, columns)
    LEGACY[legacy_end](old, header, columns)
    assert CRLF.encode() not in new.read_bytes()
    assert new.read_bytes() == as_lf(old.read_bytes())


def mixed_values(n_rows, seed):
    """Special values first, then random floats of every magnitude, cycled to ``n_rows``."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([SPECIAL, rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)])
    return np.resize(pool, n_rows)


@pytest.mark.parametrize("legacy_end", [LF, CRLF])
def test_special_and_integral_values(tmp_path, legacy_end):
    values = mixed_values(len(SPECIAL) + 64, seed=1)
    assert_same_bytes(tmp_path, ["a", "b"], [values, values[::-1].copy()], legacy_end)


@pytest.mark.parametrize("legacy_end", [LF, CRLF])
def test_single_row(tmp_path, legacy_end):
    assert_same_bytes(tmp_path, ["t_s", "z_m"], [np.array([-0.0]), np.array([math.nan])], legacy_end)


@pytest.mark.parametrize("legacy_end", [LF, CRLF])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_rows_around_a_block_boundary(tmp_path, legacy_end, offset):
    block_rows = csvfile.BLOCK_VALUES // 2
    n_rows = block_rows + offset
    times = np.arange(n_rows) / 1e6
    assert_same_bytes(tmp_path, ["t_s", "z_m"], [times, mixed_values(n_rows, seed=2)], legacy_end)


@pytest.mark.parametrize("legacy_end", [LF, CRLF])
@pytest.mark.parametrize("n_rows", [1, 6, 7, 8, 15])
def test_matrix_with_axis_header(tmp_path, monkeypatch, legacy_end, n_rows):
    """Wide rows, as the Wigner writer passes them: seven rows per block at 9 columns."""
    monkeypatch.setattr(csvfile, "BLOCK_VALUES", 63)
    axis = mixed_values(8, seed=3)
    matrix = mixed_values(n_rows * 8, seed=4).reshape(n_rows, 8)
    header = ["z_m\\p_over_m_omega_m"] + csvfile.format_numbers(axis)
    assert_same_bytes(tmp_path, header, [np.linspace(-1.0, 1.0, n_rows), *matrix.T], legacy_end)


def test_save_wigner_matches_legacy_loop(tmp_path):
    n = 5
    axis = np.linspace(-2.0, 2.0, n)
    values = mixed_values(n * n, seed=5).reshape(n, n)
    save_wigner(WignerGrid(z_grid_m=axis, p_grid=axis, values=values, dz=1.0, dp=1.0), tmp_path / "new.csv")
    with (tmp_path / "old.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_m\\p_over_m_omega_m"] + [f"{p:.17g}" for p in axis])
        for i, z in enumerate(axis):
            writer.writerow([f"{z:.17g}"] + [f"{v:.17g}" for v in values[i]])
    assert (tmp_path / "new.csv").read_bytes() == as_lf((tmp_path / "old.csv").read_bytes())


def test_columns_must_be_one_dimensional_and_equal_length(tmp_path):
    with pytest.raises(ValueError):
        csvfile.write_columns(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        csvfile.write_columns(tmp_path / "x.csv", ["a"], [np.zeros((2, 2))])
