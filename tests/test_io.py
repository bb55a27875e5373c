"""The CSV writers print the bytes of a per-row format(v, ".17g") reference."""

import numpy as np
import pytest

from mfgcontrols import io as sio
from mfgcontrols.grid import Grid
from mfgcontrols.varsolve import ConvergenceLog

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 1.0 / 3.0, -1e-7, 123456789012345678.0]


def _fmt(v):
    return format(float(v), ".17g")


def _values(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    values.flat[: len(SPECIAL)] = SPECIAL[: values.size]
    return values


def _reference_field(header, grid, values):
    # values: (nt+1, components, n_space)
    idx = np.indices(grid.space_shape).reshape(grid.d, grid.n_space)
    rows = [header]
    for t in range(grid.nt + 1):
        for j in range(grid.n_space):
            ix = ",".join(str(idx[a, j]) for a in range(grid.d))
            rows.append(f"{t},{ix}," + ",".join(_fmt(v) for v in values[t, :, j]))
    return "\n".join(rows) + "\n"


def test_scalar_csv_bytes_1d(tmp_path):
    g = Grid(d=1, nx=8, nt=4, T=1.0)
    values = _values(g.scalar_shape, 1)
    sio.write_scalar_csv(str(tmp_path / "s.csv"), g, values)
    expected = _reference_field("t_index,x_index,value", g, values.reshape(g.nt + 1, 1, g.n_space))
    assert (tmp_path / "s.csv").read_bytes() == expected.encode()


def test_vector_csv_bytes_2d(tmp_path):
    g = Grid(d=2, nx=5, nt=3, T=1.0)
    values = _values(g.vector_shape, 2)
    sio.write_vector_csv(str(tmp_path / "v.csv"), g, values)
    expected = _reference_field("t_index,x_index,y_index,value_0,value_1", g,
                                values.reshape(g.nt + 1, g.d, g.n_space))
    assert (tmp_path / "v.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("k", [1, 2])
def test_price_csv_bytes(tmp_path, k):
    g = Grid(d=1, nx=8, nt=6, T=1.0)
    values = _values((g.nt + 1, k), 3)
    sio.write_price_csv(str(tmp_path / "P.csv"), g, values)
    rows = ["t_index," + ",".join(f"value_{i}" for i in range(k))]
    rows += [f"{t}," + ",".join(_fmt(v) for v in values[t]) for t in range(g.nt + 1)]
    assert (tmp_path / "P.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


def test_log_csv_bytes(tmp_path):
    log = ConvergenceLog()
    values = _values((40, 5), 4)
    for i, row in enumerate(values, start=1):
        log.append(i, *row.tolist())
    sio.write_log_csv(str(tmp_path / "log.csv"), log)
    rows = ["iter,B,D,gap,fp_res,price_res"]
    rows += [f"{i}," + ",".join(_fmt(v) for v in row) for i, row in enumerate(values, start=1)]
    assert (tmp_path / "log.csv").read_bytes() == ("\n".join(rows) + "\n").encode()
