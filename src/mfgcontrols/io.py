"""CSV and manifest serialization for fields, logs and solutions.

Field files carry one row per grid node with explicit index columns and all
floating-point values printed with 17 significant digits, which round-trips
doubles exactly.  A solution directory holds u.csv, m.csv, w.csv, P.csv,
log.csv and manifest.json.  The congestion multiplier is not stored: it is
fixed by the coupling, gamma = f(m), so read_solution derives it from m the
way the solvers do, and a gamma.csv in an older run directory is ignored.
"""

from __future__ import annotations

import functools
import json
import os
import warnings

import numpy as np

from .errors import MissingArtifact
from .grid import Grid
from .model import ProblemSpec
from .varsolve import ConvergenceLog
from .verify import Solution

FIELD_FILES = ("u.csv", "m.csv", "w.csv", "P.csv")
_AXES = ("x_index", "y_index")


@functools.lru_cache(maxsize=8)
def _index_columns(shape: tuple) -> np.ndarray:
    """Read-only index columns, as floats, of a file with a row per entry of an array of shape in C order.

    Field files index (t, x[, y]) over (nt+1, *space), P.csv t over (nt+1,) and a
    per-node config file (x[, y]) over space; the writers print these rows.
    """
    index = np.indices(shape).reshape(len(shape), -1).T.astype(float, order="C")
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=8)
def _lattice_template(shape: tuple, n_values: int) -> str:
    """One '%'-format body of a file with a row per entry of shape: its indices, then n_values %.17g slots.

    The indices are printed here, once per shape, so that a write is one
    '%' call.  '%.17g' % v prints the digits of format(v, '.17g'); 17
    significant digits round-trip doubles exactly.
    """
    index = _index_columns(shape)
    row = ",".join(["%d"] * len(shape)) + ",%%.17g" * n_values + "\n"  # %% leaves a value slot
    return (row * len(index)) % tuple(index.ravel().tolist())


def _write(path: str, cols: list, template: str, values) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n" + template % tuple(np.ravel(values).tolist()))


def write_scalar_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    _write(path, ["t_index", *_AXES[: grid.d], "value"], _lattice_template(grid.scalar_shape, 1), values)


def write_vector_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    cols = ["t_index", *_AXES[: grid.d]] + [f"value_{i}" for i in range(grid.d)]
    rows = values.reshape(grid.nt + 1, grid.d, grid.n_space).transpose(0, 2, 1)
    _write(path, cols, _lattice_template(grid.scalar_shape, grid.d), rows)


def write_price_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    cols = ["t_index"] + [f"value_{i}" for i in range(values.shape[1])]
    _write(path, cols, _lattice_template((grid.nt + 1,), values.shape[1]), values)


def read_rows(path: str, error: type, shape: tuple, n_values: int) -> np.ndarray:
    """The (rows, n_values) value columns of a CSV file with a row per entry of shape, read strictly.

    Below its header line the file holds one row per entry of an array of
    this shape, in the order the writers print: its index columns, one per
    axis, then n_values values.  A missing file, another row count, and a row
    that is ragged, has another width, holds a non-numeric or non-finite value
    or indexes another entry raise error naming the file; a bad row is named
    by its 1-based file line, the header being line 1.
    """
    if not os.path.exists(path):
        raise error(f"no such file: {path}")
    index, n_cols = _index_columns(shape), len(shape) + n_values
    try:
        with warnings.catch_warnings():  # loadtxt warns on a header-only file
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all() or (data.size and data.shape[1] != n_cols):
        raise error(f"{path}: malformed row: {_bad_line(path, n_cols, index)}")
    if data.shape[0] != len(index):
        raise error(f"{path}: expected {len(index)} rows, found {data.shape[0]}")
    if not np.array_equal(data[:, : len(shape)], index):
        raise error(f"{path}: rows not in lattice order: {_bad_line(path, n_cols, index)}")
    return data[:, len(shape):]


def _bad_line(path: str, n_cols: int, index: np.ndarray) -> str:
    """The first line of a file that read_rows refused and why, found by a rescan off the fast path."""
    with open(path, errors="replace") as fh:
        lines = fh.read().splitlines()
    row = 0
    for num, line in enumerate(lines[1:], start=2):
        text = line.split("#", 1)[0]  # loadtxt's comment convention; it skips blank lines
        if not text.strip():
            continue
        fields = text.split(",")
        if len(fields) != n_cols:
            return f"line {num} has {len(fields)} columns, expected {n_cols}"
        try:
            values = [float(v) for v in fields]
        except ValueError:
            return f"line {num} has a non-numeric value"
        if not all(np.isfinite(values)):
            return f"line {num} has a non-finite value"
        if row < len(index) and values[: index.shape[1]] != index[row].tolist():
            found, expected = ",".join(fields[: index.shape[1]]), ",".join("%d" % i for i in index[row])
            return f"line {num} has index {found}, expected {expected}"
        row += 1
    return "unreadable"


def write_log_csv(path: str, log: ConvergenceLog) -> None:
    cols = ["iter", "B", "D", "gap", "fp_res", "price_res"]
    _write(path, cols, ("%d" + ",%.17g" * 5 + "\n") * len(log.iters), np.column_stack(log.columns()))


def write_solution(out_dir: str, sol: Solution, log: ConvergenceLog | None = None, manifest: dict | None = None) -> list:
    """Write u, m, w, P (and the log and manifest, if given); returns the artifact file list."""
    os.makedirs(out_dir, exist_ok=True)
    g = sol.grid
    write_scalar_csv(os.path.join(out_dir, "u.csv"), g, sol.u)
    write_scalar_csv(os.path.join(out_dir, "m.csv"), g, sol.m)
    write_vector_csv(os.path.join(out_dir, "w.csv"), g, sol.w)
    write_price_csv(os.path.join(out_dir, "P.csv"), g, sol.P)
    artifacts = list(FIELD_FILES)
    if log is not None:
        write_log_csv(os.path.join(out_dir, "log.csv"), log)
        artifacts.append("log.csv")
    if manifest is not None:
        manifest = dict(manifest)
        manifest["artifacts"] = artifacts + ["manifest.json"]
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        artifacts.append("manifest.json")
    return artifacts


def read_manifest(sol_dir: str) -> dict:
    """The manifest of a solution directory: a JSON object whose config maps keys to strings."""
    path = os.path.join(sol_dir, "manifest.json")
    if not os.path.exists(path):
        raise MissingArtifact(f"missing artifact: {path}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise MissingArtifact(f"{path}: malformed JSON: {exc}") from None
    config = manifest.get("config") if isinstance(manifest, dict) else None
    if not (isinstance(config, dict) and all(isinstance(v, str) for v in config.values())):
        raise MissingArtifact(f"{path}: no 'config' object of strings")
    return manifest


def read_solution(sol_dir: str, spec: ProblemSpec) -> Solution:
    """Load a solution directory written by write_solution; gamma = f(m) as the solvers set it.

    Each field file must have its full shape: a row per node in lattice order
    (per time node for P.csv), its index columns, then 1 (u, m), d (w) or k (P) values.
    """
    g, d = spec.grid, spec.grid.d

    def read(name, shape, n_values):
        return read_rows(os.path.join(sol_dir, name), MissingArtifact, shape, n_values)

    u = read("u.csv", g.scalar_shape, 1).reshape(g.scalar_shape)
    m = read("m.csv", g.scalar_shape, 1).reshape(g.scalar_shape)
    w = read("w.csv", g.scalar_shape, d).reshape(g.nt + 1, g.n_space, d).transpose(0, 2, 1)
    P = read("P.csv", (g.nt + 1,), spec.k)
    return Solution(grid=g, u=u, m=m, w=w.reshape(g.vector_shape), P=P, gamma=spec.coupling_f(np.maximum(m, 0.0)))
