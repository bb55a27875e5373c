"""CSV and manifest serialization for fields, logs and solutions.

Field files carry one row per grid node with explicit index columns and all
floating-point values printed with 17 significant digits, which round-trips
doubles exactly.  A solution directory holds u.csv, m.csv, w.csv, P.csv,
gamma.csv, log.csv and manifest.json.
"""

from __future__ import annotations

import functools
import json
import os
import warnings

import numpy as np

from .errors import MissingArtifact
from .grid import Grid
from .varsolve import ConvergenceLog, Solution

FIELD_FILES = ("u.csv", "m.csv", "w.csv", "P.csv", "gamma.csv")
_AXES = ("x_index", "y_index")


def _template(prefixes, n_values: int) -> str:
    """One '%'-format string for a file body: a row per prefix with n_values %.17g slots.

    '%.17g' % v prints the digits of format(v, '.17g'); 17 significant
    digits round-trip doubles exactly.
    """
    slots = ",".join(["%.17g"] * n_values)
    return "".join(f"{prefix},{slots}\n" for prefix in prefixes)


@functools.lru_cache(maxsize=8)
def _field_template(grid: Grid, n_values: int) -> str:
    """_template of a field file, whose rows start with the indices t, x[, y] of a node."""
    nodes = [",".join(map(str, ix)) for ix in np.indices(grid.space_shape).reshape(grid.d, -1).T.tolist()]
    return _template((f"{t},{ix}" for t in range(grid.nt + 1) for ix in nodes), n_values)


def _write(path: str, cols: list, template: str, values) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n" + template % tuple(np.ravel(values).tolist()))


def write_scalar_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    _write(path, ["t_index", *_AXES[: grid.d], "value"], _field_template(grid, 1), values)


def write_vector_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    cols = ["t_index", *_AXES[: grid.d]] + [f"value_{i}" for i in range(grid.d)]
    rows = values.reshape(grid.nt + 1, grid.d, grid.n_space).transpose(0, 2, 1)
    _write(path, cols, _field_template(grid, grid.d), rows)


def write_price_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    cols = ["t_index"] + [f"value_{i}" for i in range(values.shape[1])]
    _write(path, cols, _template(range(grid.nt + 1), values.shape[1]), values)


def _read_csv(path: str, n_rows: int) -> np.ndarray:
    if not os.path.exists(path):
        raise MissingArtifact(f"missing artifact: {path}")
    try:
        with warnings.catch_warnings():  # a header-only file is reported by its row count below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:  # a wrong column count or a non-numeric value
        raise MissingArtifact(f"{path}: malformed row: {str(exc).split(';')[0]}") from None
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if bad.size:
        raise MissingArtifact(f"{path}: malformed row: non-finite value on line {bad[0] + 2}")
    if data.shape[0] != n_rows:
        raise MissingArtifact(f"{path}: wrong row count {data.shape[0]}")
    return data


def read_scalar_csv(path: str, grid: Grid) -> np.ndarray:
    return _read_csv(path, (grid.nt + 1) * grid.n_space)[:, -1].reshape(grid.scalar_shape)


def read_vector_csv(path: str, grid: Grid) -> np.ndarray:
    vals = _read_csv(path, (grid.nt + 1) * grid.n_space)[:, -grid.d :]
    return vals.reshape(grid.nt + 1, grid.n_space, grid.d).transpose(0, 2, 1).reshape(grid.vector_shape)


def read_price_csv(path: str, grid: Grid) -> np.ndarray:
    return _read_csv(path, grid.nt + 1)[:, 1:]


def write_log_csv(path: str, log: ConvergenceLog) -> None:
    cols = ["iter", "B", "D", "gap", "fp_res", "price_res"]
    _write(path, cols, _template(log.iters, 5), np.column_stack(log.columns()[1:]))


def write_solution(out_dir: str, sol: Solution, log: ConvergenceLog | None = None, manifest: dict | None = None) -> list:
    """Write all solution artifacts; returns the artifact file list."""
    os.makedirs(out_dir, exist_ok=True)
    g = sol.grid
    write_scalar_csv(os.path.join(out_dir, "u.csv"), g, sol.u)
    write_scalar_csv(os.path.join(out_dir, "m.csv"), g, sol.m)
    write_vector_csv(os.path.join(out_dir, "w.csv"), g, sol.w)
    write_price_csv(os.path.join(out_dir, "P.csv"), g, sol.P)
    write_scalar_csv(os.path.join(out_dir, "gamma.csv"), g, sol.gamma)
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


def read_solution(sol_dir: str, grid: Grid) -> Solution:
    """Load a solution directory written by write_solution."""
    u = read_scalar_csv(os.path.join(sol_dir, "u.csv"), grid)
    m = read_scalar_csv(os.path.join(sol_dir, "m.csv"), grid)
    w = read_vector_csv(os.path.join(sol_dir, "w.csv"), grid)
    P = read_price_csv(os.path.join(sol_dir, "P.csv"), grid)
    gamma = read_scalar_csv(os.path.join(sol_dir, "gamma.csv"), grid)
    return Solution(grid=grid, u=u, m=m, w=w, P=P, gamma=gamma)
