"""CSV and manifest serialization for fields, logs and solutions.

Field files carry one row per grid node with explicit index columns and all
floating-point values printed with 17 significant digits, which round-trips
doubles exactly.  A solution directory holds u.csv, m.csv, w.csv, P.csv,
gamma.csv, log.csv and manifest.json.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

from .errors import MissingArtifact
from .grid import Grid
from .varsolve import ConvergenceLog, Solution

FIELD_FILES = ("u.csv", "m.csv", "w.csv", "P.csv", "gamma.csv")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _index_columns(grid: Grid):
    return ["x_index"] if grid.d == 1 else ["x_index", "y_index"]


def write_scalar_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    cols = ["t_index", *_index_columns(grid), "value"]
    flat = values.reshape(grid.nt + 1, grid.n_space)
    idx = np.indices(grid.space_shape).reshape(grid.d, grid.n_space)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(grid.nt + 1):
            for j in range(grid.n_space):
                ix = ",".join(str(idx[a, j]) for a in range(grid.d))
                fh.write(f"{t},{ix},{_fmt(flat[t, j])}\n")


def write_vector_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    cols = ["t_index", *_index_columns(grid)] + [f"value_{i}" for i in range(grid.d)]
    flat = values.reshape(grid.nt + 1, grid.d, grid.n_space)
    idx = np.indices(grid.space_shape).reshape(grid.d, grid.n_space)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(grid.nt + 1):
            for j in range(grid.n_space):
                ix = ",".join(str(idx[a, j]) for a in range(grid.d))
                vals = ",".join(_fmt(flat[t, i, j]) for i in range(grid.d))
                fh.write(f"{t},{ix},{vals}\n")


def write_price_csv(path: str, grid: Grid, values: np.ndarray) -> None:
    k = values.shape[1]
    cols = ["t_index"] + [f"value_{i}" for i in range(k)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(grid.nt + 1):
            fh.write(str(t) + "," + ",".join(_fmt(values[t, i]) for i in range(k)) + "\n")


def _read_csv(path: str) -> np.ndarray:
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
    return data


def read_scalar_csv(path: str, grid: Grid) -> np.ndarray:
    data = _read_csv(path)
    if data.shape[0] != (grid.nt + 1) * grid.n_space:
        raise MissingArtifact(f"{path}: wrong row count {data.shape[0]}")
    return data[:, -1].reshape(grid.scalar_shape)


def read_vector_csv(path: str, grid: Grid) -> np.ndarray:
    data = _read_csv(path)
    if data.shape[0] != (grid.nt + 1) * grid.n_space:
        raise MissingArtifact(f"{path}: wrong row count {data.shape[0]}")
    vals = data[:, -grid.d :]
    return vals.reshape(grid.nt + 1, grid.n_space, grid.d).transpose(0, 2, 1).reshape(grid.vector_shape)


def read_price_csv(path: str, grid: Grid) -> np.ndarray:
    data = _read_csv(path)
    if data.shape[0] != grid.nt + 1:
        raise MissingArtifact(f"{path}: wrong row count {data.shape[0]}")
    return data[:, 1:]


def write_log_csv(path: str, log: ConvergenceLog) -> None:
    with open(path, "w") as fh:
        fh.write("iter,B,D,gap,fp_res,price_res\n")
        for row in log.rows():
            fh.write(str(row[0]) + "," + ",".join(_fmt(v) for v in row[1:]) + "\n")


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
    path = os.path.join(sol_dir, "manifest.json")
    if not os.path.exists(path):
        raise MissingArtifact(f"missing artifact: {path}")
    with open(path) as fh:
        return json.load(fh)


def read_solution(sol_dir: str, grid: Grid) -> Solution:
    """Load a solution directory written by write_solution."""
    u = read_scalar_csv(os.path.join(sol_dir, "u.csv"), grid)
    m = read_scalar_csv(os.path.join(sol_dir, "m.csv"), grid)
    w = read_vector_csv(os.path.join(sol_dir, "w.csv"), grid)
    P = read_price_csv(os.path.join(sol_dir, "P.csv"), grid)
    gamma = read_scalar_csv(os.path.join(sol_dir, "gamma.csv"), grid)
    return Solution(grid=grid, u=u, m=m, w=w, P=P, gamma=gamma)
