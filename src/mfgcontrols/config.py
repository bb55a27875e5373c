"""Key-value text configuration for problem instances.

Format: one ``key = value`` pair per line, ``#`` comments allowed.  Keys:
dimension, nx, nt, horizon, q, r, s, kappa_phi, theta, c, phi, A, m0, uT,
price_dim.  theta and c take a constant or a per-node CSV path; phi takes a
constant (scaled rectangular identity), k*d row-major numbers, or a CSV
path; A takes d*d row-major numbers or a single scalar (A = a I).  m0 and
uT take an expression: "uniform", "constant v", "gaussian_bump mu sigma",
"cosine k amp", or a CSV path ("uniform" is the unit density for m0 and the
flat zero cost for uT).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigParse
from .grid import Grid
from .io import read_rows
from .model import ProblemSpec

_KEYS = {
    "dimension", "nx", "nt", "horizon", "q", "r", "s", "kappa_phi",
    "theta", "c", "phi", "A", "m0", "uT", "price_dim",
}

_EXPRESSIONS = ("uniform", "constant", "gaussian_bump", "cosine")

_DEFAULTS = {
    "kappa_phi": "1.0", "theta": "1.0", "c": "1.0", "phi": "1.0",
    "A": "0.0", "m0": "uniform", "uT": "uniform", "price_dim": "1",
}


def parse_config(path: str) -> dict:
    """Read a config file into a raw key -> string dict."""
    if not os.path.exists(path):
        raise ConfigParse(f"no such config file: {path}")
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigParse(f"{path}: undecodable text: {exc}") from None
    raw = {}
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParse(f"{path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigParse(f"{path}:{ln}: unknown key '{key}'")
        if not value:
            raise ConfigParse(f"{path}:{ln}: empty value for '{key}'")
        raw[key] = value
    for key in ("dimension", "nx", "nt", "horizon", "q", "r", "s"):
        if key not in raw:
            raise ConfigParse(f"{path}: missing required key '{key}'")
    for key, default in _DEFAULTS.items():
        raw.setdefault(key, default)
    return raw


def _floats(text: str):
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigParse(f"cannot parse numbers from '{text}'") from exc


def _is_csv(key: str, text: str) -> bool:
    """Whether the value of theta, c, phi, m0 or uT is a CSV path: for m0 and uT
    one that names no expression, for the others one token that is no number."""
    toks = text.split()
    if key in ("m0", "uT"):
        return toks[0] not in _EXPRESSIONS
    try:
        float(text)
    except ValueError:
        return len(toks) == 1
    return False


def _space_expression(key: str, text: str, grid: Grid, base_dir: str) -> np.ndarray:
    if _is_csv(key, text):
        return _space_csv(os.path.join(base_dir, text), grid)
    toks = text.split()
    name = toks[0]
    coords = grid.meshgrid()
    if name == "uniform":
        return np.ones(grid.space_shape) if key == "m0" else np.zeros(grid.space_shape)
    args = _floats(" ".join(toks[1:]))
    if name == "constant":
        if len(args) != 1:
            raise ConfigParse("constant expression needs one value")
        return np.full(grid.space_shape, args[0])
    if name == "gaussian_bump":
        if len(args) != 2:
            raise ConfigParse("gaussian_bump expression needs 'mu sigma'")
        mu, sigma = args
        if sigma <= 0:
            raise ConfigParse("gaussian_bump sigma must be positive")
        out = np.ones(grid.space_shape)
        for ax in coords:
            dist = np.minimum(np.abs(ax - mu), 1.0 - np.abs(ax - mu))
            out = out * np.exp(-0.5 * (dist / sigma) ** 2)
        return out / (out.sum() * grid.cell_volume)
    if name == "cosine":
        if len(args) != 2:
            raise ConfigParse("cosine expression needs 'k amp'")
        freq, amp = args
        out = np.full(grid.space_shape, amp)
        for ax in coords:
            out = out * np.cos(2.0 * np.pi * freq * ax)
        return out


def _space_csv(path: str, grid: Grid) -> np.ndarray:
    return read_rows(path, ConfigParse, grid.space_shape, 1).reshape(grid.space_shape)


def _coefficient(key: str, text: str, grid: Grid, base_dir: str):
    if _is_csv(key, text):
        return _space_csv(os.path.join(base_dir, text), grid)
    if len(text.split()) != 1:
        raise ConfigParse(f"coefficient must be a constant or CSV path, got '{text}'")
    return float(text)


def _matrix(key: str, text: str, rows: int, cols: int):
    """A scalar (ProblemSpec scales the identity) or the rows x cols matrix of row-major numbers."""
    nums = _floats(text)
    if len(nums) == 1:
        return nums[0]
    if len(nums) != rows * cols:
        raise ConfigParse(f"{key} needs 1 or {rows * cols} numbers, got {len(nums)}")
    return np.array(nums).reshape(rows, cols)


def build_spec(raw: dict, base_dir: str = ".") -> ProblemSpec:
    """Materialize a ProblemSpec (and its Grid) from a parsed config.

    Every key must be present with a value that is not blank: a run's manifest
    stores its config with the defaults filled in, so a missing key is refused
    rather than defaulted.
    """
    missing = sorted(key for key in _KEYS if not str(raw.get(key, "")).strip())
    if missing:
        raise ConfigParse(f"missing or blank value for key '{missing[0]}'")
    try:
        d = int(raw["dimension"])
        nx = int(raw["nx"])
        nt = int(raw["nt"])
        T = float(raw["horizon"])
        q = float(raw["q"])
        r = float(raw["r"])
        s = float(raw["s"])
        kappa_phi = float(raw["kappa_phi"])
        k = int(raw["price_dim"])
    except ValueError as exc:
        raise ConfigParse(f"bad scalar entry: {exc}") from exc
    try:
        grid = Grid(d=d, nx=nx, nt=nt, T=T)
    except ValueError as exc:
        raise ConfigParse(str(exc)) from exc

    theta = _coefficient("theta", raw["theta"], grid, base_dir)
    c = _coefficient("c", raw["c"], grid, base_dir)
    if _is_csv("phi", raw["phi"]):
        phi = _space_csv(os.path.join(base_dir, raw["phi"]), grid)[None, None]  # per-node scalar, k = d = 1
        if k != 1 or d != 1:
            raise ConfigParse("per-node phi CSV is supported for k = d = 1 only")
    else:
        phi = _matrix("phi", raw["phi"], k, d)
    A = _matrix("A", raw["A"], d, d)
    m0 = _space_expression("m0", raw["m0"], grid, base_dir)
    uT = _space_expression("uT", raw["uT"], grid, base_dir)

    try:
        return ProblemSpec(grid=grid, q=q, r=r, s=s, kappa_phi=kappa_phi, theta=theta,
                           c=c, phi=phi, A=A, m0=m0, uT=uT, k=k)
    except ValueError as exc:
        raise ConfigParse(str(exc)) from exc


def csv_paths(raw: dict) -> list:
    """The CSV paths a parsed config names, as written (relative to its directory)."""
    return [raw[key] for key in ("theta", "c", "phi", "m0", "uT") if _is_csv(key, raw[key])]


def load_spec(path: str) -> ProblemSpec:
    """Parse a config file and build its ProblemSpec."""
    return build_spec(parse_config(path), base_dir=os.path.dirname(os.path.abspath(path)))
