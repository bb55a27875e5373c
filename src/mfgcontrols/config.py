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
    raw = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
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


def _space_expression(text: str, grid: Grid, base_dir: str, is_density: bool) -> np.ndarray:
    toks = text.split()
    name = toks[0]
    if name not in _EXPRESSIONS:
        return _space_csv(os.path.join(base_dir, text), grid)
    coords = grid.meshgrid()
    if name == "uniform":
        return np.ones(grid.space_shape) if is_density else np.zeros(grid.space_shape)
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
    if not os.path.exists(path):
        raise ConfigParse(f"no such CSV file: {path}")
    data = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    if data.shape[0] != grid.n_space:
        raise ConfigParse(f"{path}: expected {grid.n_space} rows, found {data.shape[0]}")
    return data[:, -1].reshape(grid.space_shape)


def _coefficient(text: str, grid: Grid, base_dir: str) -> np.ndarray:
    toks = text.split()
    if len(toks) == 1:
        try:
            return np.full(grid.space_shape, float(toks[0]))
        except ValueError:
            return _space_csv(os.path.join(base_dir, text), grid)
    raise ConfigParse(f"coefficient must be a constant or CSV path, got '{text}'")


def build_spec(raw: dict, base_dir: str = ".") -> ProblemSpec:
    """Materialize a ProblemSpec (and its Grid) from a parsed config.

    Every key must be present: a run's manifest stores its config with the
    defaults filled in, so a missing key is refused rather than defaulted.
    """
    missing = sorted(_KEYS - raw.keys())
    if missing:
        raise ConfigParse(f"missing key '{missing[0]}'")
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

    theta = _coefficient(raw["theta"], grid, base_dir)
    c = _coefficient(raw["c"], grid, base_dir)

    phi_vals = raw["phi"].split()
    if len(phi_vals) == 1 and not _is_number(phi_vals[0]):
        phi = _space_csv(os.path.join(base_dir, raw["phi"]), grid)  # per-node scalar, k = d = 1
        phi = phi.reshape(1, 1, *grid.space_shape)
        if k != 1 or d != 1:
            raise ConfigParse("per-node phi CSV is supported for k = d = 1 only")
    else:
        nums = _floats(raw["phi"])
        if len(nums) == 1:
            phi = nums[0] * np.eye(k, d)
        elif len(nums) == k * d:
            phi = np.array(nums).reshape(k, d)
        else:
            raise ConfigParse(f"phi needs 1 or {k * d} numbers, got {len(nums)}")

    nums = _floats(raw["A"])
    if len(nums) == 1:
        A = nums[0] * np.eye(d)
    elif len(nums) == d * d:
        A = np.array(nums).reshape(d, d)
    else:
        raise ConfigParse(f"A needs 1 or {d * d} numbers, got {len(nums)}")

    m0 = _space_expression(raw["m0"], grid, base_dir, is_density=True)
    uT = _space_expression(raw["uT"], grid, base_dir, is_density=False)

    try:
        return ProblemSpec(grid=grid, q=q, r=r, s=s, kappa_phi=kappa_phi, theta=theta,
                           c=c, phi=phi, A=A, m0=m0, uT=uT, k=k)
    except ValueError as exc:
        raise ConfigParse(str(exc)) from exc


def csv_paths(raw: dict) -> list:
    """The CSV paths a parsed config names, as written (relative to its directory)."""
    paths = [raw[key] for key in ("theta", "c", "phi") if len(raw[key].split()) == 1 and not _is_number(raw[key])]
    paths += [raw[key] for key in ("m0", "uT") if raw[key].split()[0] not in _EXPRESSIONS]
    return paths


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def load_spec(path: str) -> ProblemSpec:
    """Parse a config file and build its ProblemSpec."""
    return build_spec(parse_config(path), base_dir=os.path.dirname(os.path.abspath(path)))
