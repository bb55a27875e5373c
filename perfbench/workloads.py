"""The four benchmark workloads: seeded instances, one request each, output checks.

A request is one closed-loop unit of user work: build (or load) the instance,
solve it, verify the result.  ``Workload.request`` returns the request's
timings and the raw outputs; ``Workload.check`` inspects those outputs and
returns a list of failure messages (empty when the output is correct).
Checks run outside the timed region.

Only public entry points of ``mfgcontrols`` are used, and every call is
resolved through the package's module attributes at call time, so the
tracer's wrappers see it.

Seeds: seed 0 gives the canonical instances (the values in NOTES.md and
the ROADMAP baseline); any other seed moves each bump centre by at most
``CENTRE_JITTER`` and scales each width by at most ``WIDTH_JITTER``, drawn
from ``random.Random("<workload>:<seed>")``.  The jitter is kept small
because iteration counts jump when it is not: with ±0.01 / ±2%, five of
sixteen 2-D seeds needed 1,590 PD iterations instead of 1,318.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import random
import shutil
import time

import numpy as np

import mfgcontrols as mfg
from mfgcontrols import cli, prox

CENTRE_JITTER = 0.003
WIDTH_JITTER = 0.006
# One verification takes milliseconds, and the shared host runs some
# milliseconds up to 1.8x slower than others.  So each request repeats the
# verification for VERIFY_SHARE of its solve time (and at least
# VERIFY_MIN_CALLS times), and its verify time is the fastest call of that
# block.
VERIFY_SHARE = 0.1
VERIFY_MIN_CALLS = 5


def _bump(grid, mu: tuple, sigma: tuple) -> np.ndarray:
    """Periodic gaussian bump, one centre and width per axis (unnormalized)."""
    out = np.ones(grid.space_shape)
    for ax, m, s in zip(grid.meshgrid(), mu, sigma):
        dist = np.minimum(np.abs(ax - m), 1.0 - np.abs(ax - m))
        out = out * np.exp(-0.5 * (dist / s) ** 2)
    return out


def _bump_1d_spec(params: dict, n: int, expo: float):
    """The 1-D n x n bump instance (c = 0.01, uT = cos 2 pi x) with q = r = s = expo."""
    grid = mfg.Grid(d=1, nx=n, nt=n, T=1.0)
    x = grid.axis_coords()
    return mfg.ProblemSpec(grid=grid, q=expo, r=expo, s=expo, kappa_phi=1.0, theta=1.0, c=0.01,
                           phi=1.0, A=None, m0=_bump(grid, (params["mu"],), (params["sigma"],)),
                           uT=np.cos(2.0 * np.pi * x), k=1)


def timed_block(fn, min_calls: int, min_seconds: float):
    """Call fn() at least min_calls times and for at least min_seconds.

    Returns (first result, wall time of the first call, wall time of the fastest call).
    """
    start = time.perf_counter()
    calls, fastest_s = 0, float("inf")
    while True:
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        if calls == 0:
            first, first_s = out, t1 - t0
        fastest_s = min(fastest_s, t1 - t0)
        calls += 1
        if calls >= min_calls and t1 - start >= min_seconds:
            return first, first_s, fastest_s


@contextlib.contextmanager
def _quiet():
    """Swallow what the CLI prints, so the benchmark's own stdout stays clean."""
    with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(_stdio.StringIO()):
        yield


class Workload:
    name = ""
    canonical: dict = {}
    verify_block = True  # False: verify once (traced requests)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.params = dict(self.canonical)
        if seed != 0:
            rng = random.Random(f"{self.name}:{seed}")
            for key, value in self.canonical.items():
                if key.startswith("mu"):
                    self.params[key] = value + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
                else:
                    self.params[key] = value * (1.0 + rng.uniform(-WIDTH_JITTER, WIDTH_JITTER))

    def write_inputs(self) -> None:
        """Write the input files a user would already have (untimed)."""

    def prepare(self) -> None:
        """Untimed per-run preparation of the output checks' references."""

    def build_spec(self):
        """The set-up a user pays per instance: spec, hypotheses, exponent cell."""
        spec = self.make_spec()
        report = mfg.check_assumptions(spec)
        if not report.passed:
            raise mfg.HypothesisViolation(str(report.failures))
        mfg.classify_exponents(spec)
        return spec

    def make_spec(self):
        raise NotImplementedError

    def verify(self, fn, solve_s: float):
        """Time fn() as a verification block; see VERIFY_SHARE."""
        if not self.verify_block:
            return timed_block(fn, 1, 0.0)
        return timed_block(fn, VERIFY_MIN_CALLS, VERIFY_SHARE * solve_s)

    def request(self, index: int) -> dict:
        """Build, solve, verify; total_s covers the first verification only."""
        t0 = time.perf_counter()
        spec = self.build_spec()
        t1 = time.perf_counter()
        sol, iterations, extra = self.solve(spec)
        t2 = time.perf_counter()
        (report, verdict), first_s, verify_s = self.verify(
            lambda: mfg.weak_solution_report(sol, spec, tol=5e-3), t2 - t1)
        return {
            "solve_s": t2 - t1,
            "verify_s": verify_s,
            "total_s": t2 - t0 + first_s,
            "iterations": iterations,
            "out": {"spec": spec, "sol": sol, "report": report, "verdict": verdict, **extra},
        }

    def solve(self, spec):
        raise NotImplementedError

    def check(self, out: dict) -> list:
        raise NotImplementedError

    def finish_request(self, index: int) -> None:
        """Untimed clean-up after a request's check."""


class Bump1dCli(Workload):
    """`mfgc solve` then `mfgc verify` on a generated 1-D bump config."""

    name = "bump1d-cli"
    canonical = {"mu": 0.3, "sigma": 0.3}

    def config_text(self) -> str:
        p = self.params
        return "\n".join([
            "dimension = 1", "nx = 64", "nt = 64", "horizon = 1.0",
            "q = 2.0", "r = 2.0", "s = 2.0", "kappa_phi = 1.0",
            "theta = 1.0", "c = 0.01", "phi = 1.0", "A = 0.0",
            f"m0 = gaussian_bump {p['mu']!r} {p['sigma']!r}",
            "uT = cosine 1 1.0", "price_dim = 1", "",
        ])

    @property
    def config_path(self) -> str:
        return os.path.join(self.workdir, "bump.cfg")

    def write_inputs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            fh.write(self.config_text())

    def make_spec(self):
        return mfg.load_spec(self.config_path)

    def _out_dir(self, index: int) -> str:
        return os.path.join(self.workdir, f"run{index}")

    def request(self, index: int) -> dict:
        out_dir = self._out_dir(index)
        with _quiet():
            t0 = time.perf_counter()
            rc_solve = cli.main(["solve", self.config_path, "--out", out_dir, "--tol", "1e-3"])
            t1 = time.perf_counter()
            rc_verify, first_s, verify_s = self.verify(
                lambda: cli.main(["verify", "--solution", out_dir, "--tol", "5e-3"]), t1 - t0)
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        return {
            "solve_s": t1 - t0,
            "verify_s": verify_s,
            "total_s": t1 - t0 + first_s,
            "iterations": int(manifest["iterations"]),
            "out": {"rc_solve": rc_solve, "rc_verify": rc_verify, "manifest": manifest},
        }

    def check(self, out: dict) -> list:
        errors = []
        if out["rc_solve"] != 0:
            errors.append(f"solve exit code {out['rc_solve']}")
        if out["rc_verify"] != 0:
            errors.append(f"verify exit code {out['rc_verify']}")
        if out["manifest"].get("converged") is not True:
            errors.append("manifest does not say converged")
        return errors

    def finish_request(self, index: int) -> None:
        shutil.rmtree(self._out_dir(index), ignore_errors=True)


class Bump2dDiffusion(Workload):
    """PD to gap 1e-3 on a 2-D 32^2 x 16 bump with anisotropic diffusion."""

    name = "bump2d-diffusion"
    canonical = {"mu_x": 0.3, "mu_y": 0.6, "sigma_x": 0.2, "sigma_y": 0.25}

    def make_spec(self):
        p = self.params
        grid = mfg.Grid(d=2, nx=32, nt=16, T=1.0)
        X, Y = grid.meshgrid()
        m0 = _bump(grid, (p["mu_x"], p["mu_y"]), (p["sigma_x"], p["sigma_y"]))
        uT = np.cos(2.0 * np.pi * X) + 0.5 * np.sin(2.0 * np.pi * Y)
        A = np.array([[0.01, 0.004], [0.004, 0.01]])
        return mfg.ProblemSpec(grid=grid, q=2.0, r=2.0, s=2.0, kappa_phi=1.0, theta=1.0,
                               c=0.01, phi=1.0, A=A, m0=m0, uT=uT, k=1)

    def solve(self, spec):
        sol, log = mfg.solve_primal_dual(spec, mfg.SolverOptions(max_iter=20000, tol_gap=1e-3))
        return sol, log.iterations, {"converged": log.converged}

    def check(self, out: dict) -> list:
        errors = []
        if not out["converged"]:
            errors.append("PD did not reach gap 1e-3")
        if not out["verdict"]:
            errors.append("weak_solution_report verdict false at tol 5e-3")
        if not out["report"].mass_drift <= 5e-3:
            errors.append(f"mass drift {out['report'].mass_drift:.3e} > 5e-3")
        return errors


class Bump1dPicard(Workload):
    """Damped Picard on the 64 x 64 bump, checked against a PD reference."""

    name = "bump1d-picard"
    canonical = {"mu": 0.3, "sigma": 0.3}
    reference = None

    def make_spec(self):
        return _bump_1d_spec(self.params, 64, 2.0)

    def prepare(self) -> None:
        # PD reference of the same instance at criterion 4's settings; untimed.
        spec = self.make_spec()
        sol, log = mfg.solve_primal_dual(spec, mfg.SolverOptions(max_iter=60000, tol_gap=1e-6))
        if not log.converged:
            raise RuntimeError("PD reference did not converge")
        self.reference = sol

    def solve(self, spec):
        res = mfg.picard_iterate(spec, mfg.PicardOptions(damping=0.05, max_outer=2000, tol_fixed_point=1e-10))
        return res.solution, res.iterations, {"converged": res.converged}

    def check(self, out: dict) -> list:
        errors = []
        sol, g = out["sol"], out["spec"].grid
        if not out["converged"]:
            errors.append("Picard did not converge")
        masses = np.sum(sol.m, axis=1) * g.cell_volume
        drift = float(np.max(np.abs(masses - 1.0)))
        if not drift <= 1e-12:
            errors.append(f"mass drift {drift:.3e} > 1e-12")
        if not float(np.min(sol.m)) >= 0.0:
            errors.append(f"negative density {float(np.min(sol.m)):.3e}")
        dist = float(np.sum(np.abs(sol.m - self.reference.m)) * g.ht * g.cell_volume)
        if not dist <= 1e-2:
            errors.append(f"L1 distance to the PD reference {dist:.3e} > 1e-2")
        return errors


class NonQuad1d(Workload):
    """A fixed budget of PD iterations on the 16 x 16 bump with q = r = s = 3."""

    name = "nonquad1d"
    canonical = {"mu": 0.3, "sigma": 0.3}
    budget = 10
    exponents = 3.0

    def make_spec(self):
        return _bump_1d_spec(self.params, 16, self.exponents)

    def solve(self, spec):
        sol, log = mfg.solve_primal_dual(spec, mfg.SolverOptions(max_iter=self.budget, tol_gap=0.0))
        return sol, log.iterations, {}

    def kkt_batch(self):
        """Worst KKT residual of the joint prox on a seeded batch at this workload's exponents.

        tau, c and theta are the values the prox tests use (0.37, 0.9, 1.1).
        """
        rng = np.random.default_rng(self.seed)
        mbar = rng.uniform(-0.5, 2.0, size=64)
        wbar = rng.uniform(-1.5, 1.5, size=(1, 64))
        e = self.exponents
        m, w = prox.prox_kinetic_congestion(mbar, wbar, 0.37, 0.9, e, 1.1, e)
        return float(np.max(prox.kinetic_kkt_residual(m, w, mbar, wbar, 0.37, 0.9, e, 1.1, e)))

    def check(self, out: dict) -> list:
        errors = []
        sol = out["sol"]
        for field in ("u", "m", "w", "P", "gamma"):
            if not np.all(np.isfinite(getattr(sol, field))):
                errors.append(f"{field} has non-finite entries")
        if not float(np.min(sol.m)) >= 0.0:
            errors.append(f"negative density {float(np.min(sol.m)):.3e}")
        wnorm = np.sqrt(np.sum(sol.w * sol.w, axis=1))
        if np.any(wnorm[sol.m == 0.0] != 0.0):
            errors.append("w != 0 where m = 0")
        kkt = self.kkt_batch()
        if not kkt <= 1e-10:
            errors.append(f"joint prox KKT residual {kkt:.3e} > 1e-10")
        return errors


WORKLOADS = {cls.name: cls for cls in (Bump1dCli, Bump2dDiffusion, Bump1dPicard, NonQuad1d)}
