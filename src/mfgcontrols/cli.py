"""Batch front-end: classify, solve, verify, diagnose, probe-uniqueness.

Exit codes: 0 success, 1 input error, 2 hypothesis violation,
3 non-convergence, 4 verification verdict false.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import shutil
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import build_spec, csv_paths, load_spec, parse_config
from .diagnostics import diagnose
from .errors import (CFLViolation, ConfigParse, Diverged, HypothesisViolation, InvalidOption, MFGError,
                     MissingArtifact, NoConvergence)
from .model import check_assumptions, classify_exponents
from .picard import PicardOptions, picard_iterate
from .varsolve import ConvergenceLog, SolverOptions, solve_primal_dual, uniqueness_probe
from .verify import weak_solution_report
from . import io as sio

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGED = 3
EXIT_VERDICT_FALSE = 4

# files that solve and diagnose write into a run directory
_RUN_FILES = {*sio.FIELD_FILES, "log.csv", "manifest.json", "regularity.json", "diagnostics.csv"}


def cmd_classify(args) -> int:
    spec = load_spec(args.config)
    report = check_assumptions(spec)
    if not report.passed:
        print(json.dumps({"hypotheses": report.to_dict()}, indent=2))
    info = classify_exponents(spec)  # raises HypothesisViolation naming the first failure
    print(json.dumps(info.to_dict(), indent=2))
    return EXIT_OK


def _input_csvs(base: str, raw: dict) -> list:
    """(source, run-directory name) of each relative CSV path a config in directory base names.

    verify and diagnose rebuild the instance against the run directory, so
    solve copies these files there under the same relative name; absolute
    paths resolve as they are.
    """
    pairs = []
    for path in csv_paths(raw):
        if os.path.isabs(path):
            continue
        name = os.path.normpath(path)
        if name == os.pardir or name.startswith(os.pardir + os.sep) or name in _RUN_FILES:
            raise ConfigParse(f"CSV path '{path}' cannot be copied into the run directory under the same "
                              "name: it leaves the config's directory or is named like a run artifact")
        pairs.append((os.path.join(base, path), name))
    return pairs


def _check_out(path: str) -> None:
    """Refuse an --out whose nearest existing path is not a directory, before any work is done."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), head)


def cmd_solve(args) -> int:
    _check_out(args.out)
    raw = parse_config(args.config)
    base = os.path.dirname(os.path.abspath(args.config))
    spec = build_spec(raw, base_dir=base)
    case = classify_exponents(spec)  # raises HypothesisViolation naming the first failure
    inputs = _input_csvs(base, raw)

    t0 = time.perf_counter()
    if args.method == "pd":
        opts = SolverOptions(max_iter=args.max_iter, tol_gap=args.tol)
        sol, log = solve_primal_dual(spec, opts)
        converged = log.converged
        iterations = log.iterations
    else:
        opts = PicardOptions(max_outer=args.max_iter, tol_fixed_point=args.tol)
        result = picard_iterate(spec, opts)
        sol = result.solution
        # same log layout as the saddle-point run; only the fixed-point
        # residual column is meaningful for this method
        log = ConvergenceLog()
        for i, res in enumerate(result.residuals, start=1):
            log.append(i, np.nan, np.nan, np.nan, res, np.nan)
        converged = result.converged
        iterations = result.iterations
    wall = time.perf_counter() - t0

    rep, verdict = weak_solution_report(sol, spec, tol=max(args.tol, 1e-10))
    manifest = {
        "config": raw,
        "case_info": case.to_dict(),
        "solver": args.method,
        "options": {**asdict(opts), **log.steps},  # the fixed-point log has no steps
        "iterations": iterations,
        "converged": converged,
        "wall_time_s": wall,
        "residual_report": rep.to_dict(),
        "verdict": verdict,
        "tool_version": __version__,
    }
    sio.write_solution(args.out, sol, log=log, manifest=manifest)
    for source, name in inputs:
        dest = os.path.join(args.out, name)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        if not (os.path.exists(dest) and os.path.samefile(source, dest)):
            shutil.copyfile(source, dest)
    print(json.dumps({"converged": converged, "iterations": iterations, "duality_gap": rep.duality_gap,
                      "verdict": verdict, "out": args.out}, indent=2))
    return EXIT_OK if converged else EXIT_NONCONVERGED


def _load_run(sol_dir: str):
    """The spec rebuilt from a run directory's manifest, and the solution stored beside it."""
    spec = build_spec(sio.read_manifest(sol_dir)["config"], base_dir=sol_dir)
    return spec, sio.read_solution(sol_dir, spec)


def cmd_verify(args) -> int:
    spec, sol = _load_run(args.solution)
    rep, verdict = weak_solution_report(sol, spec, tol=args.tol)
    print(json.dumps(rep.to_dict(), indent=2))
    return EXIT_OK if verdict else EXIT_VERDICT_FALSE


def cmd_diagnose(args) -> int:
    spec, sol = _load_run(args.solution)
    try:
        shifts = [float(tok) for tok in args.shifts.split(",") if tok.strip()]
    except ValueError:
        raise InvalidOption(f"--shifts needs comma-separated numbers, got {args.shifts!r}") from None
    deltas = [k * spec.grid.hx for k in (1, 2, 4)]
    rec = diagnose(sol, spec, eps_list=shifts, delta_list=deltas)
    with open(f"{args.solution}/regularity.json", "w") as fh:
        json.dump(rec.to_dict(), fh, indent=2)
    with open(f"{args.solution}/diagnostics.csv", "w") as fh:
        fh.write("kind,shift,sum\n")
        for eps, val in rec.time_shift_sums.items():
            fh.write(f"time,{eps:.17g},{val:.17g}\n")
        for delta, val in rec.space_shift_sums.items():
            fh.write(f"space,{delta:.17g},{val:.17g}\n")
    print(json.dumps(rec.to_dict(), indent=2))
    return EXIT_OK


def cmd_probe(args) -> int:
    spec = load_spec(args.config)
    classify_exponents(spec)  # raises HypothesisViolation naming the first failure
    opts = SolverOptions(max_iter=args.max_iter, tol_gap=args.tol)
    probe = uniqueness_probe(spec, opts, n_inits=args.n_inits, seed=args.seed)
    print(json.dumps(asdict(probe), indent=2))
    return EXIT_OK


@functools.lru_cache(maxsize=1)  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfgc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="derived exponents and admissibility cell")
    p.add_argument("config")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="solve an instance and write artifacts")
    p.add_argument("config")
    p.add_argument("--method", choices=("pd", "picard"), default="pd")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=SolverOptions.tol_gap)
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter, dest="max_iter")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="residual report and verdict for a solution directory")
    p.add_argument("--solution", required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diagnose", help="regularity record and shift-sum table")
    p.add_argument("--solution", required=True)
    p.add_argument("--shifts", default="0.02,0.04,0.08")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("probe-uniqueness", help="distances across random solver restarts")
    p.add_argument("config")
    p.add_argument("--n-inits", type=int, default=3, dest="n_inits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=SolverOptions.tol_gap)
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter, dest="max_iter")
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or help; 2 is reserved for hypotheses
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MissingArtifact, OSError) as exc:  # OSError: a path that is a directory, an --out that is a file
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HypothesisViolation as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (CFLViolation, Diverged, NoConvergence) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except MFGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
