"""Benchmark of the mfgcontrols solver, verifier and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload bump1d-cli --seed 0 --seconds 45 --trace 0

Workloads: bump1d-cli, bump2d-diffusion, bump1d-picard, nonquad1d (see
NOTES.md for why each exists and which layers it exercises).
BENCHMARK.json lists bump1d-cli and bump1d-picard only; the other two run
by hand (NOTES.md says why).

The run starts one fresh single-threaded child that drives the workload
as a closed loop with one client for ``--seconds`` seconds, checking
every request's output.  Around it, ``SETUP_PROBES`` fresh child
processes (half before the loop, half after) time the set-up: import,
spec, hypotheses, exponent cell.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's functions from the outside and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  A full record (every sample, the environment, the
failures) goes to ``.perfbench_out/results/``, and the traced run's spans
to ``.perfbench_out/spans/``.

Exit codes: 0 when the run completed (``correct`` says whether every
output check passed), 2 when the package sources are missing or a child
process failed; no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from envinfo import environment, pinned_env  # noqa: E402
from tracer import TRACED, metric_prefix  # noqa: E402

BENCH_VERSION = 1
WORKLOAD_NAMES = ("bump1d-cli", "bump2d-diffusion", "bump1d-picard", "nonquad1d")
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 5.0
RUN_BUDGET_S = 170.0
OUT_ROOT = ".perfbench_out"
PACKAGE_INIT = os.path.join("src", "mfgcontrols", "__init__.py")

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iterations", "count"),
    ("us_per_iter", "us"),
    ("verify_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
)

# Per-layer metrics besides calls / self_s / us_per_call of each traced function.
DERIVED_LAYER = (
    ("varsolve.certified_frac", "ratio"),
    ("picard.substeps", "count"),
    ("io.bytes_written", "bytes"),
    ("prox.no_convergence", "count"),
    ("trace.requests", "count"),
    ("trace.absent", "count"),
    ("trace.total_s", "s"),
    ("trace.untraced_total_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_names() -> list:
    names = []
    for target in TRACED:
        prefix = metric_prefix(target)
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s"), (f"{prefix}.us_per_call", "us")]
    return names + list(DERIVED_LAYER)


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it: (pct, value), or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class ChildFailed(RuntimeError):
    pass


def _run_child(args: list, env: dict, out_path: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args, "--out", out_path]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {exc.timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out_path) as fh:
        return json.load(fh)


def _end_to_end(setup: list, loop: dict) -> dict:
    samples = loop["samples"]
    per_iter = [1e6 * s["solve_s"] / s["iterations"] for s in samples if s["iterations"] > 0]
    # Request timings are the fastest request's; NOTES.md ("Why the fastest
    # request") gives the measurements behind that choice.
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": min(s["solve_s"] for s in samples),
        "iterations": statistics.median(s["iterations"] for s in samples),
        "us_per_iter": min(per_iter) if per_iter else float("nan"),
        "verify_s": min(s["verify_s"] for s in samples),
        "total_s": min(s["total_s"] for s in samples),
        "peak_rss_mb": loop["peak_rss_mb"],
        "success_frac": (loop["attempted"] - loop["failed"]) / loop["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(loop: dict) -> dict:
    tr = loop["trace"]
    n_req = max(tr["requests"], 1)
    values = {}
    for target in TRACED:
        prefix = metric_prefix(target)
        layer = tr["layers"].get(target, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = layer["calls"]
        values[f"{prefix}.calls"] = calls / n_req
        values[f"{prefix}.self_s"] = layer["self_s"] / n_req
        values[f"{prefix}.us_per_call"] = 1e6 * layer["total_s"] / calls if calls else 0.0
    traced = [s["total_s"] for s in loop["samples"] if s["traced"]]
    untraced = [s["total_s"] for s in loop["samples"] if not s["traced"]]
    t_traced = statistics.median(traced) if traced else float("nan")
    t_untraced = statistics.median(untraced) if untraced else float("nan")
    values.update({
        "varsolve.certified_frac": tr["eval_B_from_varsolve"] / tr["iterations"] if tr["iterations"] else 0.0,
        "picard.substeps": tr["diffusion_from_picard"] / n_req,
        "io.bytes_written": tr["bytes_written"] / n_req,
        "prox.no_convergence": tr["no_convergence"] / n_req,
        "trace.requests": tr["requests"],
        "trace.absent": len(tr["absent"]),
        "trace.total_s": t_traced,
        "trace.untraced_total_s": t_untraced,
        "trace.overhead_frac": t_traced / t_untraced - 1.0,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def _summary_lines(args, setup: list, loop: dict, metrics: dict) -> list:
    lines = [f"perfbench v{BENCH_VERSION}: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} closed loop, 1 client"]
    samples = loop["samples"]
    series = {key: [s[key] for s in samples] for key in ("solve_s", "verify_s", "total_s")}
    if setup:
        series["setup_s"] = setup
    for key, vals in series.items():
        tail = tail_percentile(vals)
        tail_txt = f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "no percentile has 10 samples beyond it"
        lines.append(f"  {key:<12} median {statistics.median(vals):.6g} s, {tail_txt}, "
                     f"fastest {min(vals):.6g} s, n={len(vals)}")
    if args.trace:
        tr = loop["trace"]
        lines.append(f"  traced requests {tr['requests']}, absent functions: {', '.join(tr['absent']) or 'none'}")
        over = metrics["trace.overhead_frac"]["value"]
        lines.append(f"  tracing overhead on total_s: {100.0 * over:+.1f}% "
                     f"({metrics['trace.total_s']['value']:.4g} s traced vs "
                     f"{metrics['trace.untraced_total_s']['value']:.4g} s untraced)")
    else:
        for name, m in metrics.items():
            lines.append(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    probe = [s["host_probe_s"] for s in samples]
    lines.append(f"  host speed probe (fixed Python loop, not a metric): median {1e3 * statistics.median(probe):.2f} ms, "
                 f"range {1e3 * min(probe):.2f}-{1e3 * max(probe):.2f} ms")
    for failure in loop["failures"]:
        lines.append(f"  FAILED request {failure['request']}: {' | '.join(failure['errors'])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    if not os.path.isfile(PACKAGE_INIT):
        print(f"perfbench: {PACKAGE_INIT} not found; run from the repository root", file=sys.stderr)
        return 2

    env = pinned_env()
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tag = f"{args.workload}-s{args.seed}"
    workdir = os.path.abspath(os.path.join(OUT_ROOT, "work", f"{tag}-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        # Half the set-up probes run before the loop and half after it, so
        # setup_s samples the host's speed at both ends of the run.
        half = 0 if args.trace else SETUP_PROBES // 2
        setup = [_run_child(["--setup-only", *common], env, os.path.join(workdir, f"setup{i}.json"),
                            PROBE_TIMEOUT_S)["setup_s"] for i in range(half)]
        spans = os.path.abspath(os.path.join(OUT_ROOT, "spans", f"{tag}.npz"))
        remaining = RUN_BUDGET_S - (time.perf_counter() - start) - half * PROBE_TIMEOUT_S
        loop = _run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans],
                          env, os.path.join(workdir, "loop.json"), remaining)
        setup += [_run_child(["--setup-only", *common], env, os.path.join(workdir, f"setup{i}.json"),
                             PROBE_TIMEOUT_S)["setup_s"] for i in range(half, 2 * half)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not loop["samples"]:
        print(f"perfbench: no request completed: {loop['failures']}", file=sys.stderr)
        return 2

    metrics = _per_layer(loop) if args.trace else _end_to_end(setup, loop)
    result = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }
    record = {
        "bench_version": BENCH_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - start,
        "environment": environment(env),
        "setup_samples": setup,
        "loop": loop,
        "result": result,
    }
    results_dir = os.path.join(OUT_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for line in _summary_lines(args, setup, loop, metrics):
        print(line)
    env_info = record["environment"]
    print(f"  environment: nproc={env_info['nproc']} cpu={env_info['cpu_model']!r} llc={env_info['llc_size']} "
          f"python={env_info['python']} numpy={env_info['numpy']} threads={env_info['thread_vars']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
