"""One benchmark child process: a set-up probe or one workload's closed loop.

Started by ``run.py`` with the BLAS/OpenMP thread variables pinned to 1 and
``src`` on the import path; it writes its measurements as JSON to ``--out``.

    child.py --setup-only --workload W --seed N --workdir D --out F
    child.py --workload W --seed N --workdir D --out F --seconds S --trace 0|1

Set-up probe: time ``import mfgcontrols`` plus building the workload's spec
with ``check_assumptions`` and ``classify_exponents``, in this fresh process.

Closed loop: one client, one request at a time, the next started only after
the last one finished and was checked, until ``--seconds`` have passed.
With ``--trace 1`` requests alternate between untraced and traced; the
per-layer counters come from the traced ones only, and the untraced ones
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)


def _setup_probe(args) -> dict:
    t0 = time.perf_counter()
    import mfgcontrols  # noqa: F401  (timed: this is the user's import cost)

    t_import = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.write_inputs()
    t1 = time.perf_counter()
    wl.build_spec()
    t2 = time.perf_counter()
    return {"setup_s": (t_import - t0) + (t2 - t1)}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: tracks the host's speed, not the program's."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


def _layer_deltas(before: dict, after: dict) -> dict:
    return {
        name: {key: after[name][key] - before[name][key] for key in after[name]}
        for name in after
    }


def _closed_loop(args) -> dict:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.write_inputs()
    wl.prepare()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    samples, failures = [], []
    layers = {}  # target -> summed deltas over traced requests
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and attempted % 2 == 1
        t_request = time.perf_counter()
        # A traced request verifies once, so its counters describe one request.
        wl.verify_block = not traced
        if traced:
            tracer.install()
            tracer.request = attempted
            before = tracer.snapshot()
        try:
            result = wl.request(attempted)
        except Exception:
            result = None
            failures.append({"request": attempted, "errors": [traceback.format_exc(limit=6)]})
        finally:
            if traced:
                for name, delta in _layer_deltas(before, tracer.snapshot()).items():
                    acc = layers.setdefault(name, dict.fromkeys(delta, 0.0))
                    for key, value in delta.items():
                        acc[key] += value
                tracer.uninstall()
        if result is not None:
            try:
                errors = wl.check(result["out"])
            except Exception:
                errors = ["output check raised: " + traceback.format_exc(limit=6)]
            if errors:
                failures.append({"request": attempted, "errors": errors})
            samples.append({key: result[key] for key in ("solve_s", "verify_s", "total_s", "iterations")}
                           | {"traced": traced, "ok": not errors, "host_probe_s": host_probe()})
        wl.finish_request(attempted)
        attempted += 1
        # Start another request only if it should end before the deadline
        # plus half a request, so runs overshoot --seconds by little.
        last = time.perf_counter() - t_request
        enough = tracer is None or attempted >= 2
        if enough and time.perf_counter() + 0.5 * last >= deadline:
            break

    out = {
        "attempted": attempted,
        "failed": len({f["request"] for f in failures}),
        "failures": failures,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_samples = [s for s in samples if s["traced"]]
        out["trace"] = {
            "layers": layers,
            "absent": tracer.absent,
            "requests": len(traced_samples),
            "iterations": sum(s["iterations"] for s in traced_samples),
            "eval_B_from_varsolve": tracer.calls_from("varsolve", "varsolve.eval_B"),
            "diffusion_from_picard": tracer.calls_from("picard", "grid.diffusion_values"),
            "bytes_written": tracer.bytes_written,
            "no_convergence": tracer.error_count("NoConvergence"),
            "errors": {f"{t}:{e}": n for (t, e), n in tracer.errors.items()},
        }
        tracer.dump(args.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    result = _setup_probe(args) if args.setup_only else _closed_loop(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
