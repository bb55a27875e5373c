"""Span tracer for the per-layer run, installed from outside the package.

``Tracer.install`` wraps each named function of ``mfgcontrols`` in every
package namespace that holds the same function object, so a call is
traced whichever module the caller resolves the name from (for example
``grid.diffusion_values`` is also wrapped as ``varsolve.diffusion_values``
and ``picard.diffusion_values``).  A name that no longer exists is recorded
as absent and skipped.  Nothing under ``src/`` is modified.

Each call becomes a span (id, parent id, function, start, end, request).
Spans are kept in memory and written once, by ``Tracer.dump``.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import time
from array import array
from collections import Counter

# Functions traced, as "<module>.<attribute path>".  ProblemSpec is traced
# through its __post_init__, which holds all of its validation work.
TRACED = (
    "grid.check_psd",
    "grid.diffusion_values",
    "grid.grad_values",
    "grid.div_values",
    "grid.integrate_space_values",
    "model.ProblemSpec.__post_init__",
    "model.check_assumptions",
    "model.classify_exponents",
    "prox.prox_kinetic_congestion",
    "prox.prox_Phi_star",
    "prox.solve_increasing",
    "prox.power_prox",
    "varsolve.solve_primal_dual",
    "varsolve.estimate_operator_norm",
    "varsolve.eval_B",
    "varsolve.eval_D",
    "varsolve.dual_gamma",
    "varsolve.fp_constraint",
    "varsolve.aggregate_flux",
    "picard.picard_iterate",
    "picard.solve_hjb",
    "picard.feedback",
    "picard.solve_fp",
    "picard.update_price",
    "verify.weak_solution_report",
    "verify.complementarity_value",
    "io.write_solution",
    "io.read_solution",
    "io.read_manifest",
    "config.load_spec",
    "cli.main",
)

PACKAGE = "mfgcontrols"


def metric_prefix(target: str) -> str:
    """Per-layer metric prefix of a traced function (drops dunder method names)."""
    return target[: -len(".__post_init__")] if target.endswith(".__post_init__") else target


def _package_modules() -> dict:
    """Short name -> module for the package and all its submodules."""
    pkg = importlib.import_module(PACKAGE)
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


class Tracer:
    def __init__(self):
        self.names = []  # function index -> target name
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.calls_by_ns = Counter()  # (resolving module, target) -> calls
        self.errors = Counter()  # (target, exception type) -> raised first here
        self.bytes_written = 0
        self.absent = []
        self.request = -1
        self._stack = []  # open spans: [child time, span id]
        self._next_id = 0
        self._seen_exc = set()
        self._patches = None
        self._span_fn = array("i")
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_req = array("i")
        self._span_t0 = array("d")
        self._span_t1 = array("d")

    # -- installation --------------------------------------------------------

    def install(self, targets=TRACED) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if self._patches is None:
            self._patches = self._build(targets)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    def _build(self, targets) -> list:
        """(owner, attribute, original, wrapper) for every namespace holding a target."""
        mods = _package_modules()
        patches = []
        for target in targets:
            mod_name, _, attr_path = target.partition(".")
            owner = mods.get(mod_name)
            parts = attr_path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except AttributeError:
                owner = None
            if owner is None or not callable(original):
                self.absent.append(target)
                continue
            idx = len(self.names)
            self.names.append(target)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            if len(parts) > 1:  # a method: one class attribute serves every caller
                patches.append((owner, parts[-1], original, self._wrap(idx, original, mod_name)))
                continue
            for ns_name, ns in mods.items():
                if getattr(ns, parts[-1], None) is original:
                    patches.append((ns, parts[-1], original, self._wrap(idx, original, ns_name or PACKAGE)))
        return patches

    def _wrap(self, idx: int, fn, ns_name: str):
        tracer = self
        stack = self._stack
        target = self.names[idx]
        key = (ns_name, target)
        counts_bytes = target == "io.write_solution"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in tracer._seen_exc:
                    tracer._seen_exc.add(id(exc))
                    tracer.errors[(target, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.calls[idx] += 1
                tracer.total_s[idx] += dur
                tracer.self_s[idx] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                tracer.calls_by_ns[key] += 1
                tracer._record(idx, sid, parent, t0, t1)
            if counts_bytes:
                tracer.bytes_written += _dir_bytes(args[0] if args else kwargs["out_dir"], result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _record(self, idx, sid, parent, t0, t1) -> None:
        self._span_fn.append(idx)
        self._span_id.append(sid)
        self._span_parent.append(parent)
        self._span_req.append(self.request)
        self._span_t0.append(t0)
        self._span_t1.append(t1)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative per-function counters, keyed by target name."""
        return {
            name: {"calls": self.calls[i], "total_s": self.total_s[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }

    def calls_from(self, ns_name: str, target: str) -> int:
        return self.calls_by_ns[(ns_name, target)]

    def error_count(self, exc_name: str) -> int:
        return sum(n for (_, name), n in self.errors.items() if name == exc_name)

    def dump(self, path: str) -> None:
        """Write every span kept in memory to one compressed .npz file."""
        import numpy as np

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self._span_fn, dtype=np.int32),
            span_id=np.frombuffer(self._span_id, dtype=np.int64),
            parent=np.frombuffer(self._span_parent, dtype=np.int64),
            request=np.frombuffer(self._span_req, dtype=np.int32),
            start=np.frombuffer(self._span_t0, dtype=np.float64),
            end=np.frombuffer(self._span_t1, dtype=np.float64),
        )


def _dir_bytes(out_dir: str, artifacts) -> int:
    total = 0
    for name in artifacts or ():
        try:
            total += os.path.getsize(os.path.join(out_dir, name))
        except OSError:
            pass
    return total
