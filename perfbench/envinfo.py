"""Machine description and the single-threaded child environment."""

from __future__ import annotations

import os
import platform
import sys

# Every thread-count knob numpy's BLAS/OpenMP backends read; all pinned to 1.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pinned_env() -> dict:
    """Copy of os.environ for a child: thread variables 1, fixed hash seed, no .pyc writes."""
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc_size() -> str:
    """Size of the highest-level cache of cpu0, as the kernel reports it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = -1, "unknown"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return best_size
    for entry in entries:
        level = _read(os.path.join(base, entry, "level")).strip()
        size = _read(os.path.join(base, entry, "size")).strip()
        if level.isdigit() and size and int(level) > best_level:
            best_level, best_size = int(level), size
    return best_size


def environment(env=None) -> dict:
    """nproc, CPU model, LLC size, Python and numpy versions, thread variables.

    The thread variables are read from ``env`` (default: this process).
    """
    env = os.environ if env is None else env
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc_size": _llc_size(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_vars": {name: env.get(name) for name in THREAD_VARS},
    }
