"""Locate and import the program under test from this checkout's `src/`.

Every entry point of the benchmark calls `load()` before it imports numpy or
`tcsm`: it pins the BLAS thread pools to one thread, so that all load comes
from one process on one core, and it refuses to run against any `tcsm` other
than the one in this checkout.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable `tcsm` package."""


def load():
    """Pin BLAS threads, put `src/` first on the path and import `tcsm`."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "tcsm"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no tcsm package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tcsm

    if Path(tcsm.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported tcsm from {tcsm.__file__}, not from {package}")
    return tcsm


def git_commit() -> str:
    """Commit of the checkout, read from `.git` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }
