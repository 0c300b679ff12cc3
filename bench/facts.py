"""Facts about the machine a run measured on, read without changing anything."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Per-level cache sizes of cpu0, e.g. {"L1d": "48K", "L2": "2048K"}."""
    out = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _blas() -> tuple:
    """BLAS library name and its thread count, where the library reports it."""
    name = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name', 'unknown')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return name, int(query())
    return name, None


def machine_facts() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas_name, blas_threads = _blas()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_threads_le_nproc": None if blas_threads is None else blas_threads <= nproc,
    }
