"""Environment block recorded with every benchmark run.

numpy and scipy each bundle their own OpenBLAS: numpy's 64-bit-integer
``libscipy_openblas64_`` serves ``eigh`` and ``@``; scipy's
``libscipy_openblas`` serves ``scipy.linalg.expm``. Both builds and the
thread count each one actually uses are read through ``ctypes``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

_BUILDS = (
    # (label, file-name marker, symbol suffix)
    ("numpy", "libscipy_openblas64_", "64_"),
    ("scipy", "libscipy_openblas-", ""),
)


def _loaded_libraries() -> list:
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh if "openblas" in line
                       and line.split()[-1].startswith("/")})


def _openblas(path: str, suffix: str) -> dict:
    lib = ctypes.CDLL(path)
    get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return {"library": os.path.basename(path),
            "config": get_config().decode().strip(),
            "num_threads": int(get_threads())}


def environment(src_dir: str) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    blas = {}
    try:
        libs = _loaded_libraries()
    except OSError:
        libs = []
    for label, marker, suffix in _BUILDS:
        path = next((p for p in libs if marker in os.path.basename(p)), None)
        try:
            blas[label] = _openblas(path, suffix) if path else {"library": None}
        except (OSError, AttributeError) as exc:
            blas[label] = {"library": os.path.basename(path), "error": str(exc)}

    lines = 0
    for dirpath, _, files in os.walk(os.path.join(src_dir, "fwmsim")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += sum(1 for _ in fh)

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "src_fwmsim_lines": lines,
    }


def host_loop_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs
    Python right now, independent of fwmsim. Recorded, not a metric."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)
