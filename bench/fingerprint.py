"""Print the machine fingerprint as one JSON line.

    python3 bench/fingerprint.py

The benchmark runs this as a child process, so it reports what the
measured program sees: core count and CPU affinity, Python and numpy,
the BLAS numpy loaded and its thread count, and whether numba imports,
which decides the backend the discrete runners use.
"""

import ctypes
import importlib.util
import json
import os
import platform

import numpy as np


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba") is not None
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba": numba,
        "backend": "numba" if numba else "numpy",
    }


if __name__ == "__main__":
    print(json.dumps(fingerprint(), sort_keys=True))
