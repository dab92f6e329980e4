"""Host record printed with every result: cores, CPU, caches, versions,
and the BLAS library with its thread count."""

import ctypes
import glob
import os
import platform

# Thread-count getters exported by the OpenBLAS builds numpy and scipy
# ship (64-bit-integer and plain builds).
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads",
                        "MKL_Get_Max_Threads")


def _read(path):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    pattern = "/sys/devices/system/cpu/cpu0/cache/index*"
    for index in sorted(glob.glob(pattern)):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level in ("2", "3") and size:
            out[f"L{level}"] = size if kind == "Unified" else f"{size} {kind}"
    return out


def _blas_libraries():
    """Loaded BLAS shared objects with their current thread counts."""
    paths = []
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1] if line.split() else ""
        base = os.path.basename(path).lower()
        if ("blas" in base or "mkl" in base) and path not in paths:
            paths.append(path)
    libs = []
    for path in paths:
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None) if lib is not None else None
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
        libs.append({"library": os.path.basename(path), "threads": threads})
    return libs


def host_record(pinned_env):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": _blas_libraries(),
        "blas_threads_pinned": pinned_env,
    }
