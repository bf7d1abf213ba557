"""Process environment of a benchmark run: thread pins, the `vora` import
from the checkout's `src/`, and the environment record kept with results.

Import this module before numpy: `pin_threads` must run first.
"""

import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingSource(RuntimeError):
    pass


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_vora():
    """Import `vora` from the checkout's src/, never from site-packages."""
    init = os.path.join(SRC, "vora", "__init__.py")
    if not os.path.isfile(init):
        raise MissingSource(f"no vora sources at {init}; run from a full checkout")
    sys.path.insert(0, SRC)
    import vora
    from vora import checkpoint, data, distill, kernels, lora, model, tensor, trainer, vision  # noqa: F401

    if os.path.dirname(os.path.abspath(vora.__file__)) != os.path.dirname(init):
        raise MissingSource(f"vora imported from {vora.__file__}, not {SRC}")
    return vora


def _git_commit():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(vora):
    import threading

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_running": threading.active_count(),
        "use_numba": bool(vora.kernels.USE_NUMBA),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }
