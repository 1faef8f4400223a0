"""numpy's CPU dispatch, for the tests whose bits depend on it.

numpy's AVX-512 ``exp``, ``log`` and ``power`` kernels round differently
from the C library's on a few percent of inputs, and not every x86-64 CPU
has them.  The closed forms evaluate a float price with ``math``, so their
bits do not depend on numpy; an array goes through numpy's ufuncs.  A test
that holds the two to the same bits runs its comparison with ``in_child``:
a child process with ``DISPATCH_OFF`` that first confirms, through
``without_avx512``, that no AVX-512 code is dispatched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
# numpy 2.x names of its AVX-512 dispatch targets.
DISPATCH_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def simd() -> dict:
    """numpy's version and the SIMD targets it runs in this process."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    dispatched = [name for name in umath.__cpu_dispatch__ if features[name]]
    return {"numpy": np.__version__, "baseline": umath.__cpu_baseline__, "dispatched": dispatched}


def without_avx512() -> dict:
    """``simd()``, once no AVX-512 target is among the targets it runs."""
    record = simd()
    avx512 = [name for name in record["baseline"] + record["dispatched"]
              if name.startswith("AVX512") or name == "X86_V4"]
    if avx512:
        raise RuntimeError(f"numpy {np.__version__} still runs AVX-512 code: {avx512}")
    return record


def in_child(script: str, *args: str):
    """The JSON that ``python script *args`` prints, run in a child process with ``DISPATCH_OFF``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **DISPATCH_OFF, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, script, *args], env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)
