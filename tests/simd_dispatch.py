"""numpy's AVX-512 code paths off, for outputs pinned to the last bit.

Where the CPU has AVX-512, numpy computes float64 `log` with AVX-512 code
whose results differ in the last bit from its other code paths on some
inputs, so the oracle's figures can differ by an ulp from host to host.  The
oracle pins are computed in a child process with numpy's AVX-512 dispatch
off, through NPY_DISABLE_CPU_FEATURES, so that they hold on every x86 host.
The feature names differ between numpy releases ("AVX512F" to "AVX512_SPR"
in older ones; "X86_V4", "AVX512_ICL" and "AVX512_SPR" in numpy 2.4), so
they are read from the running numpy.

Run as a script, it prints the names, for a shell to export.
"""

import os
import subprocess
import sys
from pathlib import Path

import ri_entropy


def avx512_features() -> list:
    """The AVX-512 targets among the running numpy's dispatched CPU features."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatched
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__ as dispatched
    return [name for name in dispatched if name.startswith("AVX512") or name == "X86_V4"]


def avx512_off_env() -> dict:
    """This process's environment with numpy's AVX-512 dispatch off and the
    package on PYTHONPATH."""
    src = str(Path(ri_entropy.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path,
            "NPY_DISABLE_CPU_FEATURES": " ".join(avx512_features())}


def run_avx512_off(*args: str) -> subprocess.CompletedProcess:
    """`python args...` in the tests directory with numpy's AVX-512 dispatch off."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parent, env=avx512_off_env())


if __name__ == "__main__":
    print(" ".join(avx512_features()))
