"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest


def _libm_log(x):
    """numpy's float64 `log` computed by libm's `math.log`, elementwise: 0 gives
    -inf, negatives and NaN give NaN, +inf gives +inf, without a warning."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x == 0.0, -np.inf, np.nan)
    positive = x > 0.0
    out[positive] = list(map(math.log, x[positive].tolist()))
    return out[()]


@pytest.fixture
def libm_log(monkeypatch):
    """`numpy.log` replaced by libm's `log` for one test.

    Where the CPU has AVX-512, numpy's float64 `log` differs from libm's in the
    last bit on some inputs; on numpy's other code paths the two agree bit for bit,
    and the oracle's figures were pinned there.  So they are checked with libm's
    `log` standing in for numpy's, under any dispatch.  The `np.log` of
    `oracle._segment_search` is the package's one call of a numpy transcendental
    (`test_libm_log.py` checks it), so this covers every such call.
    """
    monkeypatch.setattr(np, "log", _libm_log)
