"""Shared numeric helpers: power-law coordinate sums and log-log trend fits.

The block-extraction machinery reasons about sums of ``j**-s`` over integer
windows that can reach far beyond anything worth materialising (the p = 2
harmonic configuration pushes block ends past 1e8).  Small windows are summed
directly with numpy's pairwise summation; large ones go through the digamma /
Hurwitz-zeta closed forms at 30 significant digits and are rounded once at
the end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

#: Windows at most this long are summed directly.
DIRECT_SUM_LIMIT = 2_097_152

#: Hard guard on coordinate magnitudes during block searches.
COORDINATE_CAP = 2**40

_CHUNK = 1 << 20


def _direct_power_sum(s: float, start: int, stop: int) -> float:
    parts = []
    for lo in range(start, stop, _CHUNK):
        hi = min(stop, lo + _CHUNK)
        j = np.arange(lo, hi, dtype=np.float64)
        parts.append(float(np.sum(j ** (-s))))
    return float(np.sum(np.array(parts)))


def power_sum(s: float, start: int, stop: float) -> float:
    """Sum of j**-s for integer j in [start, stop).

    ``stop`` may be ``math.inf``; the sum is then finite only for s > 1.
    """
    if start < 1:
        raise InputError(f"power_sum start must be >= 1, got {start}")
    if stop <= start:
        return 0.0
    if math.isinf(stop):
        if s <= 1.0:
            return math.inf
        import mpmath  # the closed forms only: most runs never load it
        with mpmath.workdps(30):
            return float(mpmath.zeta(s, start))
    stop = int(stop)
    if stop - start <= DIRECT_SUM_LIMIT:
        return _direct_power_sum(s, start, stop)
    import mpmath
    with mpmath.workdps(30):
        if s == 1.0:
            val = mpmath.digamma(stop) - mpmath.digamma(start)
        else:
            val = mpmath.zeta(s, start) - mpmath.zeta(s, stop)
        return float(val)


def loglog_fit(x, y):
    """Least-squares slope/intercept of log(y) against log(x).

    Returns (slope, intercept, residuals) where residuals are per-point
    log-scale deviations from the fitted line.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError("loglog_fit needs two equally long 1-d sequences")
    if x.size < 2:
        raise InputError("loglog_fit needs at least two points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise InputError("loglog_fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    return float(slope), float(intercept), residuals
