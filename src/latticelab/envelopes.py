"""Oscillation moduli and Lipschitz regularization by inf-convolution.

`modulus_of_continuity` measures the largest oscillation of a function over
point pairs within each distance threshold.  `inf_convolution` builds the
largest n-Lipschitz minorant g_n(x) = min_y (g(y) + n*d(x, y)) and packages
it with its error bound alpha_n = sup_t (omega(t) - n*t).

alpha_n evaluated on a threshold grid alone undershoots the true supremum
between samples.  Curves built from the exact distinct pair distances close
that gap (the grid maximum equals the sup over all pairs, so refining the
grid changes nothing), and curves tagged with a closed form contribute the
analytic stationary point of the corresponding continuum modulus.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import metric as _metric
from .core import LatticeElement
from .errors import InputError, InternalInvariantError

__all__ = [
    "MODULUS_EXACT_LIMIT",
    "ClosedForm",
    "ModulusCurve",
    "ErrorBoundResult",
    "EnvelopeResult",
    "modulus_of_continuity",
    "error_bound",
    "lipschitz_constant",
    "inf_convolution",
    "inf_convolution_ladder",
]

# largest space whose distinct pair distances we enumerate by default
MODULUS_EXACT_LIMIT = 2048

# additive slack, scaled by data magnitude, for the envelope invariants
ENVELOPE_TOL = 1e-9

# ulps of max|g| an envelope value may carry from rounding (about 1 is seen)
SLOPE_ULPS = 4


@dataclass(frozen=True)
class ClosedForm:
    """Analytic upper modulus omega(t) = min(coeff * t**exponent, cap).

    exponent lies in (0, 1]; exponent 1 is a Lipschitz line.  ``cap`` is the
    oscillation ceiling (at most twice the sup norm of the function) and
    ``domain_max`` the largest relevant distance (the diameter).
    """

    coeff: float
    exponent: float
    cap: float
    domain_max: float

    def __post_init__(self):
        if not (0.0 < self.exponent <= 1.0):
            raise InputError(f"closed-form exponent must lie in (0, 1], got {self.exponent}")
        if self.coeff < 0 or self.cap < 0 or self.domain_max <= 0:
            raise InputError("closed-form coefficient, cap, domain must be non-negative")

    @staticmethod
    def sqrt(coeff: float, cap: float, domain_max: float) -> "ClosedForm":
        return ClosedForm(coeff, 0.5, cap, domain_max)

    @staticmethod
    def linear(slope: float, cap: float, domain_max: float) -> "ClosedForm":
        return ClosedForm(slope, 1.0, cap, domain_max)

    def omega(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return min(self.coeff * min(t, self.domain_max) ** self.exponent, self.cap)

    def alpha(self, n: float) -> tuple[float, float]:
        """sup over t of omega(t) - n*t, with the maximizing t.

        omega rises (concavely) until it meets the cap, then stays flat,
        while n*t keeps growing, so the sup sits at the first of: the
        stationary point of coeff*t**a - n*t, the cap crossing, or the
        domain end.
        """
        if self.coeff == 0.0:
            return 0.0, 0.0
        a = self.exponent
        if a == 1.0:
            t_station = 0.0 if n >= self.coeff else math.inf
        else:
            t_station = (a * self.coeff / n) ** (1.0 / (1.0 - a))
        t_cap = (self.cap / self.coeff) ** (1.0 / a)
        t_star = min(t_station, t_cap, self.domain_max)
        value = self.omega(t_star) - n * t_star
        if value <= 0.0:
            return 0.0, 0.0
        return value, t_star

    def resolution(self, level: float) -> float:
        """Largest t with omega(t) <= level."""
        if level <= 0.0 or self.coeff == 0.0:
            return 0.0 if self.coeff > 0.0 else self.domain_max
        return min((level / self.coeff) ** (1.0 / self.exponent), self.domain_max)


@dataclass(frozen=True)
class ModulusCurve:
    """Oscillation omega(t) = max{|g(x)-g(y)| : d(x,y) <= t} at sampled t.

    ``exact`` marks curves whose thresholds are the exact distinct pair
    distances, making the sampled values the complete modulus.
    """

    thresholds: np.ndarray
    values: np.ndarray
    sup_abs_g: float
    exact: bool
    closed_form: ClosedForm | None = None

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.ndim != 1 or v.shape != t.shape:
            raise InputError("thresholds and values must be 1-d arrays of one length")
        if t.size:
            if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
                raise InputError("modulus data must be finite")
            if np.any(t <= 0):
                raise InputError("thresholds must be positive (omega(0) = 0 is implicit)")
            if np.any(np.diff(t) <= 0):
                raise InputError("thresholds must increase strictly")
            if np.any(v < 0) or np.any(np.diff(v) < 0):
                raise InputError("modulus values must be non-negative and non-decreasing")
            ceiling = 2.0 * self.sup_abs_g + 1e-12 * max(1.0, self.sup_abs_g)
            if float(v[-1]) > ceiling:
                raise InputError(
                    f"modulus {float(v[-1]):.6g} exceeds twice the sup norm {self.sup_abs_g:.6g}"
                )
        t, v = t.copy(), v.copy()
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "values", v)

    def jump_at(self, t: float) -> float:
        """omega(t): the value at the largest sampled threshold <= t."""
        i = int(np.searchsorted(self.thresholds, t, side="right")) - 1
        return float(self.values[i]) if i >= 0 else 0.0


def _pair_blocks(space, values):
    """Yield (distances, gaps) over the strict upper triangle, chunked; the
    pairs come in row-major order."""
    for lo, d in _metric.upper_blocks(space):
        upper = ~np.tri(*d.shape, dtype=bool)
        gaps = np.abs(values[lo:lo + len(d), None] - values[None, lo:])
        yield d[upper], gaps[upper]


def modulus_of_continuity(g: LatticeElement, grid=None) -> ModulusCurve:
    """Exact oscillation maxima of g within each distance threshold.

    Without a grid the thresholds are the distinct pair distances (complete
    modulus; spaces beyond MODULUS_EXACT_LIMIT points must supply a grid).
    A supplied grid must be non-negative, non-decreasing, and reach the
    diameter, so that no pair falls past the last threshold.
    """
    if g.carrier.is_index_set:
        raise InputError("modulus_of_continuity needs a metric-points carrier")
    space = g.carrier.space
    sup_abs = g.max_abs_prefix()

    if grid is None:
        if space.n > MODULUS_EXACT_LIMIT:
            raise InputError(
                f"{space.n} points exceed the exact-modulus limit "
                f"{MODULUS_EXACT_LIMIT}; supply an explicit threshold grid"
            )
        parts_d, parts_g = [], []
        for d, gaps in _pair_blocks(space, g.values):
            parts_d.append(d)
            parts_g.append(gaps)
        dists = np.concatenate(parts_d) if parts_d else np.empty(0)
        gaps = np.concatenate(parts_g) if parts_g else np.empty(0)
        if dists.size == 0:
            return ModulusCurve(np.empty(0), np.empty(0), sup_abs, exact=True)
        thresholds, inverse = np.unique(dists, return_inverse=True)
        values = np.zeros_like(thresholds)
        np.maximum.at(values, inverse, gaps)
        values = np.maximum.accumulate(values)
        return ModulusCurve(thresholds, values, sup_abs, exact=True)

    grid = np.unique(np.asarray(grid, dtype=np.float64))
    if grid.size == 0:
        raise InputError("threshold grid is empty")
    if not np.all(np.isfinite(grid)) or grid[0] < 0:
        raise InputError("threshold grid must be finite and non-negative")
    grid = grid[grid > 0]
    if grid.size == 0:
        raise InputError("threshold grid needs at least one positive entry")
    values = np.zeros_like(grid)
    far = 0.0
    for d, gaps in _pair_blocks(space, g.values):
        if d.size == 0:
            continue
        far = max(far, float(d.max()))
        if far <= grid[-1]:
            idx = np.searchsorted(grid, d, side="left")
            np.maximum.at(values, idx, gaps)
    if far > grid[-1]:  # named after the whole scan, whatever the tiles
        raise InputError(
            f"pair distance {far:.6g} exceeds the last threshold {grid[-1]:.6g}"
        )
    values = np.maximum.accumulate(values)
    return ModulusCurve(grid, values, sup_abs, exact=False)


@dataclass(frozen=True)
class ErrorBoundResult:
    """alpha_n = sup_t (omega(t) - n t), the t attaining it, and the largest
    sampled threshold whose oscillation still fits under alpha_n."""

    n: float
    alpha: float
    argmax_t: float
    threshold_t0: float


def error_bound(curve: ModulusCurve, n) -> ErrorBoundResult:
    """Evaluate alpha_n on the curve's thresholds plus any closed form.

    On an exact curve the threshold maximum already equals the supremum
    over all real t (the modulus is a right-continuous step function whose
    steps start at the thresholds); a closed form adds its analytic
    stationary point on top.
    """
    if not (isinstance(n, numbers.Real) and math.isfinite(n) and n > 0):
        raise InputError(f"error_bound needs a positive finite n, got {n!r}")
    n = float(n)
    alpha, argmax_t = 0.0, 0.0
    if curve.thresholds.size:
        diffs = curve.values - n * curve.thresholds
        i = int(np.argmax(diffs))
        if diffs[i] > 0.0:
            alpha, argmax_t = float(diffs[i]), float(curve.thresholds[i])
    if curve.closed_form is not None:
        a_cf, t_cf = curve.closed_form.alpha(n)
        if a_cf > alpha:
            alpha, argmax_t = a_cf, t_cf
    if curve.thresholds.size:
        j = int(np.searchsorted(curve.values, alpha, side="right")) - 1
        t0 = float(curve.thresholds[j]) if j >= 0 else 0.0
    else:
        t0 = 0.0
    if curve.closed_form is not None and alpha > 0.0:
        # the closed form dominates the true modulus, so any t it clears
        # is safe even when the sampled grid is too coarse to certify one
        t0 = max(t0, curve.closed_form.resolution(alpha))
    return ErrorBoundResult(n, alpha, argmax_t, t0)


def lipschitz_constant(f, space=None):
    """Largest |f(x)-f(y)| / d(x,y) over pairs, with the attaining pair."""
    if isinstance(f, LatticeElement):
        if f.carrier.is_index_set:
            raise InputError("lipschitz_constant needs a metric-points carrier")
        own = f.carrier.space
        if space is not None and not own.same_points(space):
            raise InputError("element carrier and supplied space disagree")
        space, values = own, f.values
    else:
        if space is None:
            raise InputError("raw values need an explicit space")
        values = np.asarray(f, dtype=np.float64)
    return _metric.max_slope(space, values)


@dataclass(frozen=True)
class EnvelopeResult:
    """g_n with its error bound and measured regularity."""

    n: int
    g_n: LatticeElement
    alpha: float
    achieved_error: float
    lipschitz: float
    pair: tuple | None


def _validate_envelope(g, env, n, alpha, achieved, lips, modulus) -> None:
    if np.any(env > g.values):
        raise InternalInvariantError("envelope exceeds its function somewhere")
    scale = max(1.0, g.max_abs_prefix())
    if achieved > alpha + ENVELOPE_TOL * scale:
        hint = "; the supplied modulus understates the oscillation" if modulus else ""
        raise InternalInvariantError(
            f"achieved error {achieved:.6g} exceeds alpha {alpha:.6g}{hint}"
        )
    if lips > n + ENVELOPE_TOL:
        # rounding moves each envelope value by about ulp(max|g|), and so a
        # slope by that much over the smallest pair distance, whose radii are
        # read only once the absolute slack alone is exceeded
        delta = _metric.discreteness_constant(g.carrier.space)
        if lips > n + ENVELOPE_TOL + SLOPE_ULPS * np.spacing(g.max_abs_prefix()) / delta:
            raise InternalInvariantError(
                f"envelope Lipschitz constant {lips:.6g} exceeds the parameter {n}"
            )


def inf_convolution_ladder(g: LatticeElement, ns, modulus: ModulusCurve | None = None):
    """Envelopes g_n for every n in ``ns`` in one sweep.

    Line spaces run an exact two-pass distance transform; elsewhere each
    distance block is visited once and serves all parameters.  Either way
    the ladder costs one sweep plus one batched Lipschitz scan.  Without a
    supplied modulus, alpha_n is the exact pairwise supremum
    max(|g(x)-g(y)| - n*d), obtained in the same sweep.
    """
    if g.carrier.is_index_set:
        raise InputError("inf_convolution needs a metric-points carrier")
    ns = list(ns)
    if not ns:
        raise InputError("empty parameter ladder")
    for n in ns:
        if not isinstance(n, numbers.Integral) or n < 1:
            raise InputError(f"regularization parameters must be integers >= 1, got {n!r}")
    ns = [int(n) for n in ns]
    space = g.carrier.space
    gv = g.values
    need_alpha = modulus is None
    if space.line_order is not None:
        env, alpha_raw = _line_ladder(space, gv, ns, need_alpha)
    else:
        env, alpha_raw = _dense_ladder(space, gv, ns, need_alpha)

    # every distinct rung's slope from one pass over the distance blocks
    if space.n >= 2:
        first, at = _distinct_rows(env)
        distinct = _metric.max_slope(space, env if len(first) == len(env) else env[first])
        slopes = [distinct[j] for j in at]
    else:
        slopes = [(0.0, None)] * len(ns)
    results = []
    for k, n in enumerate(ns):
        alpha = error_bound(modulus, n).alpha if modulus is not None else float(alpha_raw[k])
        achieved = float((gv - env[k]).max())
        lips, pair = slopes[k]
        _validate_envelope(g, env[k], n, alpha, achieved, lips, modulus)
        results.append(
            EnvelopeResult(
                n=n,
                g_n=LatticeElement(g.carrier, env[k]),
                alpha=alpha,
                achieved_error=achieved,
                lipschitz=lips,
                pair=pair,
            )
        )
    return results


def _distinct_rows(stack):
    """(first, at): the index of the first of each bitwise-distinct row of
    ``stack``, in order, and for every row the position in ``first`` of
    its copy.  Rows compare by their bits, so -0.0 and 0.0 differ; only
    rows with equal sums, as bitwise-equal rows have, are compared."""
    bits = stack.view(np.uint64)
    sums = stack.sum(axis=1).tolist()
    first, at = [], []
    for k, row in enumerate(bits):
        j = next((j for j, f in enumerate(first)
                  if sums[f] == sums[k] and np.array_equal(bits[f], row)), len(first))
        if j == len(first):
            first.append(k)
        at.append(j)
    return first, at


def _dense_ladder(space, gv, ns, need_alpha):
    """Envelopes and raw alphas from one pass over the distance row blocks."""
    env = np.empty((len(ns), space.n))
    alpha_raw = np.zeros(len(ns))
    with np.errstate(over="ignore"):  # n * d past the float range is inf, as it should be
        for lo, hi in space.block_rows():
            block = space.row_block(lo, hi)
            buf = np.empty_like(block)
            gaps = np.abs(gv[lo:hi, None] - gv[None, :]) if need_alpha else None
            for k, n in enumerate(ns):
                np.multiply(block, float(n), out=buf)
                buf += gv[None, :]
                env[k, lo:hi] = buf.min(axis=1)
                if need_alpha:
                    np.multiply(block, float(n), out=buf)
                    np.subtract(gaps, buf, out=buf)
                    alpha_raw[k] = max(alpha_raw[k], float(buf.max()))
    return env, alpha_raw


def _line_ladder(space, gv, ns, need_alpha):
    """Envelopes and raw alphas on the line by a two-pass distance transform.

    Over the sorted points, h_i = min(g_i, h_{i-1} + n*dx_i) forward and
    then the mirror recurrence backward give g_n up to rounding
    (Felzenszwalb & Huttenlocher, Distance Transforms of Sampled Functions,
    ToC 2012).  Each step takes a min of rounded sums that grow with n, so
    by induction the rungs stay exactly below g and exactly non-decreasing
    in n; the closed form n*x + minimum.accumulate(g - n*x) does not keep
    that order after rounding.  alpha_n is max(0, max(G_n - g)) for the
    sup-convolution G_n = -(inf-convolution of -g), run as extra columns of
    the same passes.
    """
    order = space.line_order
    k_count = len(ns)
    rates = np.array(ns, dtype=np.float64)
    gs = gv[order]
    cols = [gs] * k_count
    if need_alpha:
        cols += [-gs] * k_count
        rates = np.concatenate([rates, rates])
    h = np.stack(cols, axis=1)  # (points, columns): each step reads one row
    with np.errstate(over="ignore"):  # n * dx past the float range is inf, as it should be
        step = np.diff(space.coords[order, 0])[:, None] * rates[None, :]
    for i in range(1, h.shape[0]):
        np.minimum(h[i], h[i - 1] + step[i - 1], out=h[i])
    for i in range(h.shape[0] - 2, -1, -1):
        np.minimum(h[i], h[i + 1] + step[i], out=h[i])
    env = np.empty((k_count, space.n))
    env[:, order] = h[:, :k_count].T
    alpha_raw = np.zeros(k_count)
    if need_alpha:
        alpha_raw = np.maximum(0.0, (-h[:, k_count:] - gs[:, None]).max(axis=0))
    return env, alpha_raw


def inf_convolution(g: LatticeElement, n, modulus: ModulusCurve | None = None) -> EnvelopeResult:
    """The largest n-Lipschitz function below g, with its error certificate."""
    return inf_convolution_ladder(g, [n], modulus)[0]
