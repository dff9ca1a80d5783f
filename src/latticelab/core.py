"""Lattice elements over finite carriers, with symbolic tails for sequences.

An element is a finite vector of values over a carrier.  Index-set carriers
stand for infinite sequences: the stored prefix is exact and a tail
descriptor states what every later coordinate is.  Tails are combined only
when the result is again exactly one of the representable shapes; anything
else degrades to the undecidable tail, and membership queries on it fail
loudly rather than guess.

All lattice operations are comparison-based selections; no arithmetic is
introduced where the result must be exact.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import metric as _metric
from .errors import CarrierMismatchError, InputError, UndecidableTailError
from .numerics import power_sum

__all__ = [
    "Tail",
    "Carrier",
    "LatticeElement",
    "SpaceTag",
    "Membership",
    "element",
    "ones",
    "zeros",
    "meet",
    "join",
    "abs_",
    "truncate",
    "difference",
    "pos_part",
    "le",
    "member_of",
    "sup_norm",
    "p_norm",
]


# ---------------------------------------------------------------------------
# tails


@dataclass(frozen=True)
class Tail:
    """Closed form for every coordinate beyond the stored prefix.

    kind "zero":      all further coordinates are 0
    kind "constant":  all further coordinates equal ``value``
    kind "power":     coordinate j (1-based, global) is scale * j**-exponent
    kind "none":      unknown; queries needing the tail raise
    """

    kind: str
    value: float = 0.0
    exponent: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "power", "none"):
            raise InputError(f"unknown tail kind {self.kind!r}")
        if self.kind == "power" and not self.exponent > 0:
            raise InputError(f"power tail needs exponent > 0, got {self.exponent}")

    @staticmethod
    def zero() -> "Tail":
        return Tail("zero")

    @staticmethod
    def constant(c: float) -> "Tail":
        if c == 0.0:
            return Tail("zero")
        return Tail("constant", value=float(c))

    @staticmethod
    def power(exponent: float, scale: float) -> "Tail":
        if scale == 0.0:
            return Tail("zero")
        return Tail("power", exponent=float(exponent), scale=float(scale))

    @staticmethod
    def none() -> "Tail":
        return Tail("none")

    @property
    def decidable(self) -> bool:
        return self.kind != "none"

    def sup_abs(self, first: int) -> float:
        """sup of |tail coordinate| over j >= first."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return abs(self.value)
        if self.kind == "power":
            return abs(self.scale) * float(first) ** (-self.exponent)
        raise UndecidableTailError("sup over an undeclared tail")

    def p_power_sum(self, p: float, first: int, stop: float = math.inf) -> float:
        """Sum of |tail coordinate|**p over first <= j < stop (may be inf)."""
        if self.kind == "zero" or stop <= first:
            return 0.0
        # a divergent sum stays inf where |level|**p underflows to 0, not inf * 0
        if self.kind == "constant":
            count = stop - first
            return count if math.isinf(count) else count * abs(self.value) ** p
        if self.kind == "power":
            mass = power_sum(self.exponent * p, first, stop)
            return mass if math.isinf(mass) else abs(self.scale) ** p * mass
        raise UndecidableTailError("p-sum over an undeclared tail")


def _as_constant(t: Tail):
    """Constant level of a zero/constant tail, else None."""
    if t.kind == "zero":
        return 0.0
    if t.kind == "constant":
        return t.value
    return None


def tail_abs(t: Tail) -> Tail:
    if t.kind == "none":
        return t
    if t.kind == "power":
        return Tail.power(t.exponent, abs(t.scale))
    return Tail.constant(abs(_as_constant(t)))


def tail_neg(t: Tail) -> Tail:
    if t.kind == "none":
        return t
    if t.kind == "power":
        return Tail.power(t.exponent, -t.scale)
    return Tail.constant(-_as_constant(t))


def tail_add(a: Tail, b: Tail) -> Tail:
    if a.kind == "none" or b.kind == "none":
        return Tail.none()
    ca, cb = _as_constant(a), _as_constant(b)
    if ca is not None and cb is not None:
        return Tail.constant(ca + cb)
    if a.kind == "power" and b.kind == "power":
        if a.exponent == b.exponent:
            return Tail.power(a.exponent, a.scale + b.scale)
        return Tail.none()
    # power + constant: representable only when the constant part is zero
    if a.kind == "power" and cb == 0.0:
        return a
    if b.kind == "power" and ca == 0.0:
        return b
    return Tail.none()


def tail_sub(a: Tail, b: Tail) -> Tail:
    return tail_add(a, tail_neg(b))


def tail_min(a: Tail, b: Tail, first: int) -> Tail:
    """Pointwise min over j >= first: whichever tail tail_le puts below the
    other, else the undecidable tail."""
    if tail_le(a, b, first):
        return a
    return b if tail_le(b, a, first) else Tail.none()


def tail_max(a: Tail, b: Tail, first: int) -> Tail:
    """Pointwise max over j >= first, the mirror of tail_min."""
    if tail_le(a, b, first):
        return b
    return a if tail_le(b, a, first) else Tail.none()


def tail_le(a: Tail, b: Tail, first: int):
    """a <= b pointwise over j >= first; None when undecidable."""
    if a.kind == "none" or b.kind == "none":
        return None
    ca, cb = _as_constant(a), _as_constant(b)
    if ca is not None and cb is not None:
        return ca <= cb
    if a.kind == "power" and b.kind == "power":
        if a.exponent == b.exponent:
            return a.scale <= b.scale
        if a.scale <= 0.0 <= b.scale:
            return True
        return None
    if ca is not None:  # constant vs power
        if b.scale > 0:
            return True if ca <= 0.0 else None
        return ca <= b.scale * float(first) ** (-b.exponent)
    # power vs constant
    if a.scale < 0:
        return True if cb >= 0.0 else None
    return a.scale * float(first) ** (-a.exponent) <= cb


# ---------------------------------------------------------------------------
# carriers and elements


@dataclass(frozen=True, eq=False)
class Carrier:
    """Where an element lives: the first ``size`` sequence coordinates, or
    the points of a finite metric space."""

    kind: str
    size: int
    space: "_metric.FiniteMetricSpace | None" = None

    @staticmethod
    def index_set(size: int) -> "Carrier":
        if size < 1:
            raise InputError(f"index-set carrier needs size >= 1, got {size}")
        if size > np.iinfo(np.intp).max:  # numpy refuses such a shape with a ValueError
            raise InputError(f"index-set carrier size {size} exceeds the largest array index")
        return Carrier("index_set", int(size))

    @staticmethod
    def points(space) -> "Carrier":
        return Carrier("metric_points", space.n, space)

    @property
    def is_index_set(self) -> bool:
        return self.kind == "index_set"

    def compatible(self, other: "Carrier") -> bool:
        if self.kind != other.kind:
            return False
        if self.is_index_set:
            return self.size == other.size
        return self.space.same_points(other.space)

    def coordinate_name(self, i: int) -> str:
        """Human name of 0-based coordinate i: 1-based index or point label."""
        if self.is_index_set:
            return str(i + 1)
        return self.space.labels[i]


def _require_compatible(a: "LatticeElement", b: "LatticeElement"):
    if not a.carrier.compatible(b.carrier):
        raise CarrierMismatchError(
            f"elements live on different carriers: {a.carrier.kind}({a.carrier.size}) "
            f"vs {b.carrier.kind}({b.carrier.size})"
        )


@dataclass(frozen=True, eq=False)
class LatticeElement:
    """An immutable finite vector over a carrier, plus a tail for sequences."""

    carrier: Carrier
    values: np.ndarray
    tail: Tail | None = None
    # set only by SequenceFamily.member, whose values are a row view of the
    # family's own read-only matrix: the element keeps that view uncopied
    _family_row: InitVar[bool] = False

    def __post_init__(self, _family_row):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise InputError(f"element values must be 1-d, got shape {vals.shape}")
        if vals.shape[0] != self.carrier.size:
            raise InputError(
                f"{vals.shape[0]} values for a carrier of size {self.carrier.size}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise InputError(
                f"non-finite value at coordinate {self.carrier.coordinate_name(bad)}"
            )
        if not _family_row:
            vals = vals.copy()
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.carrier.is_index_set:
            if self.tail is None:
                object.__setattr__(self, "tail", Tail.none())
        elif self.tail is not None:
            raise InputError("tail descriptors apply to index-set carriers only")

    @property
    def first_tail_index(self) -> int:
        return self.carrier.size + 1

    def max_abs_prefix(self) -> float:
        return float(np.abs(self.values).max())

    def __repr__(self):
        t = f", tail={self.tail.kind}" if self.tail is not None else ""
        return f"LatticeElement(n={self.carrier.size}{t})"


def element(carrier: Carrier, values, tail: Tail | None = None) -> LatticeElement:
    return LatticeElement(carrier, values, tail)


def zeros(carrier: Carrier) -> LatticeElement:
    tail = Tail.zero() if carrier.is_index_set else None
    return LatticeElement(carrier, np.zeros(carrier.size), tail)


def ones(carrier: Carrier) -> LatticeElement:
    tail = Tail.constant(1.0) if carrier.is_index_set else None
    return LatticeElement(carrier, np.ones(carrier.size), tail)


def _combined_tail(a, b, op) -> Tail | None:
    if not a.carrier.is_index_set:
        return None
    return op(a.tail, b.tail, a.first_tail_index)


def meet(a: LatticeElement, b: LatticeElement) -> LatticeElement:
    """Pointwise minimum; an exact selection, never arithmetic."""
    _require_compatible(a, b)
    return LatticeElement(a.carrier, np.minimum(a.values, b.values), _combined_tail(a, b, tail_min))


def join(a: LatticeElement, b: LatticeElement) -> LatticeElement:
    """Pointwise maximum; an exact selection, never arithmetic."""
    _require_compatible(a, b)
    return LatticeElement(a.carrier, np.maximum(a.values, b.values), _combined_tail(a, b, tail_max))


def abs_(a: LatticeElement) -> LatticeElement:
    tail = tail_abs(a.tail) if a.carrier.is_index_set else None
    return LatticeElement(a.carrier, np.abs(a.values), tail)


def truncate(a: LatticeElement, u: LatticeElement) -> LatticeElement:
    """|a| ∧ u for a non-negative cap u."""
    _require_compatible(a, u)
    if np.any(u.values < 0):
        bad = int(np.flatnonzero(u.values < 0)[0])
        raise InputError(
            f"truncation cap is negative at coordinate {u.carrier.coordinate_name(bad)}"
        )
    if u.carrier.is_index_set:
        if not u.tail.decidable:
            raise UndecidableTailError("truncation cap has an undeclared tail")
        if tail_le(Tail.zero(), u.tail, u.first_tail_index) is not True:
            raise InputError("truncation cap tail takes negative values")
    return meet(abs_(a), u)


def difference(a: LatticeElement, b: LatticeElement) -> LatticeElement:
    """a - b with the exact-representable tail combination."""
    _require_compatible(a, b)
    tail = tail_sub(a.tail, b.tail) if a.carrier.is_index_set else None
    return LatticeElement(a.carrier, a.values - b.values, tail)


def pos_part(a: LatticeElement) -> LatticeElement:
    tail = None
    if a.carrier.is_index_set:
        tail = tail_max(a.tail, Tail.zero(), a.first_tail_index)
    return LatticeElement(a.carrier, np.maximum(a.values, 0.0), tail)


def le(a: LatticeElement, b: LatticeElement) -> bool:
    """a <= b pointwise, tails included; raises when the tails cannot decide."""
    _require_compatible(a, b)
    if not np.all(a.values <= b.values):
        return False
    if not a.carrier.is_index_set:
        return True
    verdict = tail_le(a.tail, b.tail, a.first_tail_index)
    if verdict is None:
        raise UndecidableTailError("tail comparison is undecidable")
    return verdict


# ---------------------------------------------------------------------------
# space tags and membership


@dataclass(frozen=True)
class SpaceTag:
    """Ambient space a sequence or function is tested against."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("c0", "lp", "linf", "lip_b", "bounded_fns"):
            raise InputError(f"unknown space tag {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or not (1.0 <= self.p < math.inf):
                raise InputError(f"lp tag needs 1 <= p < inf, got {self.p}")
        elif self.p is not None:
            raise InputError(f"tag {self.kind} takes no exponent")

    @staticmethod
    def c0() -> "SpaceTag":
        return SpaceTag("c0")

    @staticmethod
    def lp(p: float) -> "SpaceTag":
        return SpaceTag("lp", float(p))

    @staticmethod
    def linf() -> "SpaceTag":
        return SpaceTag("linf")

    @staticmethod
    def lip_b() -> "SpaceTag":
        return SpaceTag("lip_b")

    @staticmethod
    def bounded_fns() -> "SpaceTag":
        return SpaceTag("bounded_fns")

    def describe(self) -> str:
        return f"lp(p={self.p:g})" if self.kind == "lp" else self.kind


@dataclass(frozen=True)
class Membership:
    """Boolean answer plus the reason it holds or fails."""

    value: bool
    reason: str
    data: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.value


def member_of(x: LatticeElement, tag: SpaceTag) -> Membership:
    """Exact membership decision for ``x`` in the tagged space.

    Sequence tags read only the tail (every finite prefix is summable and
    bounded); an undeclared tail raises UndecidableTailError, which is a
    refusal to answer, not a negative answer.
    """
    if tag.kind in ("lip_b", "bounded_fns"):
        if x.carrier.is_index_set:
            raise InputError(f"tag {tag.kind} needs a metric-points carrier")
        if tag.kind == "bounded_fns":
            m = x.max_abs_prefix()
            return Membership(True, f"finite carrier, sup |x| = {m:.6g}", {"sup": m})
        constant, pair = _metric.max_slope(x.carrier.space, x.values)
        return Membership(
            True,
            f"lipschitz constant {constant:.6g} attained at {pair}",
            {"constant": constant, "pair": pair},
        )

    if not x.carrier.is_index_set:
        raise InputError(f"tag {tag.kind} needs an index-set carrier")
    t = x.tail
    if not t.decidable:
        raise UndecidableTailError(
            f"membership in {tag.describe()} needs a declared tail"
        )

    if tag.kind == "c0":
        if t.kind == "zero":
            return Membership(True, "tail identically zero")
        if t.kind == "power":
            return Membership(True, f"tail decays like j**-{t.exponent:g}")
        return Membership(False, f"tail holds the nonzero level {t.value:g}")

    if tag.kind == "linf":
        bound = max(x.max_abs_prefix(), t.sup_abs(x.first_tail_index))
        return Membership(True, f"bounded by {bound:.6g}", {"sup": bound})

    # lp
    if t.kind == "zero":
        return Membership(True, "tail identically zero")
    if t.kind == "constant":
        return Membership(False, f"constant tail level {t.value:g} has divergent p-sum")
    s = t.exponent * tag.p
    if s > 1.0:
        tail_sum = t.p_power_sum(tag.p, x.first_tail_index)
        return Membership(
            True,
            f"tail p-series converges (decay*p = {s:g} > 1)",
            {"tail_power_sum": tail_sum},
        )
    return Membership(False, f"tail p-series diverges (decay*p = {s:g} <= 1)")


def sup_norm(x: LatticeElement) -> float:
    """Supremum norm including the tail; raises on an undeclared tail."""
    if x.carrier.is_index_set:
        return max(x.max_abs_prefix(), x.tail.sup_abs(x.first_tail_index))
    return x.max_abs_prefix()


def p_norm(x: LatticeElement, p: float) -> float:
    """p-norm including the tail (may be inf); raises on an undeclared tail."""
    if not (1.0 <= p < math.inf):
        raise InputError(f"p must satisfy 1 <= p < inf, got {p}")
    body = float(np.sum(np.abs(x.values) ** p))
    if x.carrier.is_index_set:
        body += x.tail.p_power_sum(p, x.first_tail_index)
    return body ** (1.0 / p) if body < math.inf else math.inf
