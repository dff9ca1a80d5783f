"""Convergence verdicts and certificates for sequences over finite carriers.

Order convergence is decided by constructing the canonical regulator
z_m = sup over n >= m of |x_n - x| and checking that it falls below the
declared tolerance by the horizon.  uo-convergence runs the same check on
truncated differences |x_n - x| ∧ u for a fixed probe set of positive u;
on function carriers the probe u = 1 already decides, the rest guard
implementation bugs.  Buo adds order-boundedness of the whole family via
its coordinatewise dominating element.

Buo-Cauchy quantifies over all strictly increasing subsequences, which no
finite search settles.  The certificate policy therefore accepts only
metadata-backed proofs (a decreasing dominated family, or declared uniform
difference norms), while the sampled policy draws a budgeted batch of
subsequences and can only ever report a counterexample or an explicitly
inconclusive "none found".  Every verdict records the tolerance and horizon
it was decided under.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import CheckConfig
from .core import (
    Carrier,
    LatticeElement,
    SpaceTag,
    Tail,
    abs_,
    difference,
    member_of,
    pos_part,
    sup_norm,
    tail_abs,
    tail_le,
    tail_max,
    tail_min,
    tail_sub,
)
from .errors import (
    InputError,
    InternalInvariantError,
    MetadataError,
    PointwiseDivergenceError,
    UndecidableTailError,
)
from .numerics import power_sum

__all__ = [
    "TruncationModel",
    "FamilyMetadata",
    "SequenceFamily",
    "truncation_family",
    "OrderCertificate",
    "MonotoneCertificate",
    "UniformCauchyCertificate",
    "BuoCertificate",
    "StuckCoordinate",
    "SubsequenceWitness",
    "ConvergenceVerdict",
    "PairedVerdict",
    "NormBound",
    "CertificatePolicy",
    "SampledPolicy",
    "pointwise_limit",
    "dominating_element",
    "check_order_convergence",
    "check_buo_convergence",
    "buo_equals_order",
    "check_buo_cauchy",
    "norm_bound",
]

# most members a model family will materialize for a single check
MEMBER_MATERIALIZE_LIMIT = 100_000

# how many trailing per-member values a failure witness keeps
TRACE_KEEP = 64


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class TruncationModel:
    """Closed form for the family x_n = x * 1_{j<=n} with x(j) = coeff*j^-exponent.

    Lets witness extraction reason about coordinates far beyond the stored
    prefix: suffix and block masses come from the power-sum closed forms
    instead of materialized members.
    """

    exponent: float
    coeff: float = 1.0

    def __post_init__(self):
        if not self.exponent > 0:
            raise InputError(f"truncation model needs exponent > 0, got {self.exponent}")
        if not self.coeff > 0:
            raise InputError(f"truncation model needs coeff > 0, got {self.coeff}")

    def limit_value(self, j: int) -> float:
        return self.coeff * float(j) ** (-self.exponent)

    def limit_tail(self) -> Tail:
        return Tail.power(self.exponent, self.coeff)

    def member_values(self, n: int, size: int) -> np.ndarray:
        j = np.arange(1, size + 1, dtype=np.float64)
        vals = self.coeff * j ** (-self.exponent)
        vals[j > n] = 0.0
        return vals

    def mass(self, q: float, start: int, stop) -> float:
        """Sum of |x(j)|**q for start <= j < stop (stop may be inf)."""
        return self.coeff**q * power_sum(self.exponent * q, start, stop)


@dataclass(frozen=True)
class FamilyMetadata:
    """Declared structure of a family; every claim is verified on construction
    over the materialized prefix."""

    monotone_decreasing: bool = False
    common_bound: LatticeElement | None = None
    uniformly_cauchy_norms: tuple[float, ...] | None = None
    space_tag: SpaceTag | None = None
    limit: LatticeElement | None = None
    growth: str | None = None  # "bounded" | "unbounded" | None (undeclared)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.growth not in (None, "bounded", "unbounded"):
            raise MetadataError(f"growth must be bounded/unbounded/None, got {self.growth!r}")
        if self.growth == "unbounded" and self.common_bound is not None:
            raise MetadataError("a family cannot be both commonly bounded and unbounded")
        if self.uniformly_cauchy_norms is not None:
            eps = tuple(float(e) for e in self.uniformly_cauchy_norms)
            if any(e < 0 or not math.isfinite(e) for e in eps):
                raise MetadataError("uniform Cauchy norms must be finite and non-negative")
            object.__setattr__(self, "uniformly_cauchy_norms", eps)


class SequenceFamily:
    """A sequence of lattice elements on one carrier, indexed from n = 1.

    Members are one read-only (N, size) value matrix plus their tails: one
    Tail shared by all, or one per member (none on metric-points carriers).
    Pass ``members=`` (elements), ``values=`` with ``carrier=`` and
    ``tails=`` (a Tail or a list; None is undeclared), or a TruncationModel
    ``model=`` with an index-set ``carrier=`` and a ``horizon``.  A model
    family fills its matrix from the model, up to the most members asked
    for; its tails are zero through ``size`` and undeclared past it, and
    downstream analysis reaches coordinates the prefix never stores through
    the model.  ``member(n)`` wraps a read-only row.
    """

    def __init__(self, *, members=None, values=None, tails=None, model=None, carrier=None,
                 horizon=None, metadata=None, _adopt=False):
        if sum(x is not None for x in (members, values, model)) != 1:
            raise InputError("supply exactly one of members=, values= or model=")
        self.metadata = metadata if metadata is not None else FamilyMetadata()
        self.model = model
        if model is not None:
            if carrier is None or not carrier.is_index_set:
                raise InputError("a model family needs an index-set carrier=")
            if horizon is None or horizon < 1:
                raise InputError("generator families need a horizon >= 1")
            self.carrier, self.horizon = carrier, int(horizon)
            self.verification_horizon = min(carrier.size, 64, self.horizon)
            self._values = np.empty((0, carrier.size))  # filled by stacked()
            self._tails = (Tail.zero(), Tail.none())  # through size, past it
        else:
            if members is not None:
                members = tuple(members)
                if not members:
                    raise InputError("a family needs at least one member")
                carrier = members[0].carrier
                if not all(carrier.compatible(m.carrier) for m in members):
                    raise InputError("family members live on different carriers")
                values = [m.values for m in members]
                tails = [m.tail for m in members] if carrier.is_index_set else None
            elif carrier is None:
                raise InputError("a value matrix needs its carrier=")
            self.carrier = carrier
            # the family's own copy, but for load_family's matrix, which it adopts
            self._values = (np.asarray if _adopt else np.array)(values, dtype=np.float64)
            if not len(self._values):
                raise InputError("a family needs at least one member")
            if self._values.ndim != 2 or self._values.shape[1] != carrier.size:
                raise InputError(f"member values need shape (N, {carrier.size}), "
                                 f"got {self._values.shape}")
            if not np.isfinite(self._values).all():
                n, k = np.argwhere(~np.isfinite(self._values))[0]
                raise InputError(f"member {n + 1}: non-finite value at coordinate "
                                 f"{carrier.coordinate_name(int(k))}")
            self._values.setflags(write=False)
            self.horizon = self.verification_horizon = len(self._values)
            self._tails = None
            if carrier.is_index_set:  # no tails means undeclared ones, as for an element
                if not isinstance(tails, (list, tuple)):
                    tails = [tails or Tail.none()] * self.horizon
                self._tails = tuple(t or Tail.none() for t in tails)
                if len(self._tails) != self.horizon:
                    raise InputError(f"{len(self._tails)} tails for {self.horizon} members")
                if self._tails.count(self._tails[0]) == self.horizon:
                    self._tails = self._tails[0]  # one Tail shared by every member
            elif tails is not None:
                raise InputError("tail descriptors apply to index-set carriers only")
        self._verify_metadata()

    def member(self, n: int) -> LatticeElement:
        if not 1 <= n <= self.horizon:
            raise InputError(f"member index {n} outside 1..{self.horizon}")
        if n > len(self._values):  # a model member past the filled prefix
            return LatticeElement(self.carrier, self.model.member_values(n, self.carrier.size),
                                  self.tail(n))
        return LatticeElement(self.carrier, self._values[n - 1], self.tail(n), _family_row=True)

    @property
    def members(self):
        """Every member as a LatticeElement; None for model families."""
        return None if self.model else tuple(map(self.member, range(1, self.horizon + 1)))

    def prefix_count(self, upto: int) -> int:
        return min(upto, self.horizon)

    def stacked(self, upto: int) -> np.ndarray:
        """Member values for n = 1..upto as a read-only (upto, size) matrix."""
        upto = self.prefix_count(upto)
        if upto > len(self._values):  # a model family fills its matrix this far
            if upto > MEMBER_MATERIALIZE_LIMIT:
                raise InputError(
                    f"materializing {upto} generated members exceeds the limit "
                    f"{MEMBER_MATERIALIZE_LIMIT}; lower the horizon or use the model"
                )
            size = self.carrier.size
            self._values = np.where(np.arange(1, size + 1) <= np.arange(1, upto + 1)[:, None],
                                    self.model.member_values(size, size), 0.0)
            self._values.setflags(write=False)
        return self._values[:upto]

    def tail(self, n: int):
        """Tail of member n, or None on metric-points carriers."""
        if self.model is not None:
            return self._tails[n > self.carrier.size]
        return self._tails[n - 1] if isinstance(self._tails, tuple) else self._tails

    def tails(self, upto: int):
        """Member tails for n = 1..upto, or None on metric-points carriers."""
        upto = self.prefix_count(upto)
        if self.model is not None:
            self.stacked(upto)  # the same materialize limit as the values
            exact = min(upto, self.carrier.size)
            return (self._tails[0],) * exact + (self._tails[1],) * (upto - exact)
        if not isinstance(self._tails, tuple):
            return self._tails and (self._tails,) * upto
        return self._tails[:upto]

    def _verify_metadata(self) -> None:
        meta = self.metadata
        vh = self.verification_horizon
        if meta.common_bound is not None and not self.carrier.compatible(
                meta.common_bound.carrier):
            raise MetadataError("common bound lives on a different carrier")
        if meta.limit is not None and not self.carrier.compatible(meta.limit.carrier):
            raise MetadataError("declared limit lives on a different carrier")
        breach = _monotone_breach(self, meta.common_bound, meta.monotone_decreasing, vh)
        if breach is None and meta.uniformly_cauchy_norms is not None:
            eps = meta.uniformly_cauchy_norms
            if len(eps) < self.horizon:
                raise MetadataError(
                    f"{len(eps)} uniform Cauchy norms declared for horizon {self.horizon}"
                )
            breach = _uniform_breach(self, eps, vh)
        if breach is not None:
            raise MetadataError(breach)


def _each_distinct(fn, items) -> list:
    """[fn(t) for t in items], one call per distinct (hashable) item."""
    memo = {}
    return [memo[t] if t in memo else memo.setdefault(t, fn(t)) for t in items]


def _running_max(tails, first: int) -> list:
    """Running tail_max fold from the zero tail; since tail_max(tail_max(a,
    t), t) == tail_max(a, t), a run of one tail object folds once."""
    acc, prev, out = Tail.zero(), None, []
    for t in tails:
        if t is not prev:
            acc, prev = tail_max(acc, t, first), t
        out.append(acc)
    return out


# tail_le verdicts as status codes: holds, fails, undecidable
_STATUS = {True: 0, False: 1, None: 2}


def _monotone_breach(family, bound, decreasing: bool, upto: int) -> str | None:
    """First of |x_n| <= bound (when a bound is given) and x_n <= x_{n-1}
    (when ``decreasing``) to fail over n = 1..upto, or None; the bound goes
    first, and tails decide only where the values hold.  Construction and
    the certificate route both run this one check."""
    x, tails = family.stacked(upto), family.tails(upto)
    first = family.carrier.size + 1
    status = np.zeros((upto, 2), dtype=np.int8)
    if bound is not None:
        status[:, 0] = ~np.all(np.abs(x) <= bound.values, axis=1)
        if tails is not None:
            status[:, 0] = np.where(status[:, 0], 1, _each_distinct(
                lambda t: _STATUS[tail_le(tail_abs(t), bound.tail, first)], tails))
    if decreasing and upto > 1:
        status[1:, 1] = ~np.all(x[1:] <= x[:-1], axis=1)
        if tails is not None:
            status[1:, 1] = np.where(status[1:, 1], 1, _each_distinct(
                lambda pair: _STATUS[tail_le(*pair, first)], zip(tails[1:], tails[:-1])))
    hit = np.flatnonzero(status.any(axis=1))
    if not len(hit):
        return None
    n = int(hit[0]) + 1
    on_bound, on_decrease = status[n - 1]
    if on_bound == 1:
        return f"member {n} exceeds the declared common bound"
    if 2 in (on_bound, on_decrease):
        what = f"member {n} vs the common bound" if on_bound else f"members {n} vs {n - 1}"
        raise MetadataError(f"cannot verify claim ({what}) through undeclared tails")
    return f"family declared decreasing but member {n} exceeds member {n - 1}"


def _later_gap(v: np.ndarray) -> np.ndarray:
    """Entry j: max |v_l - v_j| over rows l > j and the columns of matrix v.
    Float subtraction rounds monotonically, so max(sufmax_{j+1} - v_j,
    v_j - sufmin_{j+1}) equals the pairwise maximum exactly."""
    gap = np.maximum.accumulate(v[::-1], axis=0)[::-1][1:]
    below = np.minimum.accumulate(v[::-1], axis=0)[::-1][1:]
    gap -= v[:-1]  # in place: two (N - 1, size) temporaries in all
    np.maximum(gap, np.subtract(v[:-1], below, out=below), out=gap)
    return gap.max(axis=1)


def _uniform_breach(family, eps, upto: int) -> str | None:
    """First pair j < l of members 1..upto, row by row, whose sup-gap (tails
    included) exceeds eps_j, or None; a pair whose tail difference is
    undeclared raises where a pairwise scan would meet it first.
    Construction and the certificate route share this check.

    Each row's largest value gap to a later row comes from _later_gap.  The
    tail gap of each pair of distinct tails is worked out once, by core's
    tail_sub/tail_abs/sup_abs, and the tails after row j are those whose
    last occurrence lies past j.  One pass finds the first row with a
    breach or an undeclared gap, and a scan of that row finds l."""
    if upto < 2:
        return None
    x, tails = family.stacked(upto), family.tails(upto)
    row_gap = _later_gap(x)
    limits = np.asarray(eps[:upto - 1], dtype=np.float64)
    if tails is not None:
        first = family.carrier.size + 1
        ids = {}
        code = [ids.setdefault(t, len(ids)) for t in tails]
        distinct, memo = list(ids), {}

        def tail_gap(a: int, b: int) -> float:
            """sup |t_a - t_b| of distinct tails a, b; NaN when undeclared."""
            if (a, b) not in memo:
                t = tail_abs(tail_sub(distinct[a], distinct[b]))
                memo[a, b] = t.sup_abs(first) if t.decidable else math.nan
            return memo[a, b]

        last = np.zeros(len(distinct), dtype=np.intp)
        np.maximum.at(last, code, np.arange(upto))
        order = np.argsort(last)
        later = np.searchsorted(last[order], np.arange(upto - 1), side="right")
        rows_of = np.asarray(code[:-1])
        for a in set(code[:-1]):
            rows = np.flatnonzero(rows_of == a)
            start = later[rows[0]]  # order[start:] are the tails after a's first row
            gaps = np.array([tail_gap(a, b) for b in order[start:].tolist()])
            gaps = np.maximum.accumulate(np.where(np.isnan(gaps), np.inf, gaps)[::-1])[::-1]
            row_gap[rows] = np.maximum(row_gap[rows], gaps[later[rows] - start])
    breach = np.flatnonzero(row_gap > limits)
    if not len(breach):
        return None
    j = int(breach[0])
    gap = np.abs(x[j + 1:] - x[j]).max(axis=1)
    undeclared = np.zeros(len(gap), dtype=bool)
    if tails is not None:
        tgap = np.array([tail_gap(code[j], b) for b in code[j + 1:]])
        undeclared = np.isnan(tgap)
        gap = np.fmax(gap, tgap)
    l = int(np.flatnonzero(undeclared | (gap > limits[j]))[0])
    if undeclared[l]:
        raise MetadataError("cannot bound a gap through undeclared tails")
    return (f"||x_{j + 1} - x_{j + l + 2}|| = {float(gap[l]):.6g} exceeds the "
            f"declared eps_{j + 1} = {eps[j]:.6g}")


def truncation_family(exponent: float, coeff: float = 1.0, *, size: int = 64,
                      horizon: int = 10**9, p: float | None = None) -> SequenceFamily:
    """Family of truncations x_n = x * 1_{j<=n} for x(j) = coeff * j**-exponent.

    Only the first ``size`` coordinates are ever materialized; block and norm
    analysis past them goes through the attached model.  Member tails are
    exact (zero) while n <= size and undeclared beyond, so checks that
    materialize members should stay within the stored prefix.
    """
    model = TruncationModel(exponent=exponent, coeff=coeff)
    carrier = Carrier.index_set(size)
    limit = LatticeElement(carrier, model.member_values(size, size), model.limit_tail())
    meta = FamilyMetadata(
        common_bound=limit,
        space_tag=SpaceTag.lp(p) if p is not None else None,
        limit=limit,
        growth="bounded",
        notes=(f"truncations of coeff*j**-a with a={exponent:g}, coeff={coeff:g}",),
    )
    return SequenceFamily(model=model, carrier=carrier, horizon=horizon, metadata=meta)


# ---------------------------------------------------------------------------
# certificates, witnesses, verdicts


@dataclass(frozen=True)
class OrderCertificate:
    """The canonical regulator: z_m dominates |x_n - x| for every n >= N_m,
    decreases in m, and its last level sits below the tolerance."""

    regulator_values: np.ndarray  # (M, size); row m-1 is z_m on the prefix
    regulator_tails: tuple[Tail, ...] | None
    thresholds: tuple[int, ...]
    final_sup: float


@dataclass(frozen=True)
class MonotoneCertificate:
    """Decreasing and dominated: each coordinate sequence converges, and the
    declared bound dominates every member and every tail difference."""

    bound: LatticeElement
    note: str = "decreasing and dominated; coordinate sequences converge"


@dataclass(frozen=True)
class UniformCauchyCertificate:
    """eps_m bounds every later pairwise sup-gap, so consecutive differences
    of any strictly increasing subsequence from index m stay under eps_m."""

    eps: tuple[float, ...]


@dataclass(frozen=True)
class BuoCertificate:
    dominator: LatticeElement
    membership_reason: str
    probe_sups: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class StuckCoordinate:
    """A coordinate whose regulator never reaches the tolerance."""

    coordinate: str
    final_regulator: float
    trace_start: int
    trace: tuple[float, ...]


@dataclass(frozen=True)
class SubsequenceWitness:
    indices: tuple[int, ...]
    stuck: StuckCoordinate


@dataclass(frozen=True)
class UnboundedGrowth:
    declared: str
    norm_trace: tuple[float, ...]


@dataclass(frozen=True)
class DominationFailure:
    tag: str
    reason: str


@dataclass(frozen=True)
class ConvergenceVerdict:
    mode: str  # order | uo | buo | buo_cauchy
    outcome: str  # holds | fails | inconclusive
    tolerance: float
    horizon: int
    certificate: object | None = None
    witness: object | None = None
    limit: LatticeElement | None = None
    bound: float | None = None
    policy: CertificatePolicy | SampledPolicy | None = None  # Buo-Cauchy only
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.outcome not in ("holds", "fails", "inconclusive"):
            raise InputError(f"unknown outcome {self.outcome!r}")


@dataclass(frozen=True)
class PairedVerdict:
    order: ConvergenceVerdict
    buo: ConvergenceVerdict
    equal: bool | None
    note: str = ""


@dataclass(frozen=True)
class NormBound:
    value: float
    unbounded: bool
    norm: str
    trace: tuple[float, ...]
    trace_indices: tuple[int, ...] | None = None  # set when the trace is sampled


# ---------------------------------------------------------------------------
# pointwise limits and dominating elements


def pointwise_limit(family: SequenceFamily, config: CheckConfig | None = None) -> LatticeElement:
    """Per-coordinate limit of the family, or a divergence error naming the
    offending coordinate.

    A declared limit under a declared decrease is accepted after verifying
    the members stay above it: monotone bounded coordinate sequences
    converge, so the limit identity is the metadata's claim and the check
    confirms its consistency.  Otherwise the last-half oscillation of every
    coordinate must sit below the tolerance.
    """
    cfg = config or CheckConfig()
    meta = family.metadata
    upto = family.prefix_count(cfg.horizon)

    if family.model is not None and meta.limit is not None:
        # truncations settle coordinate j at n = j; the declared limit just
        # has to agree with the model on the prefix and on the tail
        size = family.carrier.size
        if not np.array_equal(meta.limit.values, family.model.member_values(size, size)):
            raise MetadataError("declared limit disagrees with the truncation model")
        if meta.limit.tail != family.model.limit_tail():
            raise MetadataError("declared limit tail disagrees with the truncation model")
        return meta.limit

    if meta.limit is not None and meta.monotone_decreasing:
        vh, first = family.verification_horizon, family.carrier.size + 1
        status = np.where(np.all(meta.limit.values <= family.stacked(vh), axis=1), 0, 1)
        if family.carrier.is_index_set:  # tails decide only where the values hold
            status = np.where(status, 1, _each_distinct(
                lambda t: _STATUS[tail_le(meta.limit.tail, t, first)], family.tails(vh)))
        hit = np.flatnonzero(status)
        if len(hit) and status[hit[0]] == 2:
            raise MetadataError("cannot verify claim (declared limit exceeds a member) "
                                "through undeclared tails")
        if len(hit):
            raise MetadataError(f"declared limit exceeds member {hit[0] + 1}; a decreasing "
                                "family cannot pass below its limit")
        return meta.limit

    if upto < 2:
        raise InputError("need at least two members to estimate a limit")
    x = family.stacked(upto)
    window = x[upto - max(2, upto // 2):]
    osc = window.max(axis=0) - window.min(axis=0)
    worst = int(np.argmax(osc))
    if osc[worst] > cfg.tolerance:
        raise PointwiseDivergenceError(
            coordinate=family.carrier.coordinate_name(worst),
            oscillation=float(osc[worst]),
            tolerance=cfg.tolerance,
        )
    if meta.limit is not None:
        gap = np.abs(x[-1] - meta.limit.values)
        bad = int(np.argmax(gap))
        if gap[bad] > cfg.tolerance + osc[bad]:
            raise MetadataError(
                f"declared limit is off by {gap[bad]:.6g} at coordinate "
                f"{family.carrier.coordinate_name(bad)}"
            )
        return meta.limit
    return LatticeElement(family.carrier, x[-1], family.tail(upto))


def dominating_element(family: SequenceFamily) -> LatticeElement:
    """Coordinatewise sup of |x_n| over the family: y(k) = sup_n |x_n(k)|."""
    if family.model is not None:
        # every truncation is dominated by the full limit sequence
        size = family.carrier.size
        return LatticeElement(
            family.carrier,
            family.model.member_values(size, size),
            family.model.limit_tail(),
        )
    x = family.stacked(family.horizon)
    vals = np.abs(x).max(axis=0)
    tail = None
    if family.carrier.is_index_set:
        tail = _running_max(_each_distinct(tail_abs, family.tails(family.horizon)),
                            family.carrier.size + 1)[-1]
        if not tail.decidable:
            warnings.warn(
                "dominating element tail is undeclared; norm queries on it will refuse",
                stacklevel=2,
            )
    return LatticeElement(family.carrier, vals, tail)


# ---------------------------------------------------------------------------
# order / uo / buo checks


def _suffix_sup(diffs: np.ndarray) -> np.ndarray:
    """Row m-1 holds sup over n >= m of diffs[n-1] (suffix running max)."""
    return np.maximum.accumulate(diffs[::-1], axis=0)[::-1]


def _diff_tails(family, candidate, upto):
    if not family.carrier.is_index_set:
        return None
    c_tail = candidate.tail
    return _each_distinct(lambda t: tail_abs(tail_sub(t, c_tail)), family.tails(upto))


def _fold_suffix_tails(dtails, first):
    """Suffix tail_max fold; entry m-1 covers members m..M."""
    if dtails is None:
        return None
    return _running_max(dtails[::-1], first)[::-1]


def _stuck(family, per_member, worst_idx, final) -> StuckCoordinate:
    trace = per_member[:, worst_idx]
    start = max(0, len(per_member) - TRACE_KEEP)
    return StuckCoordinate(
        coordinate=family.carrier.coordinate_name(worst_idx),
        final_regulator=final,
        trace_start=start + 1,
        trace=tuple(float(v) for v in trace[start:]),
    )


def _final_level(family, rows, tail, tolerance, tail_start):
    """(level, stuck) of the regulator of ``rows`` and the ``tail`` past
    the prefix (None on metric-points carriers).  The regulator's final
    level is the last row itself, raised to the tail's sup; it is None when
    the tail is undeclared.  ``stuck`` is the witness of the prefix, else of
    the tail, that stays above the tolerance, or None."""
    level = float(rows[-1].max())
    if level > tolerance:
        return level, _stuck(family, rows, int(np.argmax(rows[-1])), level)
    if tail is None:
        return level, None
    if not tail.decidable:
        return None, None
    first = family.carrier.size + 1
    tail_sup = tail.sup_abs(first)
    if tail_sup > tolerance:
        return tail_sup, StuckCoordinate(f"tail(j>={first})", tail_sup, tail_start, ())
    return max(level, tail_sup), None


def _verdict(mode, outcome, cfg, upto, notes, **claims) -> ConvergenceVerdict:
    return ConvergenceVerdict(mode=mode, outcome=outcome, tolerance=cfg.tolerance,
                              horizon=upto, notes=tuple(notes), **claims)


def check_order_convergence(family: SequenceFamily, candidate: LatticeElement,
                            config: CheckConfig | None = None) -> ConvergenceVerdict:
    """Order convergence of x_n to the candidate, with the canonical regulator.

    On a finite carrier (plus decidable tails) this is exact: the family
    order-converges iff every coordinate regulator falls below the tolerance
    by the horizon.
    """
    cfg = config or CheckConfig()
    if not family.carrier.compatible(candidate.carrier):
        raise InputError("candidate lives on a different carrier")
    upto = family.prefix_count(cfg.horizon)
    diffs = np.abs(family.stacked(upto) - candidate.values[None, :])
    notes = []
    if upto < family.horizon:
        notes.append(f"checked {upto} of {family.horizon} members (horizon cap)")
    ztails = _fold_suffix_tails(_diff_tails(family, candidate, upto), family.carrier.size + 1)
    last = None if ztails is None else ztails[-1]
    final, stuck = _final_level(family, diffs, last, cfg.tolerance, upto)
    if stuck is not None:
        return _verdict("order", "fails", cfg, upto, notes, witness=stuck, limit=candidate)
    if final is None:
        notes.append("tail behavior undeclared; the prefix alone cannot certify")
        return _verdict("order", "inconclusive", cfg, upto, notes, limit=candidate)

    cert = OrderCertificate(
        regulator_values=_suffix_sup(diffs),
        regulator_tails=tuple(ztails) if ztails is not None else None,
        thresholds=tuple(range(1, upto + 1)),
        final_sup=final,
    )
    tag = family.metadata.space_tag
    if tag is not None:
        # carry the limit's membership status so callers can track, e.g.,
        # a Lipschitz constant blowing up across refinements
        try:
            verdict = member_of(candidate, tag)
        except UndecidableTailError:
            notes.append(f"limit membership in {tag.describe()} undecidable (tail undeclared)")
        else:
            word = "lies in" if verdict else "leaves"
            notes.append(f"limit {word} {tag.describe()}: {verdict.reason}")
    return _verdict("order", "holds", cfg, upto, notes, certificate=cert, limit=candidate)


def _uo_probes(family: SequenceFamily, dominator: LatticeElement | None, seed: int):
    """The fixed truncation probe set: 1, the dominator, five random u > 0."""
    carrier = family.carrier
    probes = [("ones", np.ones(carrier.size), Tail.constant(1.0))]
    if dominator is not None and float(np.max(dominator.values)) > 0:
        probes.append(("dominating", dominator.values,
                       dominator.tail if carrier.is_index_set else None))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xB005)))
    for i in range(5):
        vals = rng.uniform(0.5, 1.5, size=carrier.size)
        probes.append((f"random-{i + 1}", vals, Tail.constant(0.5 + 0.25 * i)))
    return probes


def check_buo_convergence(family: SequenceFamily, candidate: LatticeElement,
                          config: CheckConfig | None = None) -> ConvergenceVerdict:
    """Buo: uo-convergence (truncated differences order-null against the
    probe set) plus order-boundedness of the family in its declared space."""
    cfg = config or CheckConfig()
    if not family.carrier.compatible(candidate.carrier):
        raise InputError("candidate lives on a different carrier")
    meta = family.metadata
    upto = family.prefix_count(cfg.horizon)
    notes = []
    if upto < family.horizon:
        notes.append(f"checked {upto} of {family.horizon} members (horizon cap)")

    if meta.growth == "unbounded":
        trace = np.abs(family.stacked(upto)).max(axis=1)
        notes.append("declared unbounded growth rules out a common dominator")
        return _verdict("buo", "fails", cfg, upto, notes, limit=candidate, witness=UnboundedGrowth(
            declared="unbounded", norm_trace=tuple(float(v) for v in trace)))

    y = dominating_element(family)
    tag = meta.space_tag or (SpaceTag.linf() if family.carrier.is_index_set
                             else SpaceTag.bounded_fns())
    try:
        membership = member_of(y, tag)
    except UndecidableTailError:
        notes.append("dominating element tail undeclared; boundedness undecidable")
        return _verdict("buo", "inconclusive", cfg, upto, notes, limit=candidate)
    if not membership:
        return _verdict("buo", "fails", cfg, upto, notes, limit=candidate,
                        witness=DominationFailure(tag=tag.describe(), reason=membership.reason))
    bound = sup_norm(y)

    diffs = np.abs(family.stacked(upto) - candidate.values[None, :])
    dtails = _diff_tails(family, candidate, upto)
    first = family.carrier.size + 1
    probe_sups = []
    tail_blocked = None
    for name, uvals, utail in _uo_probes(family, y, cfg.seed):
        cut_tail = None if dtails is None else tail_min(dtails[-1], utail, first)
        final, stuck = _final_level(family, np.minimum(diffs, uvals[None, :]), cut_tail,
                                    cfg.tolerance, upto)
        if stuck is not None:  # only a tail witness has an empty trace
            where = "stays above tolerance at the horizon" if stuck.trace else "stuck on the tail"
            notes.append(f"probe {name} {where}")
            return _verdict("buo", "fails", cfg, upto, notes, witness=stuck, limit=candidate,
                            bound=bound)
        if final is None:
            tail_blocked = name
        probe_sups.append((name, final))
    if tail_blocked is not None:
        notes.append(f"probe {tail_blocked}: tail undeclared, prefix alone cannot certify")
        return _verdict("buo", "inconclusive", cfg, upto, notes, limit=candidate, bound=bound)

    cert = BuoCertificate(dominator=y, membership_reason=membership.reason,
                          probe_sups=tuple(probe_sups))
    return _verdict("buo", "holds", cfg, upto, notes, certificate=cert, limit=candidate,
                    bound=bound)


def buo_equals_order(family: SequenceFamily, candidate: LatticeElement,
                     config: CheckConfig | None = None) -> PairedVerdict:
    """Run the order and Buo checks independently; decisive disagreement is a
    bug, reported with the (|x| - y)+ diagnostic, never swallowed."""
    order = check_order_convergence(family, candidate, config)
    buo = check_buo_convergence(family, candidate, config)
    if "inconclusive" in (order.outcome, buo.outcome):
        return PairedVerdict(order, buo, equal=None,
                             note="one side inconclusive; equivalence not decided")
    if order.outcome != buo.outcome:
        y = dominating_element(family)
        w = pos_part(difference(abs_(candidate), y))
        peak = int(np.argmax(w.values))
        raise InternalInvariantError(
            "order and Buo verdicts disagree "
            f"(order={order.outcome}, buo={buo.outcome}); diagnostic w=(|x|-y)+ "
            f"peaks at coordinate {family.carrier.coordinate_name(peak)} "
            f"with value {float(w.values[peak]):.6g}"
        )
    return PairedVerdict(order, buo, equal=True)


# ---------------------------------------------------------------------------
# Buo-Cauchy


@dataclass(frozen=True)
class CertificatePolicy:
    kind: str = "certificate"


@dataclass(frozen=True)
class SampledPolicy:
    count: int = 32
    max_len: int = 16
    seed: int = 0
    include: tuple = ()
    kind: str = "sampled"

    def __post_init__(self):
        if self.count < 1 or self.max_len < 2:
            raise InputError("sampled policy needs count >= 1 and max_len >= 2")
        if self.seed < 0:  # numpy's seeding takes no negative entropy
            raise InputError(f"seed must be >= 0, got {self.seed}")
        seqs = []
        for seq in self.include:
            seq = tuple(int(v) for v in seq)
            if len(seq) < 2 or seq[0] < 1 or any(b <= a for a, b in zip(seq, seq[1:])):
                raise InputError(
                    "included subsequences must be strictly increasing with >= 2 entries"
                )
            seqs.append(seq)
        object.__setattr__(self, "include", tuple(seqs))


def _anchor(seq: list, horizon: int, max_len: int) -> tuple:
    """End the draw at the horizon so the final difference probes the zone
    the verdict's budget actually covers; trim the front to respect max_len."""
    if seq[-1] != horizon:
        seq = seq + [horizon]
    if len(seq) > max_len:
        seq = seq[len(seq) - max_len:]
    return tuple(seq)


def _subsequences(count: int, max_len: int, seed: int, horizon: int):
    """The deterministic probe batch: consecutive indices first, then seeded
    geometric-gap and uniform strictly increasing draws, alternating."""
    subs = [tuple(range(1, min(max_len, horizon) + 1))]
    children = np.random.SeedSequence(entropy=(seed, 0xCAFE)).spawn(max(0, count - 1))
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        if i % 2 == 0:
            ratio = int(rng.choice([1, 2, 4]))
            gap = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            seq = [n]
            while len(seq) < max_len:
                n += gap
                if n > horizon:
                    break
                seq.append(n)
                gap = max(1, gap * ratio)
        else:
            k = min(max_len, horizon)
            # the same draw as choosing from arange(1, horizon + 1), without
            # materializing the range
            seq = sorted(int(v) + 1 for v in rng.choice(horizon, size=k, replace=False))
        seq = _anchor([v for v in seq if v <= horizon], horizon, max_len)
        if len(seq) >= 2:
            subs.append(seq)
    return subs


def _check_subsequence(family, indices, tolerance):
    """Order-check the consecutive differences along one subsequence; None
    when they vanish, else the stuck-coordinate witness."""
    rows = family.stacked(max(indices))[np.asarray(indices) - 1]
    tail = None
    if family.carrier.is_index_set:
        tail = tail_abs(tail_sub(family.tail(indices[-1]), family.tail(indices[-2])))
    _, stuck = _final_level(family, np.abs(rows[1:] - rows[:-1]), tail, tolerance, len(indices))
    return None if stuck is None else SubsequenceWitness(indices=tuple(indices), stuck=stuck)


def check_buo_cauchy(family: SequenceFamily, policy, config: CheckConfig | None = None
                     ) -> ConvergenceVerdict:
    """Buo-Cauchy: consecutive differences of every strictly increasing
    subsequence are order-null.

    Certificate policy accepts only metadata-backed proofs.  Sampled policy
    is this tool's budgeted search device: it can find a counterexample or
    report, explicitly, that none was found; it never claims the property.
    """
    cfg = config or CheckConfig()
    meta = family.metadata
    upto = family.prefix_count(cfg.horizon)

    def verdict(outcome: str, note: str, **claims) -> ConvergenceVerdict:
        return _verdict("buo_cauchy", outcome, cfg, upto, (note,), policy=policy, **claims)

    if isinstance(policy, CertificatePolicy):
        if meta.monotone_decreasing and meta.common_bound is not None:
            # construction verified the declared prefix; re-verify the full
            # checked range so the certificate covers what the verdict claims
            breach = _monotone_breach(family, meta.common_bound, True, upto)
            if breach is not None:
                raise MetadataError(breach)
            return verdict("holds", "route: decreasing family under a common bound",
                           certificate=MonotoneCertificate(bound=meta.common_bound),
                           bound=sup_norm(meta.common_bound))
        if meta.uniformly_cauchy_norms is not None:
            eps = meta.uniformly_cauchy_norms[:upto]
            if any(b > a for a, b in zip(eps, eps[1:])):
                raise MetadataError("uniform Cauchy norms must be non-increasing")
            if eps[-1] > cfg.tolerance:
                return verdict("inconclusive",
                               f"declared norms stop at {eps[-1]:.6g}, above tolerance")
            breach = _uniform_breach(family, eps, upto)
            if breach is not None:
                raise MetadataError(f"certificate violated: {breach}")
            return verdict("holds", "route: uniform difference norms dominate every subsequence",
                           certificate=UniformCauchyCertificate(eps),
                           bound=sup_norm(dominating_element(family)))
        return verdict("inconclusive", "no certificate-grade metadata declared")

    if not isinstance(policy, SampledPolicy):
        raise InputError(f"unknown Buo-Cauchy policy {policy!r}")

    # caller-supplied subsequences (e.g. extracted witness indices) run
    # verbatim and first, so a replayed counterexample wins deterministically
    for seq in policy.include:
        if seq[-1] > upto:
            raise InputError(
                f"included subsequence reaches {seq[-1]} beyond the checked horizon {upto}"
            )
    subs = list(policy.include) + _subsequences(policy.count, policy.max_len,
                                                policy.seed, upto)
    for seq in subs:  # the first failure in draw order wins; later draws never run
        witness = _check_subsequence(family, seq, cfg.tolerance)
        if witness is not None:
            return verdict("fails", "budget-relative: differences along the attached window "
                           "never reached tolerance; certificate policies are authoritative "
                           "when metadata exists", witness=witness)
    return verdict("inconclusive", f"no counterexample among {len(subs)} sampled subsequences; "
                   "sampling cannot prove the property (search device, not a theorem)")


# ---------------------------------------------------------------------------
# norms


def norm_bound(family: SequenceFamily, tag: SpaceTag) -> NormBound:
    """sup of member norms over the horizon, with the declared growth flag."""
    if family.model is not None:
        return _model_norm_bound(family, tag)
    upto = family.prefix_count(family.horizon)
    x = family.stacked(upto)
    tails = family.tails(upto)
    first = family.carrier.size + 1
    if tag.kind == "lp":
        body = np.sum(np.abs(x) ** tag.p, axis=1)
        if tails is not None:
            body += _each_distinct(lambda t: t.p_power_sum(tag.p, first), tails)
        values = [t ** (1.0 / tag.p) if t < math.inf else math.inf for t in body.tolist()]
    else:
        values = np.abs(x).max(axis=1).tolist()
        if tails is not None:
            values = list(map(max, values, _each_distinct(lambda t: t.sup_abs(first), tails)))
    return NormBound(
        value=max(values),
        unbounded=family.metadata.growth == "unbounded",
        norm=tag.describe(),
        trace=tuple(values),
    )


def _model_norm_bound(family: SequenceFamily, tag: SpaceTag) -> NormBound:
    """Closed-form member norms: no materialization past the stored prefix."""
    model = family.model
    points = []
    n = 1
    while n < family.horizon:
        points.append(n)
        n *= 2
    points.append(family.horizon)
    if tag.kind == "lp":
        trace = [model.mass(tag.p, 1, k + 1) ** (1.0 / tag.p) for k in points]
    else:
        # truncations peak at the first coordinate
        trace = [model.limit_value(1)] * len(points)
    return NormBound(
        value=max(trace),
        unbounded=family.metadata.growth == "unbounded",
        norm=tag.describe(),
        trace=tuple(trace),
        trace_indices=tuple(points),
    )
