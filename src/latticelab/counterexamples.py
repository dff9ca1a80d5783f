"""Named counterexample scenarios over refining finite metric spaces.

Two families, each parameterized by a refinement (a chain of growing
spaces whose smallest separation shrinks):

* shrinking hats f_n = (1 - n*d(., x0))+ around an accumulating anchor;
  each hat is n-Lipschitz and the chain decreases to the anchor's
  indicator, whose oscillation never leaves 1 at the refinement scale.
* the square-root envelope ladder g_n built under g = sqrt(dist(., A)) ∧ 1;
  the g_n stay uniformly Cauchy while the slope g itself demands grows
  like scale**(-1/2), so no Lipschitz bound survives the refinement.

Every generated object re-verifies the properties it advertises before it
is returned; escape from a function class is always reported as a trend
across refinement levels with a fitted rate, never as a boolean, because
any bounded function on one finite space is Lipschitz there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convergence import FamilyMetadata, SequenceFamily, pointwise_limit
from .core import Carrier, LatticeElement, SpaceTag, meet, ones
from .envelopes import ENVELOPE_TOL, EnvelopeResult, inf_convolution_ladder
from .errors import InputError, InternalInvariantError
from .metric import (
    FiniteMetricSpace,
    discreteness_constant,
    dist_to_set_all,
    isolation_radius,
    max_slope,
    row_windows,
)
from .numerics import loglog_fit

__all__ = [
    "RefinementFamily",
    "build_refinement",
    "hat_family",
    "HatScenario",
    "hat_scenario",
    "running_meets",
    "LipCounterexample",
    "lip_counterexample",
    "EscapeRow",
    "EscapeReport",
    "verify_escape",
]

#: Full nested-consistency and separation checks run below this point count;
#: larger levels are spot-checked on a deterministic label sample.
NESTED_CHECK_LIMIT = 512


# ---------------------------------------------------------------------------
# refinement families


@dataclass(frozen=True)
class RefinementFamily:
    """A chain of growing finite metric spaces with shrinking separation.

    kind "accumulation": every space contains the ``anchor`` label and the
    anchor's isolation radius strictly decreases along ``levels``.
    kind "pairs": level L's space consists of the first L of ``pairs``,
    with d(a_i, b_i) < 1/i and different pairs at least 1 apart (a finite
    model of a discrete but not uniformly discrete space).
    """

    kind: str
    levels: tuple
    spaces: tuple
    anchor: str | None = None
    pairs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        object.__setattr__(self, "spaces", tuple(self.spaces))
        object.__setattr__(self, "pairs",
                           tuple((str(a), str(b)) for a, b in self.pairs))
        if self.kind not in ("accumulation", "pairs"):
            raise InputError(f"unknown refinement kind {self.kind!r}")
        if not self.levels:
            raise InputError("a refinement needs at least one level")
        if not all(b > a for a, b in zip(self.levels, self.levels[1:])):
            raise InputError("levels must be strictly increasing")
        if len(self.spaces) != len(self.levels):
            raise InputError(
                f"{len(self.spaces)} spaces for {len(self.levels)} levels"
            )
        _check_nesting(self.spaces)
        if self.kind == "accumulation":
            if self.anchor is None:
                raise InputError("accumulation refinements need an anchor label")
            radii = [isolation_radius(s, self.anchor) for s in self.spaces]
            for i, r in enumerate(radii):
                if not (0.0 < r < math.inf):
                    raise InputError(
                        f"anchor is isolated or duplicated at level {self.levels[i]}"
                    )
            if not all(b < a for a, b in zip(radii, radii[1:])):
                raise InputError(
                    "the anchor's isolation radius must strictly decrease across levels"
                )
        else:
            if len(self.pairs) < self.levels[-1]:
                raise InputError(
                    f"{len(self.pairs)} pairs cannot cover level {self.levels[-1]}"
                )
            a_set = {a for a, _ in self.pairs}
            b_set = {b for _, b in self.pairs}
            if a_set & b_set or len(a_set) < len(self.pairs) or len(b_set) < len(self.pairs):
                raise InputError("pair labels must be distinct and non-overlapping")
            top, pairs = self.spaces[-1], self.pairs[: self.levels[-1]]
            a, b = (np.array([top.index(p[k]) for p in pairs], dtype=np.intp) for k in (0, 1))
            # each pair's gap on the diagonal of a distance block, in bounded memory
            gaps = np.concatenate([np.diagonal(top.distances(a[lo:hi], b[lo:hi]))
                                   for lo, hi in row_windows(len(pairs), len(pairs))])
            bad = np.flatnonzero(~((gaps > 0.0) & (gaps < 1.0 / np.arange(1, len(pairs) + 1))))
            if bad.size:
                i = int(bad[0]) + 1
                raise InputError(f"pair {i} sits at distance {gaps[i - 1]:.6g}, "
                                 f"not inside (0, 1/{i})")
            _check_pair_separation(top, pairs)

    def space_at(self, level: int) -> FiniteMetricSpace:
        try:
            return self.spaces[self.levels.index(int(level))]
        except ValueError:
            raise InputError(f"level {level} is not one of {self.levels}") from None

    def scale(self, level: int) -> float:
        """The refinement scale at a level: how close the newest point sits
        to the structure it refines (anchor distance, or the newest gap)."""
        space = self.space_at(level)
        if self.kind == "accumulation":
            return isolation_radius(space, self.anchor)
        a, b = self.pairs[int(level) - 1]
        return space.distance(space.index(a), space.index(b))

    def delta(self, level: int) -> float:
        """Uniform discreteness constant of the level's space."""
        return discreteness_constant(self.space_at(level))


def _check_nesting(spaces) -> None:
    for small, large in zip(spaces, spaces[1:]):
        missing = set(small.labels) - set(large.labels)
        if missing:
            raise InputError(
                f"labels {sorted(missing)[:3]} vanish between refinement levels"
            )
        labels = small.labels
        if len(labels) > NESTED_CHECK_LIMIT:
            half = NESTED_CHECK_LIMIT // 2
            labels = labels[:half] + labels[-half:]
        sub_small = small.subspace(labels)
        sub_large = large.subspace(labels)
        if not np.array_equal(sub_small.matrix, sub_large.matrix):
            raise InputError("refinement levels disagree on shared distances")


def _check_pair_separation(space, pairs) -> None:
    labels = [lab for pair in pairs for lab in pair]
    if len(labels) > NESTED_CHECK_LIMIT:
        pairs = pairs[: NESTED_CHECK_LIMIT // 2]
        labels = [lab for pair in pairs for lab in pair]
    sub = space.subspace(labels)
    m = sub.matrix
    owner = np.repeat(np.arange(len(pairs)), 2)
    cross = owner[:, None] != owner[None, :]
    worst = float(m[cross].min()) if cross.any() else math.inf
    if worst < 1.0:
        raise InputError(
            f"points of different pairs come within {worst:.6g} < 1 of each other"
        )


def build_refinement(kind: str, levels) -> RefinementFamily:
    """Default refinement geometries on the line.

    accumulation: level N is {0} ∪ {1/k : k <= N} with anchor "x0".
    pairs: level N holds N two-point clusters, cluster i at offset 2i with
    internal gap 1/(i+1) (inside the required (0, 1/i) window) and at least
    1.5 away from every other cluster.

    Custom geometries go through the RefinementFamily constructor directly,
    which validates the same invariants on any spaces supplied.
    """
    levels = sorted({int(v) for v in levels})
    if not levels:
        raise InputError("build_refinement needs at least one level")
    if levels[0] < 2:
        raise InputError(f"levels must be >= 2, got {levels[0]}")
    top = levels[-1]
    width = max(2, len(str(top)))
    if kind == "accumulation":
        spaces = []
        for n in levels:
            coords = np.concatenate(([0.0], 1.0 / np.arange(1, n + 1)))
            labels = ["x0"] + [f"p{k:0{width}d}" for k in range(1, n + 1)]
            spaces.append(FiniteMetricSpace.from_coords(coords.reshape(-1, 1), labels))
        return RefinementFamily(kind="accumulation", levels=tuple(levels),
                                spaces=tuple(spaces), anchor="x0")
    if kind == "pairs":
        pair_labels = tuple(
            (f"a{i:0{width}d}", f"b{i:0{width}d}") for i in range(1, top + 1)
        )
        spaces = []
        for n in levels:
            coords, labels = [], []
            for i in range(1, n + 1):
                coords.extend([2.0 * i, 2.0 * i + 1.0 / (i + 1)])
                labels.extend(pair_labels[i - 1])
            spaces.append(FiniteMetricSpace.from_coords(
                np.asarray(coords).reshape(-1, 1), labels))
        return RefinementFamily(kind="pairs", levels=tuple(levels),
                                spaces=tuple(spaces), pairs=pair_labels)
    raise InputError(f"unknown refinement kind {kind!r}")


# ---------------------------------------------------------------------------
# shrinking hats


def hat_family(space: FiniteMetricSpace, x0: str, depth: int) -> SequenceFamily:
    """Hats f_n = (1 - n*d(., x0))+ for n = 1..depth, with verified metadata.

    The returned family is declared (and checked) decreasing under the
    constant bound 1, each member's measured Lipschitz constant stays
    within n, and the declared pointwise limit is the exact indicator of
    the points at distance 0 from x0.
    """
    if depth < 1:
        raise InputError(f"hat depth must be >= 1, got {depth}")
    row = space.row(space.index(x0))
    carrier = Carrier.points(space)
    values = np.maximum(0.0, 1.0 - np.arange(1, depth + 1)[:, None] * row)
    slopes = max_slope(space, values) if space.n > 1 else []
    for n, (slope, pair) in enumerate(slopes, start=1):
        if slope > n + ENVELOPE_TOL:
            raise InternalInvariantError(f"hat {n} has slope {slope:.6g} > {n} across {pair}")
    indicator = LatticeElement(carrier, (row == 0.0).astype(np.float64))
    meta = FamilyMetadata(
        monotone_decreasing=True,
        common_bound=ones(carrier),
        limit=indicator,
        space_tag=SpaceTag.bounded_fns(),
        growth="bounded",
        notes=(f"hats shrinking around {x0!r}",),
    )
    return SequenceFamily(values=values, carrier=carrier, metadata=meta)


def running_meets(family: SequenceFamily) -> SequenceFamily:
    """Meet cascade h_n = f_1 ∧ ... ∧ f_n; identity on decreasing families.

    Canonicalizes a non-monotone chain of caps into a decreasing one so the
    monotone certificate route applies to it.
    """
    members = [family.member(1)]
    for n in range(2, family.horizon + 1):
        members.append(meet(members[-1], family.member(n)))
    meta = FamilyMetadata(
        monotone_decreasing=True,
        common_bound=family.metadata.common_bound,
        space_tag=family.metadata.space_tag,
        growth=family.metadata.growth,
        notes=family.metadata.notes + ("running meets of the source family",),
    )
    return SequenceFamily(members=members, metadata=meta)


@dataclass(frozen=True)
class HatScenario:
    """Hat families built at every level of one refinement."""

    refinement: RefinementFamily
    depth: int
    families: tuple

    def family_at(self, level: int) -> SequenceFamily:
        return self.families[self.refinement.levels.index(int(level))]


def hat_scenario(refinement: RefinementFamily, depth: int) -> HatScenario:
    if refinement.kind != "accumulation":
        raise InputError("hat scenarios need an accumulation refinement")
    fams = tuple(
        hat_family(space, refinement.anchor, depth) for space in refinement.spaces
    )
    return HatScenario(refinement=refinement, depth=depth, families=fams)


# ---------------------------------------------------------------------------
# the square-root envelope ladder


@dataclass(frozen=True)
class LipCounterexample:
    """g = sqrt(dist(., A)) ∧ 1 with its envelope ladder on the deepest level.

    ``blow_up[i]`` is the slope of g across (b[i], a'[i]) where a'[i] is the
    nearest A-point within 2*t[i]; it exceeds 1/(2*sqrt(t[i])) because g
    vanishes on A and reaches sqrt(t[i]) at b[i].  ``level_rows`` carry
    (level, scale, delta, lipschitz constant of that level's g) for trend
    fitting.
    """

    refinement: RefinementFamily
    a_labels: tuple
    b_labels: tuple
    t: tuple
    g: LatticeElement
    envelopes: tuple
    blow_up: tuple
    blow_up_pairs: tuple
    level_rows: tuple
    family: SequenceFamily = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(map(float, self.t)))
        object.__setattr__(self, "blow_up", tuple(map(float, self.blow_up)))
        if not self.a_labels:
            raise InputError("the target set A is empty")
        if len(self.b_labels) != len(self.t) or len(self.t) != len(self.blow_up):
            raise InputError("b labels, t values and blow-up ratios disagree in length")
        if not self.t:
            raise InputError("no approach points: every candidate sits at distance >= 1")
        t = np.array(self.t)
        if not ((t > 0.0) & (t < 1.0)).all():
            raise InputError("approach distances must lie in (0, 1)")
        if not (t[1:] < t[:-1]).all():
            raise InputError("approach distances must strictly decrease")
        space = self.refinement.spaces[-1]
        expected = np.minimum(np.sqrt(dist_to_set_all(space, self.a_labels)), 1.0)
        if not np.array_equal(self.g.values, expected):
            raise InputError("g disagrees with sqrt(dist(., A)) ∧ 1 on some point")
        floor = 1.0 / (2.0 * np.sqrt(t))
        low = np.flatnonzero(~(np.array(self.blow_up) > floor))
        if low.size:
            i = int(low[0])
            raise InputError(f"blow-up {i + 1} is {self.blow_up[i]:.6g}, not above "
                             f"1/(2*sqrt(t)) = {floor[i]:.6g}")
        for res in self.envelopes:
            if np.any(res.g_n.values > self.g.values):
                raise InputError(f"envelope n={res.n} exceeds g somewhere")


def lip_counterexample(refinement: RefinementFamily, n_max: int) -> LipCounterexample:
    """The non-Lipschitz square-root profile and its Lipschitz approximants.

    On the deepest refinement level: A is the anchor (accumulation kind) or
    the a-side of every pair; b runs over the approach points ordered by
    strictly decreasing positive distance t < 1 to A; g = sqrt(dist) ∧ 1.
    The returned record carries the verified blow-up ratios, the envelope
    ladder g_1..g_{n_max}, the per-level Lipschitz constants of g, and the
    ladder packaged as a family whose uniform difference norms certify the
    Buo-Cauchy property.
    """
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    space = refinement.spaces[-1]
    if refinement.kind == "accumulation":
        a_labels = (refinement.anchor,)
    else:
        top = refinement.levels[-1]
        a_labels = tuple(a for a, _ in refinement.pairs[:top])

    dist = dist_to_set_all(space, a_labels)
    b_labels, t = _approach_points(refinement, space, a_labels, dist)
    g = LatticeElement(Carrier.points(space), np.minimum(np.sqrt(dist), 1.0))

    a_idx = np.array([space.index(a) for a in a_labels], dtype=np.intp)
    b_idx = np.array([space.index(b) for b in b_labels], dtype=np.intp)
    t_arr = np.asarray(t)
    near_a = np.empty(b_idx.size, dtype=np.intp)  # position in A order
    near_d = np.empty(b_idx.size)
    for lo, hi in row_windows(b_idx.size, a_idx.size):
        to_a = space.distances(b_idx[lo:hi], a_idx)
        near = to_a < 2.0 * t_arr[lo:hi, None]
        lost = np.flatnonzero(~near.any(axis=1))
        if lost.size:
            k = lo + int(lost[0])
            raise InternalInvariantError(
                f"no A-point within 2t of {b_labels[k]!r} despite dist(b, A) = {t[k]:.6g}"
            )
        first = near.argmax(axis=1)  # the first A-point in A order within 2t
        near_a[lo:hi] = first
        near_d[lo:hi] = to_a[np.arange(first.size), first]
    blow_up = np.abs(g.values[b_idx] - g.values[a_idx[near_a]]) / near_d
    blow_pairs = [(b, a_labels[j]) for b, j in zip(b_labels, near_a)]

    rows = []
    for level, lv_space in zip(refinement.levels, refinement.spaces):
        if refinement.kind == "accumulation":
            lv_a = (refinement.anchor,)
        else:
            lv_a = tuple(a for a, _ in refinement.pairs[:level])
        lv_dist = dist_to_set_all(lv_space, lv_a)
        lv_g = np.minimum(np.sqrt(lv_dist), 1.0)
        slope, _ = max_slope(lv_space, lv_g)
        rows.append((level, refinement.scale(level), discreteness_constant(lv_space),
                     slope))

    envelopes = tuple(inf_convolution_ladder(g, list(range(1, n_max + 1))))
    ach = [res.achieved_error for res in envelopes]
    for n, (a, b) in enumerate(zip(ach, ach[1:]), start=1):
        if b > a:
            raise InternalInvariantError(
                f"envelope error grew from n={n} ({a:.6g}) to n={n + 1} ({b:.6g})"
            )

    stack = np.stack([res.g_n.values for res in envelopes])
    # the rungs increase pointwise, so the m-th uniform diameter is attained
    # by the outermost pair (m, n_max)
    eps = tuple(float(np.max(stack[-1] - stack[m])) for m in range(len(envelopes)))
    meta = FamilyMetadata(
        common_bound=ones(g.carrier),
        uniformly_cauchy_norms=eps,
        space_tag=SpaceTag.lip_b(),
        growth="bounded",
        notes=("square-root envelope ladder; uniform limit needs unbounded slope",),
    )
    family = SequenceFamily(values=stack, carrier=g.carrier, metadata=meta)

    return LipCounterexample(
        refinement=refinement, a_labels=tuple(a_labels), b_labels=tuple(b_labels),
        t=tuple(t), g=g, envelopes=envelopes, blow_up=tuple(blow_up),
        blow_up_pairs=tuple(blow_pairs), level_rows=tuple(rows), family=family,
    )


def _approach_points(refinement, space, a_labels, dist):
    if refinement.kind == "pairs":
        labs = [b for _, b in refinement.pairs[:refinement.levels[-1]]]
        return tuple(labs), tuple(float(dist[space.index(b)]) for b in labs)
    inside = (dist > 0.0) & (dist < 1.0)
    inside[[space.index(a) for a in a_labels]] = False
    if not inside.any():
        raise InputError("no approach points: every candidate sits at distance >= 1")
    # by label, then stably by distance down: ties stay in label order
    idx = np.array(sorted(np.flatnonzero(inside).tolist(), key=space.labels.__getitem__))
    idx = idx[np.argsort(-dist[idx], kind="stable")]
    idx = idx[np.r_[True, np.diff(dist[idx]) != 0.0]]  # strict decrease: first label per distance
    return tuple(map(space.labels.__getitem__, idx.tolist())), tuple(dist[idx].tolist())


# ---------------------------------------------------------------------------
# escape reports


@dataclass(frozen=True)
class EscapeRow:
    level: int
    scale: float
    delta: float
    value: float


@dataclass(frozen=True)
class EscapeReport:
    """Divergence trend of a generated scenario across refinement levels.

    ``scale_fit`` and ``delta_fit`` are (slope, intercept, max residual) of
    log(value) against log(scale) and log(delta); hats report the
    oscillation floor instead of a fit (their row values are flat).
    """

    kind: str
    tag: SpaceTag | None
    quantity: str
    rows: tuple
    scale_fit: tuple | None
    delta_fit: tuple | None
    statement: str


def verify_escape(obj, tag: SpaceTag | None = None) -> EscapeReport:
    """Render how (or whether) a scenario's limit escapes its function class.

    Hats: the limit indicator's oscillation at the refinement scale stays
    at 1 on every level, so no continuity modulus can vanish.  Envelope
    ladders: the Lipschitz constant of g fitted against the refinement
    scale grows like scale**(-1/2) (the fit against the pairwise
    discreteness constant is reported alongside).  A constant limit yields
    an explicit no-escape statement.
    """
    if isinstance(obj, SequenceFamily):
        limit = pointwise_limit(obj)
        if float(np.ptp(limit.values)) == 0.0:
            return EscapeReport(
                kind="constant", tag=tag, quantity="oscillation", rows=(),
                scale_fit=None, delta_fit=None,
                statement=(
                    "no escape: the pointwise limit is constant and belongs "
                    "to every supported tag"
                ),
            )
        raise InputError(
            "escape trends need a refinement scenario (hat_scenario or "
            "lip_counterexample), not a bare family"
        )
    if isinstance(obj, HatScenario):
        return _hat_escape(obj, tag)
    if isinstance(obj, LipCounterexample):
        return _lip_escape(obj, tag)
    raise InputError(f"cannot build an escape report from {type(obj).__name__}")


def _oscillation_within(space: FiniteMetricSpace, values: np.ndarray, t: float) -> float:
    """Largest |values(x) - values(y)| over pairs at distance <= t."""
    best = 0.0
    for lo, hi in space.block_rows():
        block = space.row_block(lo, hi)
        gaps = np.abs(values[lo:hi, None] - values[None, :])
        hits = gaps[block <= t]
        if hits.size:
            best = max(best, float(hits.max()))
    return best


def _require_levels(levels) -> None:
    if len(levels) < 3:
        raise InputError(
            f"{len(levels)} refinement levels cannot support a trend; need >= 3"
        )


def _hat_escape(scenario: HatScenario, tag: SpaceTag | None) -> EscapeReport:
    ref = scenario.refinement
    _require_levels(ref.levels)
    rows = []
    for level, space, fam in zip(ref.levels, ref.spaces, scenario.families):
        limit = pointwise_limit(fam)
        scale = ref.scale(level)
        osc = _oscillation_within(space, limit.values, scale)
        rows.append(EscapeRow(level=level, scale=scale,
                              delta=discreteness_constant(space), value=osc))
    floor = min(r.value for r in rows)
    if floor == 0.0:
        statement = (
            "no escape detected: the limit's oscillation vanishes at the "
            "refinement scale on some level"
        )
    else:
        statement = (
            f"the limit oscillates by at least {floor:g} at the refinement "
            f"scale on every one of {len(rows)} levels; its modulus of "
            "continuity has no decay to inherit"
        )
    return EscapeReport(kind="hats", tag=tag, quantity="oscillation at scale",
                        rows=tuple(rows), scale_fit=None, delta_fit=None,
                        statement=statement)


def _lip_escape(cex: LipCounterexample, tag: SpaceTag | None) -> EscapeReport:
    ref = cex.refinement
    _require_levels(ref.levels)
    rows = tuple(EscapeRow(level=lv, scale=sc, delta=dl, value=slope)
                 for lv, sc, dl, slope in cex.level_rows)
    scales = np.array([r.scale for r in rows])
    deltas = np.array([r.delta for r in rows])
    values = np.array([r.value for r in rows])
    s_slope, s_icept, s_res = loglog_fit(scales, values)
    d_slope, d_icept, d_res = loglog_fit(deltas, values)
    scale_fit = (float(s_slope), float(s_icept), float(np.abs(s_res).max()))
    delta_fit = (float(d_slope), float(d_icept), float(np.abs(d_res).max()))
    model = ("finite shrinking-pairs model; " if ref.kind == "pairs" else "")
    if scale_fit[0] > -0.05:
        statement = (
            f"{model}no divergence trend: the Lipschitz constant of g is flat "
            f"in the refinement scale (fitted exponent {scale_fit[0]:.3g})"
        )
    else:
        statement = (
            f"{model}the Lipschitz constant of g grows like "
            f"scale**({scale_fit[0]:.4f}) across {len(rows)} levels "
            f"(max log residual {scale_fit[2]:.2e}; against the pairwise "
            f"discreteness constant the exponent reads {delta_fit[0]:.4f}), "
            "so no single Lipschitz bound survives the refinement"
        )
    return EscapeReport(kind="envelope ladder", tag=tag,
                        quantity="lipschitz constant of g", rows=rows,
                        scale_fit=scale_fit, delta_fit=delta_fit,
                        statement=statement)
