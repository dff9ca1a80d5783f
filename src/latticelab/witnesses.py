"""Constructive witnesses that a difference family has no order bound.

Two extraction routines, both replayable from the stored record:

* big-jump chains: strictly increasing member indices n_1 < n_2 < ... and
  coordinates k_1 < k_2 < ... with |x_{n_{i+1}}(k_i) - x_{n_i}(k_i)| > eps
  at every step.  Any dominator of the consecutive differences must exceed
  eps at every k_i, which no c0 element can do along an unbounded chain.
* disjoint blocks: intervals I_1 < I_2 < ... on which consecutive member
  differences keep p-norm above 1.  Disjoint supports add in p-th power,
  so any dominator's p-norm grows like count**(1/p).  One greedy loop
  extracts the blocks from two mass sources: the closed-form truncation
  model, or an explicit family's stored prefix plus declared tails.
  Replay re-runs the same source's masses on the stored boundaries.

Selection is greedy with smallest-index tie-breaking throughout, so a
record is a pure function of (family, parameters) and golden files stay
byte-stable.  Extraction is sequential by nature (each step conditions on
the previous one); re-verification of a finished record is embarrassingly
parallel and runs as vectorized array comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CheckConfig, DEFAULT_CONSTANTS, ProofConstants
from .convergence import SequenceFamily, pointwise_limit
from .core import LatticeElement, SpaceTag, Tail, member_of, tail_abs, tail_sub
from .errors import (
    DominatingConditionError,
    HorizonExhaustedError,
    InputError,
    InternalInvariantError,
    LimitInSpaceRefusal,
    UndecidableTailError,
)
from .numerics import COORDINATE_CAP, power_sum

__all__ = [
    "JumpWitness",
    "BlockWitness",
    "RefutationCertificate",
    "extract_big_jump_witness",
    "extract_lp_block_witness",
    "refute_order_boundedness",
    "verify_jump_witness",
    "verify_block_witness",
]


# ---------------------------------------------------------------------------
# records


def _strictly_increasing(seq) -> bool:
    return all(b > a for a, b in zip(seq, seq[1:]))


@dataclass(frozen=True)
class JumpWitness:
    """A chain of member pairs with a guaranteed coordinate jump each.

    ``coordinates[i]`` carries the jump between ``indices[i]`` and
    ``indices[i+1]``; the pairing needs no realignment because each
    coordinate is selected at the member index it is later paired with.
    ``index_shift`` stays 0 for records produced here; a non-zero value
    flags a record whose arrays were realigned after selection, and such a
    record is refused.
    """

    eps: float
    factor: float
    indices: tuple
    coordinates: tuple
    jumps: tuple
    values_before: tuple
    values_after: tuple
    horizon: int
    index_shift: int = 0
    caveat: str = ""

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(n) for n in self.indices))
        object.__setattr__(self, "coordinates", tuple(int(k) for k in self.coordinates))
        for name in ("jumps", "values_before", "values_after"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        _check_jump_record(self)

    @property
    def count(self) -> int:
        return len(self.coordinates)

    def pairs(self):
        """(n_i, n_{i+1}, k_i) triples in extraction order."""
        return tuple(
            (self.indices[i], self.indices[i + 1], self.coordinates[i])
            for i in range(self.count)
        )


def _check_jump_record(w: JumpWitness) -> None:
    if not (w.eps > 0 and math.isfinite(w.eps)):
        raise InputError(f"jump witness needs eps > 0, got {w.eps}")
    if not w.factor > 2.0:
        raise InputError(f"jump witness needs factor > 2, got {w.factor}")
    if len(w.coordinates) < 1:
        raise InputError("jump witness holds no pairs")
    if len(w.indices) != len(w.coordinates) + 1:
        raise InputError(
            f"{len(w.indices)} member indices cannot pair {len(w.coordinates)} coordinates"
        )
    if len(w.jumps) != len(w.coordinates) or len(w.values_before) != len(w.coordinates) \
            or len(w.values_after) != len(w.coordinates):
        raise InputError("jump/value arrays disagree with the coordinate count")
    if w.indices[0] < 1 or not _strictly_increasing(w.indices):
        raise InputError("member indices must be strictly increasing and >= 1")
    if w.coordinates[0] < 1 or not _strictly_increasing(w.coordinates):
        raise InputError("coordinates must be strictly increasing and >= 1")
    if w.index_shift != 0:
        raise InputError(f"index_shift {w.index_shift} marks a realigned record")
    if w.horizon < w.indices[-1]:
        raise InputError("witness horizon cannot precede its last member index")
    big = w.factor * w.eps
    for i in range(len(w.coordinates)):
        if w.jumps[i] != abs(w.values_after[i] - w.values_before[i]):
            raise InputError(f"stored jump {i + 1} disagrees with its endpoint values")
        if not w.jumps[i] > w.eps:
            raise InputError(f"jump {i + 1} is {w.jumps[i]:.6g}, not above eps={w.eps:.6g}")
        if not abs(w.values_before[i]) < w.eps:
            raise InputError(f"pre-jump value {i + 1} is not below eps")
        if not abs(w.values_after[i]) > big:
            raise InputError(f"post-jump value {i + 1} is not above {w.factor:g}*eps")


@dataclass(frozen=True)
class BlockWitness:
    """Disjoint intervals on which consecutive differences keep p-norm > 1.

    ``blocks[i] = (k_i, l_i)`` is half-open; ``norms[i]`` is the p-norm of
    (x_{indices[i+1]} - x_{indices[i]}) restricted to it.  The three norm
    arrays record the selection inequalities so the record replays without
    re-running the searches.
    """

    p: float
    indices: tuple
    blocks: tuple
    norms: tuple
    tail_norms: tuple
    limit_norms: tuple
    approx_norms: tuple
    tail_budget: float
    block_mass: float
    horizon: int
    caveat: str = ""

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(n) for n in self.indices))
        object.__setattr__(self, "blocks",
                           tuple((int(a), int(b)) for a, b in self.blocks))
        for name in ("norms", "tail_norms", "limit_norms", "approx_norms"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        _check_block_record(self)

    @property
    def count(self) -> int:
        return len(self.blocks)


def _check_block_record(w: BlockWitness) -> None:
    if not (1.0 <= w.p < math.inf):
        raise InputError(f"block witness needs 1 <= p < inf, got {w.p}")
    if len(w.blocks) < 1:
        raise InputError("block witness holds no blocks")
    if len(w.indices) != len(w.blocks) + 1:
        raise InputError(
            f"{len(w.indices)} member indices cannot frame {len(w.blocks)} blocks"
        )
    for name in ("norms", "tail_norms", "limit_norms", "approx_norms"):
        if len(getattr(w, name)) != len(w.blocks):
            raise InputError(f"{name} disagrees with the block count")
    if w.indices[0] < 1 or not _strictly_increasing(w.indices):
        raise InputError("member indices must be strictly increasing and >= 1")
    if w.horizon < w.indices[-1]:
        raise InputError("witness horizon cannot precede its last member index")
    if not w.block_mass - 2.0 * w.tail_budget > 1.0:
        raise InputError(
            "witness constants break the block arithmetic: need "
            f"mass - 2*budget > 1, got {w.block_mass:g} - 2*{w.tail_budget:g}"
        )
    prev_end = 0
    for i, (k, end) in enumerate(w.blocks):
        if k < 1 or end <= k:
            raise InputError(f"block {i + 1} = [{k}, {end}) is empty or negative")
        if k < prev_end:
            raise InputError(f"block {i + 1} overlaps block {i}")
        prev_end = end
        if not w.norms[i] > 1.0:
            raise InputError(f"block {i + 1} difference norm {w.norms[i]:.6g} is not > 1")
        if not w.tail_norms[i] < w.tail_budget:
            raise InputError(f"member tail norm {i + 1} is not below the budget")
        if not w.limit_norms[i] > w.block_mass:
            raise InputError(f"limit norm on block {i + 1} is not above the mass bound")
        if not w.approx_norms[i] < w.tail_budget:
            raise InputError(f"approximation norm {i + 1} is not below the budget")


@dataclass(frozen=True)
class RefutationCertificate:
    """Quantitative lower bound any order bound of the differences must obey."""

    kind: str  # "big_jump" | "disjoint_blocks"
    tag: SpaceTag
    count: int
    lower_bounds: tuple
    coordinates: tuple | None = None
    blocks: tuple | None = None
    eps: float | None = None
    p: float | None = None
    norm_lower_bound: float | None = None
    statement: str = ""


# ---------------------------------------------------------------------------
# big-jump extraction


def extract_big_jump_witness(family: SequenceFamily, coordinates, eps: float,
                             count: int, constants: ProofConstants | None = None
                             ) -> JumpWitness:
    """Greedy chain of big coordinate jumps inside the target set.

    At the current member index n the next coordinate is the smallest
    unused k in the target set whose values stayed below eps through member
    n but exceed factor*eps at some later member; the next index is the
    first such member.  The jump then beats (factor - 1)*eps > eps.
    """
    cons = constants or DEFAULT_CONSTANTS
    if not (eps > 0 and math.isfinite(eps)):
        raise InputError(f"eps must be positive and finite, got {eps}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    if not family.carrier.is_index_set:
        raise InputError("jump extraction needs a sequence (index-set) family")
    coords = sorted(set(int(k) for k in coordinates))
    if not coords:
        raise InputError("the target coordinate set is empty")
    size = family.carrier.size
    if coords[0] < 1 or coords[-1] > size:
        bad = coords[0] if coords[0] < 1 else coords[-1]
        raise InputError(f"coordinate {bad} is outside the carrier 1..{size}")

    horizon = family.horizon
    stacked = family.stacked(horizon)
    cols = np.asarray(coords, dtype=np.intp) - 1
    mags = np.abs(stacked[:, cols])
    prefix_max = np.maximum.accumulate(mags, axis=0)
    suffix_max = np.maximum.accumulate(mags[::-1], axis=0)[::-1]
    big = cons.eps_factor * eps

    usable = [coords[j] for j in range(len(coords)) if prefix_max[-1, j] > big]
    if not usable:
        raise DominatingConditionError(
            f"sup|x_n(k)| over members 1..{horizon} stays <= {big:.6g} on every "
            "target coordinate; the large-value hypothesis fails"
        )

    col_of = {k: j for j, k in enumerate(coords)}
    indices = [1]
    picked, jumps, before, after = [], [], [], []
    k_prev = 0
    while len(picked) < count:
        n_cur = indices[-1]
        chosen = None
        if n_cur < horizon:
            for k in coords:
                if k <= k_prev:
                    continue
                j = col_of[k]
                # k is untouched through member n_cur but lights up later
                if prefix_max[n_cur - 1, j] < eps and suffix_max[n_cur, j] > big:
                    chosen = k
                    break
        if chosen is None:
            raise HorizonExhaustedError(
                f"extracted {len(picked)} of {count} jump pairs before member "
                f"horizon {horizon} ran out of fresh coordinates; coordinates "
                f"with sup above {big:.6g}: {usable}",
                found=len(picked), usable=usable,
            )
        j = col_of[chosen]
        n_next = n_cur + 1 + int(np.argmax(mags[n_cur:, j] > big))
        v0 = float(stacked[n_cur - 1, j])
        v1 = float(stacked[n_next - 1, j])
        jump = abs(v1 - v0)
        if not jump > eps:
            raise InternalInvariantError(
                f"selected pair ({n_cur}, {n_next}) at k={chosen} jumps by "
                f"{jump:.6g}, not above eps={eps:.6g}"
            )
        indices.append(n_next)
        picked.append(chosen)
        jumps.append(jump)
        before.append(v0)
        after.append(v1)
        k_prev = chosen

    return JumpWitness(
        eps=float(eps), factor=cons.eps_factor,
        indices=tuple(indices), coordinates=tuple(picked),
        jumps=tuple(jumps), values_before=tuple(before), values_after=tuple(after),
        horizon=horizon,
        caveat=(
            "the large-value condition quantifies over all later members; "
            f"it was evaluated over n < m <= {horizon} only"
        ),
    )


def verify_jump_witness(witness: JumpWitness, family: SequenceFamily) -> bool:
    """Replay every stored inequality against the raw member values.

    Checks, per pair: the endpoint values match the family exactly, the
    coordinate stayed below eps through the earlier member, and the later
    member exceeds factor*eps.  All pairs are checked in one vectorized
    pass; the first mismatch is reported.
    """
    _check_jump_record(witness)
    if not family.carrier.is_index_set:
        raise InputError("jump witnesses replay against sequence families only")
    size = family.carrier.size
    if witness.coordinates[-1] > size:
        raise InputError(
            f"witness coordinate {witness.coordinates[-1]} is outside the carrier 1..{size}"
        )
    if witness.horizon > family.horizon:
        raise InputError(
            f"witness was extracted at horizon {witness.horizon}, beyond the "
            f"family's {family.horizon}"
        )
    stacked = family.stacked(witness.horizon)
    mags = np.abs(stacked)
    cols = np.asarray(witness.coordinates, dtype=np.intp) - 1
    lo = np.asarray(witness.indices[:-1], dtype=np.intp)
    hi = np.asarray(witness.indices[1:], dtype=np.intp)
    v0 = stacked[lo - 1, cols]
    v1 = stacked[hi - 1, cols]
    prefix = np.maximum.accumulate(mags, axis=0)
    quiet = prefix[lo - 1, cols]
    big = witness.factor * witness.eps
    for i in range(witness.count):
        if v0[i] != witness.values_before[i] or v1[i] != witness.values_after[i]:
            raise InternalInvariantError(
                f"pair {i + 1} endpoint values differ from the family data"
            )
        if not quiet[i] < witness.eps:
            raise InternalInvariantError(
                f"coordinate k={witness.coordinates[i]} was not below eps "
                f"through member {witness.indices[i]}"
            )
        if not abs(v1[i]) > big:
            raise InternalInvariantError(
                f"member {witness.indices[i + 1]} does not exceed "
                f"{witness.factor:g}*eps at k={witness.coordinates[i]}"
            )
    return True


# ---------------------------------------------------------------------------
# disjoint-block extraction


def _least(lo: int, hi: int, pred) -> int | None:
    """Smallest t in [lo, hi] with pred(t), assuming pred is monotone."""
    if lo > hi or not pred(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _tail_partial_mass(tail: Tail, p: float, start: int, stop) -> float:
    """Sum of |tail(j)|**p over start <= j < stop (stop may be inf)."""
    if stop <= start:
        return 0.0
    if tail.kind == "zero":
        return 0.0
    if tail.kind == "constant":
        if math.isinf(stop):
            return math.inf
        return (stop - start) * abs(tail.value) ** p
    if tail.kind == "power":
        return abs(tail.scale) ** p * power_sum(tail.exponent * p, start, stop)
    raise UndecidableTailError("a block reaches past the prefix of an undeclared tail")


def _element_mass(x: LatticeElement, p: float):
    """mass(a, b) = sum of |x(j)|**p over a <= j < b, prefix + tail."""
    first = x.first_tail_index
    cum = np.concatenate(([0.0], np.cumsum(np.abs(x.values) ** p)))

    def mass(a: int, b) -> float:
        a = max(int(a), 1)
        if b <= a:
            return 0.0
        total = 0.0
        eb = min(b, first)
        if eb > a:
            total += float(cum[eb - 1] - cum[a - 1])
        ta = max(a, first)
        if b > ta:
            total += _tail_partial_mass(x.tail, p, ta, b)
        return total

    return mass


def _diff_mass(a: LatticeElement, b: LatticeElement, p: float):
    diff = LatticeElement(a.carrier, a.values - b.values,
                          tail_abs(tail_sub(a.tail, b.tail)))
    return _element_mass(diff, p)


class _ModelMasses:
    """Block p-masses of a truncation family from its closed-form model.

    Member n is the limit cut off past coordinate n, so every mass is a
    model mass over a window clipped to the member's support.
    """

    caveat = ("norms come from the family's closed-form model; blocks may reach "
              "far past the stored prefix, where per-coordinate data is never "
              "materialized")

    def __init__(self, model, p: float):
        self.model, self.p = model, p

    def k_bracket(self, n: int, lo: int) -> int:
        # past its support member n has no mass at all
        return max(lo, n + 1)

    def suffix(self, n: int, k: int) -> float:
        return self.model.mass(self.p, k, n + 1)

    def limit(self, k: int, end: int) -> float:
        return self.model.mass(self.p, k, end)

    def approx(self, n: int, k: int, end: int) -> float:
        return self.model.mass(self.p, max(k, n + 1), end)

    def diff(self, lo: int, hi: int, k: int, end: int) -> float:
        return self.model.mass(self.p, max(k, lo + 1), min(end, hi + 1))

    def first_approx(self, lo: int, hi: int, k: int, end: int, budget: float):
        # the limit mass left past a member's support shrinks as n grows
        return _least(lo, hi, lambda t: self.approx(t, k, end) < budget)


class _ExplicitMasses:
    """Block p-masses of an explicit family: stored prefix plus declared tails."""

    caveat = "norms combine stored prefix values with declared tail closed forms"

    def __init__(self, family: SequenceFamily, limit: LatticeElement, p: float):
        self.family, self.limit_element, self.p = family, limit, p
        self.limit_mass = _element_mass(limit, p)
        self._member_mass = {}

    def _mass_of(self, n: int):
        got = self._member_mass.get(n)
        if got is None:
            got = self._member_mass[n] = _element_mass(self.family.member(n), self.p)
        return got

    def k_bracket(self, n: int, lo: int) -> int:
        if not self._mass_of(n)(1, math.inf) < math.inf:
            raise InputError(
                f"member {n} has infinite lp(p={self.p:g}) mass; the family is "
                "not inside the target space"
            )
        return max(lo, self.family.carrier.size + 1)

    def suffix(self, n: int, k: int) -> float:
        return self._mass_of(n)(k, math.inf)

    def limit(self, k: int, end: int) -> float:
        return self.limit_mass(k, end)

    def approx(self, n: int, k: int, end: int) -> float:
        return _diff_mass(self.family.member(n), self.limit_element, self.p)(k, end)

    def diff(self, lo: int, hi: int, k: int, end: int) -> float:
        return _diff_mass(self.family.member(hi), self.family.member(lo), self.p)(k, end)

    def first_approx(self, lo: int, hi: int, k: int, end: int, budget: float):
        # stored members need not approach the limit monotonically: scan
        return next((n for n in range(lo, hi + 1) if self.approx(n, k, end) < budget),
                    None)


def _masses(family: SequenceFamily, limit: LatticeElement, p: float):
    if family.model is not None:
        return _ModelMasses(family.model, p)
    return _ExplicitMasses(family, limit, p)


def _block_norms(masses, n_lo: int, n_hi: int, k: int, end: int) -> tuple:
    """(tail, limit, approximation, difference) p-norms of block [k, end)
    framed by members n_lo < n_hi; extraction and replay both read these."""
    root = 1.0 / masses.p
    return (masses.suffix(n_lo, k) ** root, masses.limit(k, end) ** root,
            masses.approx(n_hi, k, end) ** root, masses.diff(n_lo, n_hi, k, end) ** root)


def extract_lp_block_witness(family: SequenceFamily, p: float, count: int,
                             constants: ProofConstants | None = None,
                             config: CheckConfig | None = None) -> BlockWitness:
    """Disjoint blocks where consecutive differences keep p-norm above 1.

    Per block: start past the current member's p-mass (tail norm below the
    budget), extend until the pointwise limit's p-mass on the block beats
    the mass bound (possible exactly because the limit is outside l_p),
    then advance to the first member approximating the limit on the block
    within the budget.  The triangle inequality leaves the difference with
    norm above mass - 2*budget > 1.
    """
    cons = constants or DEFAULT_CONSTANTS
    cfg = config or CheckConfig()
    if not (1.0 <= p < math.inf):
        raise InputError(f"block extraction needs 1 <= p < inf, got {p}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    if not family.carrier.is_index_set:
        raise InputError("block extraction needs a sequence (index-set) family")

    limit = pointwise_limit(family, cfg)
    verdict = member_of(limit, SpaceTag.lp(p))
    if verdict:
        raise LimitInSpaceRefusal(
            f"the pointwise limit lies in lp(p={p:g}) ({verdict.reason}); "
            "no block witness exists"
        )

    masses = _masses(family, limit, p)
    budget_mass = cons.tail_budget ** p
    need_mass = cons.block_mass ** p
    horizon = family.horizon
    n_cur = 1
    indices = [1]
    blocks, rows = [], []

    for i in range(1, count + 1):
        lo = blocks[-1][1] + 1 if blocks else 1
        # the member's suffix mass shrinks to 0 in k, so the search bracket
        # doubles until the predicate flips
        hi = masses.k_bracket(n_cur, lo)
        while masses.suffix(n_cur, hi) >= budget_mass:
            hi *= 2
        k = _least(lo, hi, lambda t: masses.suffix(n_cur, t) < budget_mass)

        hi = k + 1
        while masses.limit(k, hi) <= need_mass:
            if hi >= COORDINATE_CAP:
                raise HorizonExhaustedError(
                    f"block {i} starting at {k} would end beyond the coordinate "
                    f"cap {COORDINATE_CAP}",
                    found=i - 1, usable=(),
                )
            hi = min(hi * 2, COORDINATE_CAP)
        end = _least(k + 1, hi, lambda t: masses.limit(k, t) > need_mass)

        n_next = masses.first_approx(n_cur + 1, horizon, k, end, budget_mass)
        if n_next is None:
            raise HorizonExhaustedError(
                f"no member past {n_cur} within horizon {horizon} approximates "
                f"the limit on block {i} = [{k}, {end})",
                found=i - 1, usable=(),
            )
        row = _block_norms(masses, n_cur, n_next, k, end)
        if not row[3] > 1.0:
            raise InternalInvariantError(
                f"block {i} difference norm {row[3]:.6g} failed the > 1 estimate"
            )
        indices.append(n_next)
        blocks.append((k, end))
        rows.append(row)
        n_cur = n_next

    tail_norms, limit_norms, approx_norms, norms = zip(*rows)
    return BlockWitness(
        p=float(p), indices=tuple(indices), blocks=tuple(blocks),
        norms=norms, tail_norms=tail_norms,
        limit_norms=limit_norms, approx_norms=approx_norms,
        tail_budget=cons.tail_budget, block_mass=cons.block_mass,
        horizon=horizon, caveat=masses.caveat,
    )


def verify_block_witness(witness: BlockWitness, family: SequenceFamily) -> bool:
    """Recompute every stored norm from the family and compare exactly.

    The same mass routines that extracted the witness re-run on the stored
    boundaries, so a faithful record reproduces its numbers bit-for-bit.
    """
    _check_block_record(witness)
    if witness.horizon > family.horizon:
        raise InputError(
            f"witness was extracted at horizon {witness.horizon}, beyond the "
            f"family's {family.horizon}"
        )
    masses = _masses(family, pointwise_limit(family), witness.p)
    for i, (k, end) in enumerate(witness.blocks):
        got = _block_norms(masses, witness.indices[i], witness.indices[i + 1], k, end)
        want = (witness.tail_norms[i], witness.limit_norms[i],
                witness.approx_norms[i], witness.norms[i])
        if got != want:
            raise InternalInvariantError(
                f"block {i + 1} norms {got} differ from the stored {want}"
            )
    return True


# ---------------------------------------------------------------------------
# refutation


def refute_order_boundedness(witness, tag: SpaceTag) -> RefutationCertificate:
    """Turn a witness into the explicit bound any dominator must violate.

    Big-jump chains refute order boundedness in c0: a dominator would have
    to exceed eps at every chain coordinate, and the chain extends as far
    as extraction was asked to run.  Disjoint blocks refute it in lp: block
    norms add in p-th power across disjoint supports, so a dominator's
    p-norm exceeds count**(1/p).
    """
    if isinstance(witness, JumpWitness):
        if tag.kind != "c0":
            raise InputError(
                f"big-jump refutations apply to the c0 tag, not {tag.describe()}"
            )
        _check_jump_record(witness)
        ks = witness.coordinates
        return RefutationCertificate(
            kind="big_jump", tag=tag, count=witness.count,
            lower_bounds=witness.jumps, coordinates=ks, eps=witness.eps,
            statement=(
                f"every order bound z of the consecutive differences obeys "
                f"z(k) >= |jump| > {witness.eps:.6g} at the {witness.count} "
                f"coordinates {ks[0]}..{ks[-1]}; a c0 element exceeds "
                f"{witness.eps:.6g} at only finitely many coordinates, so an "
                "extended chain escapes any single dominator"
            ),
        )
    if isinstance(witness, BlockWitness):
        if tag.kind != "lp" or tag.p != witness.p:
            raise InputError(
                f"this block witness refutes order boundedness in lp(p={witness.p:g}), "
                f"not {tag.describe()}"
            )
        _check_block_record(witness)
        bound = witness.count ** (1.0 / witness.p)
        return RefutationCertificate(
            kind="disjoint_blocks", tag=tag, count=witness.count,
            lower_bounds=witness.norms, blocks=witness.blocks, p=witness.p,
            norm_lower_bound=bound,
            statement=(
                f"every order bound z of the consecutive differences keeps "
                f"p-norm above 1 on each of the {witness.count} disjoint blocks, "
                f"so ||z||_p > {witness.count}**(1/{witness.p:g}) = {bound:.6g}; "
                "the bound grows without limit as blocks accumulate"
            ),
        )
    raise InputError(f"cannot refute from a {type(witness).__name__}")
