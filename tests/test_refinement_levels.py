"""Refinement levels read from the deepest level agree with levels built one
by one.

The per-level path is kept here as the oracle: each level built from its own
coordinates, nesting compared by distances on up to NESTED_CHECK_LIMIT shared
labels, one hat family built per level, each escape row read from that
level's own family over the full-row tiles, and the pair separation checked
on the first NESTED_CHECK_LIMIT // 2 pairs through a distance matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab.convergence import FamilyMetadata, SequenceFamily, pointwise_limit
from latticelab.core import Carrier, ones
from latticelab.counterexamples import (
    NESTED_CHECK_LIMIT,
    HatScenario,
    RefinementFamily,
    _check_nesting,
    build_refinement,
    hat_family,
    hat_scenario,
    verify_escape,
)
from latticelab.errors import InputError
from latticelab.metric import FiniteMetricSpace, discreteness_constant

# ---------------------------------------------------------------------------
# the per-level path


def per_level_spaces(kind, levels):
    """Every level from its own coordinates, as each level was built alone."""
    levels = sorted(set(levels))
    width = max(2, len(str(levels[-1])))
    spaces = []
    for n in levels:
        if kind == "accumulation":
            coords = np.concatenate(([0.0], 1.0 / np.arange(1, n + 1)))
            labels = ["x0"] + [f"p{k:0{width}d}" for k in range(1, n + 1)]
        else:
            coords, labels = [], []
            for i in range(1, n + 1):
                coords.extend([2.0 * i, 2.0 * i + 1.0 / (i + 1)])
                labels.extend([f"a{i:0{width}d}", f"b{i:0{width}d}"])
        spaces.append(FiniteMetricSpace.from_coords(np.reshape(coords, (-1, 1)), labels))
    return tuple(spaces)


def per_level_nesting(spaces):
    for small, large in zip(spaces, spaces[1:]):
        missing = set(small.labels) - set(large.labels)
        if missing:
            raise InputError(f"labels {sorted(missing)[:3]} vanish between refinement levels")
        labels = small.labels
        if len(labels) > NESTED_CHECK_LIMIT:
            half = NESTED_CHECK_LIMIT // 2
            labels = labels[:half] + labels[-half:]
        if not np.array_equal(small.subspace(labels).matrix, large.subspace(labels).matrix):
            raise InputError("refinement levels disagree on shared distances")


def tile_oscillation(space, values, t):
    best = 0.0
    for lo, hi in space.block_rows():
        gaps = np.abs(values[lo:hi, None] - values[None, :])
        hits = gaps[space.row_block(lo, hi) <= t]
        if hits.size:
            best = max(best, float(hits.max()))
    return best


def per_level_rows(ref, families):
    rows = []
    for level, space, fam in zip(ref.levels, ref.spaces, families):
        scale = ref.scale(level)
        osc = tile_oscillation(space, pointwise_limit(fam).values, scale)
        rows.append((level, scale, discreteness_constant(space), osc))
    return rows


def per_level_pair_separation(space, pairs):
    labels = [lab for pair in pairs[:NESTED_CHECK_LIMIT // 2] for lab in pair]
    owner = np.arange(len(labels)) // 2
    m = space.subspace(labels).matrix
    return float(m[owner[:, None] != owner[None, :]].min())


def verdict(check):
    try:
        check()
    except InputError as err:
        return str(err)
    return "ok"


def rows_of(scenario):
    return [(r.level, r.scale, r.delta, r.value) for r in verify_escape(scenario).rows]


def same_family(a, b):
    assert a.carrier.space.labels == b.carrier.space.labels
    assert a.horizon == b.horizon
    np.testing.assert_array_equal(a.stacked(a.horizon), b.stacked(b.horizon))
    np.testing.assert_array_equal(a.metadata.limit.values, b.metadata.limit.values)
    assert a.metadata.notes == b.metadata.notes


def line(coords, labels):
    return FiniteMetricSpace.from_coords(np.reshape(coords, (-1, 1)), labels)


def as_matrix(space):
    return FiniteMetricSpace.from_matrix(space.row_block(0, space.n), space.labels,
                                         validate=False)


# ---------------------------------------------------------------------------
# built-in refinements


level_sets = st.lists(st.integers(min_value=2, max_value=700), min_size=1, max_size=5,
                      unique=True)


@settings(max_examples=25)
@given(st.sampled_from(["accumulation", "pairs"]), level_sets)
def test_built_levels_are_the_levels_built_one_by_one(kind, levels):
    ref = build_refinement(kind, levels)
    alone = per_level_spaces(kind, levels)
    for space, other in zip(ref.spaces, alone):
        assert space.labels == other.labels
        assert space.coords.tobytes() == other.coords.tobytes()
    assert per_level_nesting(alone) is None
    assert all(ref._leading)  # every level is the deepest space's leading points
    rebuilt = RefinementFamily(kind=ref.kind, levels=ref.levels, spaces=alone,
                               anchor=ref.anchor, pairs=ref.pairs)
    assert all(rebuilt._leading)
    assert [ref.scale(v) for v in ref.levels] == [rebuilt.scale(v) for v in ref.levels]


@settings(max_examples=25)
@given(st.lists(st.integers(min_value=2, max_value=150), min_size=3, max_size=6, unique=True),
       st.integers(min_value=1, max_value=12))
def test_hat_scenarios_read_from_the_deepest_level_match_each_level(levels, depth):
    scenario = hat_scenario(build_refinement("accumulation", levels), depth)
    ref = scenario.refinement
    families = [hat_family(space, "x0", depth) for space in per_level_spaces("accumulation",
                                                                             levels)]
    assert rows_of(scenario) == per_level_rows(ref, families)
    built = [fam is not None for fam in scenario._families]
    assert built == [False] * (len(levels) - 1) + [True]  # the escape built no other family
    for level, fam in zip(ref.levels, families):
        same_family(scenario.family_at(level), fam)
    for got, fam in zip(scenario.families, families):
        same_family(got, fam)


def test_a_scenario_builds_a_level_family_when_it_is_read():
    scenario = hat_scenario(build_refinement("accumulation", [3, 5, 9]), 4)
    def built():
        return [fam is not None for fam in scenario._families]

    assert built() == [False, False, True]
    fam = scenario.family_at(5)
    assert built() == [False, True, True]
    assert scenario.family_at(5) is fam
    assert len(scenario.families) == 3 and built() == [True, True, True]


def test_given_families_keep_their_own_escape_rows():
    ref = build_refinement("accumulation", [3, 5, 9, 14])
    hats = tuple(hat_family(space, "x0", 3) for space in ref.spaces)
    one = tuple(SequenceFamily(members=[ones(Carrier.points(s))] * 2, metadata=FamilyMetadata(
        monotone_decreasing=True, common_bound=ones(Carrier.points(s)),
        limit=ones(Carrier.points(s)))) for s in ref.spaces)
    mixed = hats[:2] + one[2:]  # the deepest family's limit is not the others'
    for families in (hats, one, mixed):
        scenario = HatScenario(refinement=ref, depth=3, families=families)
        assert scenario.families == families
        assert rows_of(scenario) == per_level_rows(ref, families)
    assert [r[3] for r in per_level_rows(ref, mixed)] == [1.0, 1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# custom refinements


def dyadic(n):
    """{0} ∪ {2**-k : k < n}: every coordinate and distance is exact, so a
    level moved by a whole number keeps its distances bit for bit."""
    return (np.concatenate(([0.0], 2.0 ** -np.arange(n))),
            ["x0"] + [f"d{k:03d}" for k in range(n)])


def accumulation(n):
    return np.concatenate(([0.0], 1.0 / np.arange(1, n + 1))), ["x0"] + [
        f"p{k:04d}" for k in range(1, n + 1)]


def moved(coords, k, by):
    coords = coords.copy()
    coords[k] += by
    return coords


def custom_refinements():
    out = {}
    c, lab = dyadic(12)
    out["dyadic, as built"] = [line(c[:5], lab[:5]), line(c[:9], lab[:9]), line(c, lab)]
    out["dyadic, a translated level"] = [line(c[:5], lab[:5]), line(c[:9] + 1.0, lab[:9]),
                                         line(c, lab)]
    out["dyadic, a translated level with the anchor last"] = [
        line(c[:5], lab[:5]), line(np.roll(c[:9], -1) + 1.0, lab[1:9] + lab[:1]), line(c, lab)]
    c, lab = accumulation(40)
    out["a translated level"] = [line(c[:5], lab[:5]), line(c[:20] + 1.0, lab[:20]),
                                 line(c, lab)]
    out["a moved point"] = [line(c[:5], lab[:5]), line(moved(c[:20], 7, 1e-9), lab[:20]),
                            line(c, lab)]
    out["a matrix-backed level"] = [line(c[:5], lab[:5]), as_matrix(line(c[:20], lab[:20])),
                                    line(c, lab)]
    out["a matrix-backed deepest level"] = [line(c[:5], lab[:5]), line(c[:20], lab[:20]),
                                            as_matrix(line(c, lab))]
    out["a level in reverse order"] = [line(c[:5], lab[:5]), line(c[:20][::-1], lab[:20][::-1]),
                                       line(c, lab)]
    out["a vanished label"] = [line(c[:5], lab[:5]), line(c[1:20], lab[1:20]), line(c, lab)]
    out["a level above the next"] = [line(c[:20], lab[:20]), line(c[:5], lab[:5]), line(c, lab)]
    # past NESTED_CHECK_LIMIT the distances are compared on the first and
    # last labels only: a point moved in the middle goes unseen, as before
    c, lab = accumulation(900)
    out["a point moved past the sample"] = [line(c[:300], lab[:300]),
                                            line(moved(c[:700], 400, 1e-9), lab[:700]),
                                            line(c, lab)]
    out["a point moved inside the sample"] = [line(c[:300], lab[:300]),
                                              line(moved(c[:700], 600, 1e-9), lab[:700]),
                                              line(c, lab)]
    return out


CUSTOM = custom_refinements()


@pytest.mark.parametrize("name", CUSTOM)
def test_custom_refinements_keep_their_nesting_verdicts_and_rows(name):
    spaces = CUSTOM[name]
    expected = verdict(lambda: per_level_nesting(spaces))
    assert verdict(lambda: _check_nesting(spaces)) == expected
    if expected != "ok":
        return
    ref = RefinementFamily(kind="accumulation", levels=tuple(range(2, 2 + len(spaces))),
                           spaces=spaces, anchor="x0")
    families = [hat_family(space, "x0", 5) for space in spaces]
    scenario = hat_scenario(ref, 5)
    assert rows_of(scenario) == per_level_rows(ref, families)
    for got, fam in zip(scenario.families, families):
        same_family(got, fam)


def test_custom_verdicts_cover_both_outcomes_and_both_routes():
    verdicts = {name: verdict(lambda s=s: _check_nesting(s)) for name, s in CUSTOM.items()}
    assert verdicts["dyadic, a translated level"] == "ok"
    assert verdicts["a translated level"] == "refinement levels disagree on shared distances"
    assert verdicts["a moved point"] == "refinement levels disagree on shared distances"
    assert verdicts["a point moved past the sample"] == "ok"
    assert verdicts["a vanished label"] == "labels ['x0'] vanish between refinement levels"
    assert verdicts["a level above the next"].startswith("labels ['p0005', 'p0006', 'p0007']")
    leading = {name: list(_check_nesting(s)) for name, s in CUSTOM.items()
               if verdicts[name] == "ok"}
    assert leading["dyadic, as built"] == [True, True, True]
    assert leading["dyadic, a translated level"] == [True, False, True]
    assert leading["dyadic, a translated level with the anchor last"] == [True, False, True]
    assert leading["a matrix-backed level"] == [True, False, True]
    assert leading["a matrix-backed deepest level"] == [False, False, False]
    assert leading["a level in reverse order"] == [True, False, True]
    assert leading["a point moved past the sample"] == [True, False, True]


# ---------------------------------------------------------------------------
# pair separation


def spaced_pairs(count, close_after=None):
    """Pair i at 3i, its b-point 0.5/i to the right; ``close_after`` moves
    the next pair down until its a-point is 0.5 from that pair's b-point."""
    coords = np.array([[3.0 * i, 3.0 * i + 0.5 / i] for i in range(1, count + 1)])
    if close_after is not None:
        coords[close_after] -= coords[close_after, 0] - (coords[close_after - 1, 1] + 0.5)
    labels = [[f"a{i:03d}", f"b{i:03d}"] for i in range(1, count + 1)]
    pairs = tuple(map(tuple, labels))
    return line(coords.reshape(-1), sum(labels, [])), pairs


def test_a_pair_separation_fault_past_pair_256_is_refused():
    space, pairs = spaced_pairs(300, close_after=280)
    assert per_level_pair_separation(space, pairs) >= 1.0  # the first 256 pairs are clean
    with pytest.raises(InputError, match=r"different pairs come within 0.5 < 1"):
        RefinementFamily(kind="pairs", levels=(300,), spaces=(space,), pairs=pairs)
    clean, pairs = spaced_pairs(300)
    RefinementFamily(kind="pairs", levels=(300,), spaces=(clean,), pairs=pairs)


@pytest.mark.parametrize("close_after", [None, 1, 5, 40, 127])
def test_line_pair_separation_matches_the_distance_matrix(close_after):
    space, pairs = spaced_pairs(128, close_after)
    got = [verdict(lambda s=s: RefinementFamily(kind="pairs", levels=(128,), spaces=(s,),
                                                pairs=pairs))
           for s in (space, as_matrix(space))]
    worst = per_level_pair_separation(space, pairs)
    assert got[0] == got[1] == ("ok" if worst >= 1.0 else
                                f"points of different pairs come within {worst:.6g} < 1 "
                                "of each other")
