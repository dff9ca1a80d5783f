"""Refinement levels read from the deepest level agree with levels built one
by one.

The per-level path is kept here as the oracle: each level built from its own
coordinates, each level's distances compared in full with the deepest
level's, one hat family built per level, each escape row read from that
level's own family over the full-row tiles, each level's g built from its own
A-set, and the pair separation read from the full distance matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab.convergence import pointwise_limit
from latticelab.counterexamples import (
    RefinementFamily,
    _check_nesting,
    build_refinement,
    hat_family,
    hat_scenario,
    lip_counterexample,
    verify_escape,
)
from latticelab.errors import InputError
from latticelab.metric import (
    FiniteMetricSpace,
    discreteness_constant,
    dist_to_set_all,
    max_slope,
)

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


def leads_the_deepest(spaces):
    """Whether every level's labels and full distance matrix are the deepest
    level's on its first labels."""
    deep = spaces[-1]
    return all(s.labels == deep.labels[:s.n] and np.array_equal(
        s.row_block(0, s.n), deep.row_block(0, s.n)[:, :s.n]) for s in spaces)


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


def per_level_lip_rows(ref):
    """(level, scale, delta, slope of g) with each level's g from its own A-set."""
    rows = []
    for level, space in zip(ref.levels, ref.spaces):
        a_set = ([ref.anchor] if ref.kind == "accumulation"
                 else [a for a, _ in ref.pairs[:level]])
        g = np.minimum(np.sqrt(dist_to_set_all(space, a_set)), 1.0)
        rows.append((level, ref.scale(level), discreteness_constant(space),
                     max_slope(space, g)[0]))
    return rows


def per_level_pair_separation(space, pairs):
    labels = [lab for pair in pairs for lab in pair]
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
    assert leads_the_deepest(alone)
    rebuilt = RefinementFamily(kind=ref.kind, levels=ref.levels, spaces=alone,
                               anchor=ref.anchor, pairs=ref.pairs)
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
    assert set(scenario._families) == {ref.levels[-1]}  # the escape built no other family
    for level, fam in zip(ref.levels, families):
        same_family(scenario.family_at(level), fam)
    for got, fam in zip(scenario.families, families):
        same_family(got, fam)


@settings(max_examples=25)
@given(st.sampled_from(["accumulation", "pairs"]),
       st.lists(st.integers(min_value=2, max_value=400), min_size=1, max_size=5, unique=True))
def test_ladder_level_rows_read_from_the_deepest_level_match_each_level(kind, levels):
    ref = build_refinement(kind, levels)
    assert list(lip_counterexample(ref, 1).level_rows) == per_level_lip_rows(ref)


def test_a_scenario_builds_a_level_family_when_it_is_read():
    scenario = hat_scenario(build_refinement("accumulation", [3, 5, 9]), 4)
    assert set(scenario._families) == {9}
    fam = scenario.family_at(5)
    assert set(scenario._families) == {5, 9}
    assert scenario.family_at(5) is fam
    assert len(scenario.families) == 3 and set(scenario._families) == {3, 5, 9}


def test_a_family_read_at_an_unknown_level_names_the_level():
    scenario = hat_scenario(build_refinement("accumulation", [3, 4, 5]), 2)
    with pytest.raises(InputError, match=r"^level 7 is not one of \(3, 4, 5\)$"):
        scenario.family_at(7)


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


def plane_accumulation(n):
    """The anchor at the origin and point k at distance about 1/k from it,
    turning by one radian a step."""
    k = np.arange(1, n + 1)
    coords = np.vstack([[0.0, 0.0], np.column_stack([np.cos(k), np.sin(k)]) / k[:, None]])
    return coords, ["x0"] + [f"p{i:04d}" for i in k]


def plane_pairs(n):
    """Pair i's a-point on a grid of step 2, its b-point 0.5/(i+1) away."""
    i = np.arange(1, n + 1)
    a = 2.0 * np.column_stack([i % 7, i // 7])
    b = a + np.column_stack([np.cos(i), np.sin(i)]) * (0.5 / (i + 1))[:, None]
    labels = [lab for k in i for lab in (f"a{k:03d}", f"b{k:03d}")]
    return np.stack([a, b], axis=1).reshape(-1, 2), labels


def moved(coords, k, by):
    coords = coords.copy()
    coords[k] += by
    return coords


def leading(space, sizes):
    """Levels of the given sizes on the space's leading points, then the space."""
    return [space.subspace(space.labels[:size]) for size in sizes] + [space]


def custom_refinements():
    """name -> (kind, spaces, verdict of the RefinementFamily constructor)."""
    ahead, vanish = "is not the deepest level's leading points", "vanish between refinement levels"
    disagree = "refinement levels disagree on shared distances"
    out = {}
    c, lab = dyadic(12)
    out["dyadic, as built"] = [line(c[:5], lab[:5]), line(c[:9], lab[:9]), line(c, lab)], "ok"
    # the same distances at other coordinates: not the deepest level's points
    out["dyadic, a translated level"] = [line(c[:5], lab[:5]), line(c[:9] + 1.0, lab[:9]),
                                         line(c, lab)], f"level 3 {ahead}"
    out["dyadic, a translated level with the anchor last"] = [
        line(c[:5], lab[:5]), line(np.roll(c[:9], -1) + 1.0, lab[1:9] + lab[:1]), line(c, lab)
    ], f"level 3 {ahead}"
    c, lab = accumulation(40)
    out["a translated level"] = [line(c[:5], lab[:5]), line(c[:20] + 1.0, lab[:20]),
                                 line(c, lab)], disagree
    out["a moved point"] = [line(c[:5], lab[:5]), line(moved(c[:20], 7, 1e-9), lab[:20]),
                            line(c, lab)], disagree
    out["a matrix-backed level"] = [line(c[:5], lab[:5]), as_matrix(line(c[:20], lab[:20])),
                                    line(c, lab)], "ok"
    out["a matrix-backed deepest level"] = [line(c[:5], lab[:5]), line(c[:20], lab[:20]),
                                            as_matrix(line(c, lab))], "ok"
    out["a level in reverse order"] = [line(c[:5], lab[:5]), line(c[:20][::-1], lab[:20][::-1]),
                                       line(c, lab)], f"level 3 {ahead}"
    out["a level with a later point"] = [line(c[:5], lab[:5]),
                                         line(np.append(c[:20], c[30]), lab[:20] + lab[30:31]),
                                         line(c, lab)], f"level 3 {ahead}"
    out["a vanished label"] = [line(c[:5], lab[:5]), line(c[1:20], lab[1:20]),
                               line(c, lab)], f"level 3 {ahead}"
    out["a vanished label, read from its level"] = [line(c[:5], lab[:5]), line(c[:4], lab[:4]),
                                                    line(c, lab)], f"labels ['p0004'] {vanish}"
    out["a level above the next"] = [line(c[:20], lab[:20]), line(c[:5], lab[:5]),
                                     line(c, lab)], f"labels ['p0005', 'p0006', 'p0007'] {vanish}"
    # a point moved anywhere is seen, also past a sample of the first and
    # last 256 labels of a 700-point level
    c, lab = accumulation(900)
    out["a point moved past the sample"] = [line(c[:300], lab[:300]),
                                            line(moved(c[:700], 400, 1e-9), lab[:700]),
                                            line(c, lab)], disagree
    out["a point moved inside the sample"] = [line(c[:300], lab[:300]),
                                              line(moved(c[:700], 600, 1e-9), lab[:700]),
                                              line(c, lab)], disagree
    plane = FiniteMetricSpace.from_coords(*plane_accumulation(60))
    out["2-D, as built"] = leading(plane, [4, 15, 33]), "ok"
    out["2-D, matrix-backed"] = [as_matrix(s) for s in leading(plane, [4, 15, 33])], "ok"
    out["2-D, a translated level"] = [plane.subspace(plane.labels[:4]),
                                      FiniteMetricSpace.from_coords(plane.coords[:15] + 0.5,
                                                                    plane.labels[:15]),
                                      plane], disagree
    pairs = FiniteMetricSpace.from_coords(*plane_pairs(30))
    out["2-D pairs, as built"] = leading(pairs, [6, 24]), "ok"
    out["2-D pairs, matrix-backed"] = [as_matrix(s) for s in leading(pairs, [6, 24])], "ok"
    out["2-D pairs, a level that splits a pair"] = leading(pairs, [6, 23]), (
        "level 11 does not hold exactly the first 11 pairs")
    return {name: ("pairs" if "pairs" in name else "accumulation", spaces, expected)
            for name, (spaces, expected) in out.items()}


CUSTOM = custom_refinements()


def refinement(kind, spaces):
    if kind == "accumulation":
        return RefinementFamily(kind=kind, levels=range(2, 2 + len(spaces)), spaces=spaces,
                                anchor="x0")
    labels = spaces[-1].labels
    return RefinementFamily(kind=kind, levels=[s.n // 2 for s in spaces], spaces=spaces,
                            pairs=tuple(zip(labels[::2], labels[1::2])))


@pytest.mark.parametrize("name", CUSTOM)
def test_custom_refinements_keep_their_nesting_verdicts_and_rows(name):
    kind, spaces, expected = CUSTOM[name]
    assert verdict(lambda: refinement(kind, spaces)) == expected
    if expected != "ok":
        return
    assert leads_the_deepest(spaces)
    ref = refinement(kind, spaces)
    assert list(lip_counterexample(ref, 2).level_rows) == per_level_lip_rows(ref)
    if kind == "pairs":
        return
    families = [hat_family(space, "x0", 5) for space in spaces]
    scenario = hat_scenario(ref, 5)
    assert rows_of(scenario) == per_level_rows(ref, families)
    for got, fam in zip(scenario.families, families):
        same_family(got, fam)


def test_custom_verdicts_cover_both_outcomes_and_both_routes():
    verdicts = {name: verdict(lambda s=s: _check_nesting(range(2, 2 + len(s)), s))
                for name, (_, s, _) in CUSTOM.items()}
    messages = ["is not the deepest level's leading points", "vanish between refinement levels",
                "refinement levels disagree on shared distances"]
    assert all(any(v.endswith(m) for v in verdicts.values()) for m in messages)
    assert all(v == "ok" or any(v.endswith(m) for m in messages) for v in verdicts.values())
    ok = [CUSTOM[name][1] for name, v in verdicts.items() if v == "ok"]
    # the coordinate comparison, the distance comparison, and both in one chain
    assert any(all(s.coords is not None for s in spaces) for spaces in ok)
    assert any(all(s.coords is None for s in spaces) for spaces in ok)
    assert any(len({s.coords is None for s in spaces}) == 2 for spaces in ok)


def test_a_pairs_level_holds_exactly_its_own_pairs():
    deep = build_refinement("pairs", [2, 3]).spaces[-1]
    pairs = tuple(zip(deep.labels[::2], deep.labels[1::2]))
    five = deep.subspace(deep.labels[:5])  # pairs 1 and 2 and the a-point of pair 3
    with pytest.raises(InputError, match=r"^level 2 does not hold exactly the first 2 pairs$"):
        RefinementFamily(kind="pairs", levels=(2, 3), spaces=(five, deep), pairs=pairs)
    # the a-points first: level 1's two points are a01 and a02
    order = [0, 2, 1, 3, 4, 5]
    a_first = deep.subspace([deep.labels[i] for i in order])
    with pytest.raises(InputError, match=r"^level 1 does not hold exactly the first 1 pairs$"):
        RefinementFamily(kind="pairs", levels=(1, 3),
                         spaces=(a_first.subspace(a_first.labels[:2]), a_first), pairs=pairs)
    with pytest.raises(InputError, match=r"^level 2 does not hold exactly the first 2 pairs$"):
        RefinementFamily(kind="pairs", levels=(2,), spaces=(deep,), pairs=pairs)


# ---------------------------------------------------------------------------
# pair separation


def spaced_pairs(count, close_after=None, plane=False):
    """Pair i at 3i, its b-point 0.5/i to the right; ``close_after`` moves
    the next pair down until its a-point is 0.5 from that pair's b-point.
    ``plane`` puts the points on the line y = 1 of the plane."""
    coords = np.array([[3.0 * i, 3.0 * i + 0.5 / i] for i in range(1, count + 1)])
    if close_after is not None:
        coords[close_after] -= coords[close_after, 0] - (coords[close_after - 1, 1] + 0.5)
    labels = [[f"a{i:03d}", f"b{i:03d}"] for i in range(1, count + 1)]
    pairs = tuple(map(tuple, labels))
    if plane:
        points = np.column_stack([coords.reshape(-1), np.ones(2 * count)])
        return FiniteMetricSpace.from_coords(points, sum(labels, [])), pairs
    return line(coords.reshape(-1), sum(labels, [])), pairs


def test_a_pair_separation_fault_past_pair_256_is_refused():
    space, pairs = spaced_pairs(300, close_after=280)
    assert per_level_pair_separation(space, pairs[:256]) >= 1.0  # the first 256 pairs are clean
    with pytest.raises(InputError, match=r"different pairs come within 0.5 < 1"):
        RefinementFamily(kind="pairs", levels=(300,), spaces=(space,), pairs=pairs)
    clean, pairs = spaced_pairs(300)
    RefinementFamily(kind="pairs", levels=(300,), spaces=(clean,), pairs=pairs)


def test_a_plane_pair_separation_fault_past_pair_256_is_refused():
    space, pairs = spaced_pairs(300, close_after=280, plane=True)
    assert space.line_order is None
    assert per_level_pair_separation(space, pairs[:256]) >= 1.0
    assert per_level_pair_separation(space, pairs) == 0.5  # pairs 280 and 281
    with pytest.raises(InputError, match=r"different pairs come within 0.5 < 1"):
        RefinementFamily(kind="pairs", levels=(300,), spaces=(space,), pairs=pairs)
    clean, pairs = spaced_pairs(300, plane=True)
    RefinementFamily(kind="pairs", levels=(300,), spaces=(clean,), pairs=pairs)


@pytest.mark.parametrize("close_after", [None, 1, 5, 40, 127])
def test_line_pair_separation_matches_the_distance_matrix(close_after):
    space, pairs = spaced_pairs(128, close_after)
    got = [verdict(lambda s=s: RefinementFamily(kind="pairs", levels=(128,), spaces=(s,),
                                                pairs=pairs))
           for s in (space, as_matrix(space), spaced_pairs(128, close_after, plane=True)[0])]
    worst = per_level_pair_separation(space, pairs)
    assert got[0] == got[1] == got[2] == ("ok" if worst >= 1.0 else
                                          f"points of different pairs come within "
                                          f"{worst:.6g} < 1 of each other")
