"""Refinement scenarios: shrinking hats and the square-root envelope ladder."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab.convergence import (
    MEMBER_MATERIALIZE_LIMIT,
    FamilyMetadata,
    SequenceFamily,
    pointwise_limit,
)
from latticelab.core import Carrier, LatticeElement, ones
from latticelab.counterexamples import (
    RefinementFamily,
    build_refinement,
    hat_family,
    hat_scenario,
    lip_counterexample,
    running_meets,
    verify_escape,
)
from latticelab.envelopes import ENVELOPE_TOL
from latticelab.errors import InputError
from latticelab.metric import FiniteMetricSpace, discreteness_constant, max_slope


def line_space(coords, labels):
    return FiniteMetricSpace.from_coords(
        np.asarray(coords, dtype=np.float64).reshape(-1, 1), labels)


def const_ones_family(space):
    one = ones(Carrier.points(space))
    meta = FamilyMetadata(monotone_decreasing=True, common_bound=one, limit=one)
    return SequenceFamily(members=[one, one], metadata=meta)


# ---------------------------------------------------------------------------
# refinements


def test_accumulation_refinement_geometry():
    ref = build_refinement("accumulation", [4, 8, 16])
    assert ref.levels == (4, 8, 16)
    assert ref.spaces[0].labels == ("x0", "p01", "p02", "p03", "p04")
    assert ref.scale(4) == 0.25
    assert ref.scale(16) == 0.0625
    assert ref.delta(4) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert ref.delta(16) == pytest.approx(1.0 / 240.0, rel=1e-12)
    # delta is exactly the space's discreteness constant, not a formula
    assert ref.delta(8) == discreteness_constant(ref.space_at(8))


def test_pairs_refinement_geometry():
    ref = build_refinement("pairs", [3, 5, 9])
    assert ref.pairs[:2] == (("a01", "b01"), ("a02", "b02"))
    assert ref.space_at(3).n == 6
    # the newest pair's gap is also the smallest gap at that level
    assert ref.scale(5) == ref.delta(5)
    assert ref.scale(5) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_build_refinement_dedupes_and_sorts_levels():
    assert build_refinement("accumulation", [5, 2, 2]).levels == (2, 5)


def test_build_refinement_rejects_bad_levels():
    with pytest.raises(InputError, match="at least one level"):
        build_refinement("accumulation", [])
    with pytest.raises(InputError, match=r"levels must be >= 2, got 1"):
        build_refinement("accumulation", [1, 4])
    with pytest.raises(InputError, match="unknown refinement kind 'rings'"):
        build_refinement("rings", [2])


def test_space_at_unknown_level():
    ref = build_refinement("accumulation", [4, 8, 16])
    with pytest.raises(InputError, match=r"level 7 is not one of \(4, 8, 16\)"):
        ref.space_at(7)


def test_refinement_structural_validation():
    sm = line_space([0.0, 1.0], ["x0", "p1"])
    with pytest.raises(InputError, match="strictly increasing"):
        RefinementFamily(kind="accumulation", levels=(3, 3), spaces=(sm, sm),
                         anchor="x0")
    with pytest.raises(InputError, match="1 spaces for 2 levels"):
        RefinementFamily(kind="accumulation", levels=(2, 3), spaces=(sm,),
                         anchor="x0")


def test_refinement_nesting_validation():
    sm = line_space([0.0, 1.0], ["x0", "p1"])
    moved = line_space([0.0, 2.0, 5.0], ["x0", "p1", "q"])
    with pytest.raises(InputError, match="disagree on shared distances"):
        RefinementFamily(kind="accumulation", levels=(2, 3),
                         spaces=(sm, moved), anchor="x0")
    dropped = line_space([0.0, 9.0, 5.0], ["x0", "q", "r"])
    with pytest.raises(InputError, match=r"labels \['p1'\] vanish"):
        RefinementFamily(kind="accumulation", levels=(2, 3),
                         spaces=(sm, dropped), anchor="x0")


def test_accumulation_anchor_validation():
    sm = line_space([0.0, 1.0], ["x0", "p1"])
    with pytest.raises(InputError, match="need an anchor label"):
        RefinementFamily(kind="accumulation", levels=(2,), spaces=(sm,))
    single = line_space([0.0], ["x0"])
    with pytest.raises(InputError, match="isolated or duplicated at level 2"):
        RefinementFamily(kind="accumulation", levels=(2,), spaces=(single,),
                         anchor="x0")
    # adding a far point keeps the anchor radius at 1.0: no refinement happens
    stale = line_space([0.0, 1.0, 9.0], ["x0", "p1", "q"])
    with pytest.raises(InputError, match="must strictly decrease"):
        RefinementFamily(kind="accumulation", levels=(2, 3),
                         spaces=(sm, stale), anchor="x0")


def test_pairs_validation():
    top = line_space([0.0, 0.5, 10.0, 10.9], ["a1", "b1", "a2", "b2"])
    with pytest.raises(InputError, match="2 pairs cannot cover level 5"):
        RefinementFamily(kind="pairs", levels=(5,), spaces=(top,),
                         pairs=(("a1", "b1"), ("a2", "b2")))
    with pytest.raises(InputError, match="distinct and non-overlapping"):
        RefinementFamily(kind="pairs", levels=(2,), spaces=(top,),
                         pairs=(("a1", "b1"), ("b1", "c")))
    with pytest.raises(InputError,
                       match=r"pair 2 sits at distance 0.9, not inside \(0, 1/2\)"):
        RefinementFamily(kind="pairs", levels=(2,), spaces=(top,),
                         pairs=(("a1", "b1"), ("a2", "b2")))
    close = line_space([0.0, 0.5, 1.2, 1.45], ["a1", "b1", "a2", "b2"])
    with pytest.raises(InputError, match=r"come within 0.7 < 1"):
        RefinementFamily(kind="pairs", levels=(2,), spaces=(close,),
                         pairs=(("a1", "b1"), ("a2", "b2")))


def pairs_space(gaps):
    """Pair i at 3i, its b-point ``gaps[i - 1]`` to the right."""
    coords = [c for i, gap in enumerate(gaps, 1) for c in (3.0 * i, 3.0 * i + gap)]
    labels = [lab for i in range(1, len(gaps) + 1) for lab in (f"a{i}", f"b{i}")]
    pairs = tuple((f"a{i}", f"b{i}") for i in range(1, len(gaps) + 1))
    return line_space(coords, labels), pairs


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_the_first_pair_outside_its_window_is_named(k):
    gaps = [0.5 / i for i in range(1, 9)]
    gaps[k - 1] = 1.5 / k
    if k < 8:
        gaps[-1] = 2.0  # a later pair outside its window too
    top, pairs = pairs_space(gaps)
    gap = top.distance(f"a{k}", f"b{k}")
    with pytest.raises(InputError) as err:
        RefinementFamily(kind="pairs", levels=(8,), spaces=(top,), pairs=pairs)
    assert str(err.value) == f"pair {k} sits at distance {gap:.6g}, not inside (0, 1/{k})"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_approach_points_keep_the_first_label_per_distance(sign):
    """Two labels at one distance from the anchor: the one first in label
    order is kept, whichever coordinate it has, and the distances fall."""
    space = line_space([0.0, 0.5 * sign, -0.5 * sign, 0.25, 1.5, -0.125],
                       ["x0", "q", "p", "r", "far", "s"])
    ref = RefinementFamily(kind="accumulation", levels=(6,), spaces=(space,), anchor="x0")
    cex = lip_counterexample(ref, 2)
    assert cex.b_labels == ("p", "r", "s")
    assert cex.t == (0.5, 0.25, 0.125)


def test_the_first_blow_up_under_its_floor_is_named():
    cex = lip_counterexample(build_refinement("accumulation", [4, 8]), 2)
    floor = 1.0 / (2.0 * math.sqrt(cex.t[2]))
    blow_up = cex.blow_up[:2] + (floor, 0.0) + cex.blow_up[4:]
    with pytest.raises(InputError) as err:
        dataclasses.replace(cex, blow_up=blow_up)
    assert str(err.value) == f"blow-up 3 is {floor:.6g}, not above 1/(2*sqrt(t)) = {floor:.6g}"


# ---------------------------------------------------------------------------
# shrinking hats


def test_hat_family_members_and_limit():
    ref = build_refinement("accumulation", [3, 5, 9])
    space = ref.space_at(5)
    fam = hat_family(space, "x0", 6)
    row = space.row(space.index("x0"))
    for n in range(1, 7):
        assert np.array_equal(fam.member(n).values,
                              np.maximum(0.0, 1.0 - n * row))
    assert fam.member(2).values[space.index("p05")] == pytest.approx(0.6)
    limit = pointwise_limit(fam)
    indicator = np.zeros(space.n)
    indicator[space.index("x0")] = 1.0
    assert np.array_equal(limit.values, indicator)
    meta = fam.metadata
    assert meta.monotone_decreasing
    assert np.array_equal(meta.common_bound.values, np.ones(space.n))
    assert meta.space_tag.describe() == "bounded_fns"
    assert "hats shrinking around 'x0'" in meta.notes


def test_hat_slopes_stay_within_n():
    ref = build_refinement("accumulation", [10])
    space = ref.space_at(10)
    fam = hat_family(space, "x0", 8)
    for n in (1, 4, 8):
        slope, _ = max_slope(space, fam.member(n).values)
        assert slope <= n + 1e-9


def test_hat_family_rejects_bad_depth():
    ref = build_refinement("accumulation", [4])
    with pytest.raises(InputError, match="hat depth must be >= 1"):
        hat_family(ref.spaces[0], "x0", 0)


def test_hat_family_refuses_a_depth_past_the_member_limit():
    ref = build_refinement("accumulation", [3, 4, 5])
    depth = MEMBER_MATERIALIZE_LIMIT + 1
    with pytest.raises(InputError, match=rf"^hat depth {depth} exceeds the limit 100000$"):
        hat_family(ref.spaces[0], "x0", depth)
    with pytest.raises(InputError, match=rf"^hat depth {depth} exceeds"):
        hat_scenario(ref, depth)


def test_running_meets_is_identity_on_decreasing_families():
    ref = build_refinement("accumulation", [6])
    fam = hat_family(ref.spaces[0], "x0", 5)
    rm = running_meets(fam)
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(rm.members, fam.members))
    assert "running meets of the source family" in rm.metadata.notes


def test_running_meets_canonicalizes_a_non_monotone_chain():
    from latticelab.core import Tail

    carrier = Carrier.index_set(3)
    f1 = LatticeElement(carrier, np.array([1.0, 0.0, 1.0]), Tail.zero())
    f2 = LatticeElement(carrier, np.array([0.0, 1.0, 1.0]), Tail.zero())
    f3 = LatticeElement(carrier, np.array([1.0, 1.0, 0.0]), Tail.zero())
    fam = SequenceFamily(members=[f1, f2, f3], metadata=FamilyMetadata())
    rm = running_meets(fam)
    assert rm.metadata.monotone_decreasing
    assert np.array_equal(rm.member(1).values, [1.0, 0.0, 1.0])
    assert np.array_equal(rm.member(2).values, [0.0, 0.0, 1.0])
    assert np.array_equal(rm.member(3).values, [0.0, 0.0, 0.0])


def test_hat_scenario_indexes_families_by_level():
    ref = build_refinement("accumulation", [3, 5, 9])
    sc = hat_scenario(ref, 4)
    assert len(sc.families) == 3
    assert sc.family_at(5).horizon == 4
    assert sc.family_at(9).member(1).carrier.size == 10


def test_hat_scenario_rejects_pairs_refinements():
    with pytest.raises(InputError, match="need an accumulation refinement"):
        hat_scenario(build_refinement("pairs", [2, 3]), 3)


# ---------------------------------------------------------------------------
# the envelope ladder counterexample


def test_lip_counterexample_on_accumulation():
    ref = build_refinement("accumulation", [4, 8, 16])
    cex = lip_counterexample(ref, 3)
    assert cex.a_labels == ("x0",)
    # p01 sits at distance exactly 1, outside the open approach window
    assert cex.b_labels[0] == "p02"
    assert cex.b_labels[-1] == "p16"
    assert cex.t[0] == 0.5 and cex.t[-1] == 0.0625
    assert all(b < a for a, b in zip(cex.t, cex.t[1:]))
    # g vanishes on A and reaches sqrt(t) at each b, so every ratio is
    # exactly twice the 1/(2*sqrt(t)) floor
    for ratio, t in zip(cex.blow_up, cex.t):
        assert ratio > 1.0 / (2.0 * math.sqrt(t))
        assert ratio == pytest.approx(1.0 / math.sqrt(t), rel=1e-12)
    assert cex.blow_up_pairs[0] == ("p02", "x0")
    assert cex.blow_up[2] == 2.0


def test_lip_level_rows_measure_sqrt_of_the_level():
    ref = build_refinement("accumulation", [4, 8, 16])
    cex = lip_counterexample(ref, 2)
    levels = [row[0] for row in cex.level_rows]
    slopes = [row[3] for row in cex.level_rows]
    assert levels == [4, 8, 16]
    assert slopes[0] == 2.0 and slopes[2] == 4.0
    assert slopes[1] == math.sqrt(8.0)
    scales = [row[1] for row in cex.level_rows]
    assert scales == [0.25, 0.125, 0.0625]


def test_lip_family_certifies_uniform_cauchy():
    from latticelab.convergence import CertificatePolicy, check_buo_cauchy

    ref = build_refinement("accumulation", [4, 8, 16])
    cex = lip_counterexample(ref, 3)
    eps = cex.family.metadata.uniformly_cauchy_norms
    assert eps[-1] == 0.0
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    stack = np.stack([res.g_n.values for res in cex.envelopes])
    assert np.all(stack <= cex.g.values + 1e-12)
    cert = check_buo_cauchy(cex.family, CertificatePolicy())
    assert cert.outcome == "holds"


def test_lip_counterexample_on_pairs():
    ref = build_refinement("pairs", [3, 5, 9])
    cex = lip_counterexample(ref, 2)
    assert cex.a_labels == tuple(f"a{i:02d}" for i in range(1, 10))
    assert cex.b_labels == tuple(f"b{i:02d}" for i in range(1, 10))
    for i, (ratio, t) in enumerate(zip(cex.blow_up, cex.t), start=1):
        assert t == pytest.approx(1.0 / (i + 1), rel=1e-12)
        assert ratio > 1.0 / (2.0 * math.sqrt(t))
    assert cex.blow_up_pairs[0] == ("b01", "a01")


def test_lip_counterexample_reads_the_pair_positions_of_the_refinement(monkeypatch):
    ref = build_refinement("pairs", [3, 40, 300])
    deep = ref.spaces[-1]
    assert [list(at) for at in ref._pair_at] == [
        [deep.index(p[k]) for p in ref.pairs[:300]] for k in (0, 1)]
    calls = []
    index = FiniteMetricSpace.index
    monkeypatch.setattr(FiniteMetricSpace, "index",
                        lambda space, label: calls.append(label) or index(space, label))
    cex = lip_counterexample(ref, 2)
    # only the record's own check of g resolves its A labels
    assert calls == list(cex.a_labels)
    assert cex.b_labels == tuple(b for _, b in ref.pairs[:300])
    monkeypatch.undo()
    # a level's scale reads the deepest positions on that level's own space
    assert [r[1] for r in cex.level_rows] == [
        ref.space_at(level).distance(*ref.pairs[level - 1]) for level in ref.levels]


def test_lip_counterexample_input_guards():
    ref = build_refinement("accumulation", [4, 8])
    with pytest.raises(InputError, match="n_max must be >= 1, got 0"):
        lip_counterexample(ref, 0)
    s2 = line_space([0.0, 5.0], ["x0", "q1"])
    s3 = line_space([0.0, 5.0, 4.0], ["x0", "q1", "q2"])
    far = RefinementFamily(kind="accumulation", levels=(2, 3),
                           spaces=(s2, s3), anchor="x0")
    with pytest.raises(InputError, match="no approach points"):
        lip_counterexample(far, 2)


def test_lip_record_rejects_tampering():
    ref = build_refinement("accumulation", [4, 8])
    cex = lip_counterexample(ref, 2)
    with pytest.raises(InputError, match="target set A is empty"):
        dataclasses.replace(cex, a_labels=())
    with pytest.raises(InputError, match="disagree in length"):
        dataclasses.replace(cex, b_labels=cex.b_labels[:-1])
    with pytest.raises(InputError, match=r"lie in \(0, 1\)"):
        dataclasses.replace(cex, t=(1.0,) + cex.t[1:])
    with pytest.raises(InputError, match="strictly decrease"):
        dataclasses.replace(cex, t=(cex.t[1],) + cex.t[1:])
    bad_g = LatticeElement(cex.g.carrier, cex.g.values + 0.5)
    with pytest.raises(InputError, match="disagrees with sqrt"):
        dataclasses.replace(cex, g=bad_g)
    with pytest.raises(InputError, match=r"blow-up 1 is 0.1, not above"):
        dataclasses.replace(cex, blow_up=(0.1,) + cex.blow_up[1:])
    forged = dataclasses.replace(
        cex.envelopes[0],
        g_n=LatticeElement(cex.g.carrier, cex.g.values + 1.0))
    with pytest.raises(InputError, match="envelope n=1 exceeds g"):
        dataclasses.replace(cex, envelopes=(forged,) + cex.envelopes[1:])


# ---------------------------------------------------------------------------
# escape reports


def test_hat_escape_reports_a_flat_oscillation_floor():
    sc = hat_scenario(build_refinement("accumulation", [3, 5, 9]), 4)
    rep = verify_escape(sc)
    assert rep.kind == "hats"
    assert rep.quantity == "oscillation at scale"
    assert rep.scale_fit is None and rep.delta_fit is None
    assert [r.level for r in rep.rows] == [3, 5, 9]
    assert all(r.value == 1.0 for r in rep.rows)
    assert rep.rows[1].scale == 0.2
    assert "oscillates by at least 1 at the refinement scale" in rep.statement
    assert "no decay to inherit" in rep.statement


def test_lip_escape_fits_the_inverse_square_root_law():
    cex = lip_counterexample(build_refinement("accumulation", [4, 8, 16]), 2)
    rep = verify_escape(cex)
    assert rep.kind == "envelope ladder"
    assert rep.quantity == "lipschitz constant of g"
    slope, intercept, resid = rep.scale_fit
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert abs(intercept) < 1e-12
    assert resid < 1e-12
    # the pairwise discreteness constant shrinks like N**-2, so against it
    # the same growth reads as a shallower exponent; both are reported
    assert -0.3 < rep.delta_fit[0] < -0.2
    assert "grows like scale**(-0.5000)" in rep.statement
    assert "-0.2" in rep.statement


def test_pairs_escape_statement_names_the_model():
    cex = lip_counterexample(build_refinement("pairs", [3, 5, 9]), 2)
    rep = verify_escape(cex)
    assert rep.statement.startswith("finite shrinking-pairs model; ")
    assert rep.scale_fit[0] == pytest.approx(-0.5, abs=1e-12)
    # gap and discreteness coincide for pairs, so the two fits agree
    assert rep.scale_fit == rep.delta_fit


def test_flat_trend_is_not_called_divergence():
    cex = lip_counterexample(build_refinement("pairs", [3, 5, 9]), 2)
    flat_rows = ((2, 0.5, 0.1, 3.0), (4, 0.25, 0.05, 3.0), (8, 0.125, 0.025, 3.0))
    forged = dataclasses.replace(cex, level_rows=flat_rows)
    rep = verify_escape(forged)
    assert "no divergence trend" in rep.statement


def test_escape_requires_a_trend_worth_of_levels():
    sc = hat_scenario(build_refinement("accumulation", [2, 3]), 2)
    with pytest.raises(InputError, match="need >= 3"):
        verify_escape(sc)


def test_escape_on_a_constant_limit_family():
    ref = build_refinement("accumulation", [4])
    rep = verify_escape(const_ones_family(ref.spaces[0]))
    assert rep.kind == "constant"
    assert "no escape" in rep.statement


def test_escape_rejects_bare_families_and_foreign_objects():
    ref = build_refinement("accumulation", [4])
    fam = hat_family(ref.spaces[0], "x0", 3)
    with pytest.raises(InputError, match="not a bare family"):
        verify_escape(fam)
    with pytest.raises(InputError, match="cannot build an escape report from int"):
        verify_escape(17)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=12))
def test_hat_members_decrease_and_bound_the_indicator(level, depth):
    ref = build_refinement("accumulation", [level])
    fam = hat_family(ref.spaces[0], "x0", depth)
    stack = np.stack([m.values for m in fam.members])
    assert np.all(stack[1:] <= stack[:-1])
    limit = pointwise_limit(fam)
    assert np.all(stack >= limit.values)
    assert np.all(stack <= 1.0)


@given(st.lists(st.integers(min_value=2, max_value=40), min_size=3, max_size=5,
                unique=True))
def test_lip_blow_up_always_clears_the_floor(levels):
    cex = lip_counterexample(build_refinement("accumulation", levels), 2)
    for ratio, t in zip(cex.blow_up, cex.t):
        assert ratio > 1.0 / (2.0 * math.sqrt(t))
    rep = verify_escape(cex)
    assert rep.scale_fit[0] == pytest.approx(-0.5, abs=1e-9)


def dense_refinement(ref):
    """The same refinement with every level behind an explicit distance matrix."""
    spaces = tuple(
        FiniteMetricSpace.from_matrix(s.row_block(0, s.n), s.labels, validate=False)
        for s in ref.spaces
    )
    return RefinementFamily(kind=ref.kind, levels=ref.levels, spaces=spaces,
                            anchor=ref.anchor, pairs=ref.pairs)


@settings(max_examples=20)  # each example runs the quadratic dense route
@given(st.sampled_from(["accumulation", "pairs"]),
       st.lists(st.integers(min_value=2, max_value=1024), min_size=1, max_size=3,
                unique=True))
def test_line_counterexample_agrees_with_the_dense_route(kind, levels):
    ref = build_refinement(kind, levels)
    line = lip_counterexample(ref, 4)
    dense = lip_counterexample(dense_refinement(ref), 4)
    assert line.blow_up == dense.blow_up
    assert line.blow_up_pairs == dense.blow_up_pairs
    np.testing.assert_array_equal(line.g.values, dense.g.values)
    for (lv, sc, dl, slope), (lv_d, sc_d, dl_d, slope_d) in zip(line.level_rows,
                                                                 dense.level_rows):
        assert (lv, sc, dl) == (lv_d, sc_d, dl_d)
        assert abs(slope - slope_d) <= 4 * np.spacing(slope_d)
    for a, b in zip(line.envelopes, dense.envelopes):
        assert np.abs(a.g_n.values - b.g_n.values).max() <= 1e-12
        assert abs(a.alpha - b.alpha) <= ENVELOPE_TOL
