import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticelab.core import (
    Carrier,
    LatticeElement,
    SpaceTag,
    Tail,
    abs_,
    difference,
    join,
    le,
    meet,
    member_of,
    ones,
    p_norm,
    pos_part,
    sup_norm,
    tail_le,
    tail_max,
    tail_min,
    truncate,
)
from latticelab.errors import CarrierMismatchError, InputError, UndecidableTailError


def elem(values, tail=None):
    values = np.asarray(values, dtype=np.float64)
    return LatticeElement(Carrier.index_set(len(values)), values, tail or Tail.zero())


# ---------------------------------------------------------------------------
# construction guards


def test_rejects_nan_values():
    with pytest.raises(InputError):
        elem([1.0, math.nan])


def test_rejects_infinite_values():
    with pytest.raises(InputError):
        elem([math.inf, 0.0])


def test_rejects_size_mismatch():
    with pytest.raises(InputError):
        LatticeElement(Carrier.index_set(3), np.zeros(2), Tail.zero())


def test_carrier_mismatch_is_loud():
    with pytest.raises(CarrierMismatchError):
        meet(elem([1.0]), elem([1.0, 2.0]))


def test_index_set_carrier_needs_positive_size():
    with pytest.raises(InputError):
        Carrier.index_set(0)


# ---------------------------------------------------------------------------
# lattice operations, pinned examples


def test_meet_pointwise_minimum():
    got = meet(elem([1.0, 0.0, 2.0]), elem([0.0, 3.0, 2.0]))
    assert np.array_equal(got.values, [0.0, 0.0, 2.0])


def test_meet_idempotent():
    f = elem([0.5, -1.0, 3.0])
    assert np.array_equal(meet(f, f).values, f.values)


def test_meet_of_decreasing_hats_is_the_later_hat():
    from latticelab.counterexamples import build_refinement, hat_family

    space = build_refinement("accumulation", [10]).space_at(10)
    fam = hat_family(space, "x0", 4)
    f2, f3 = fam.member(2), fam.member(3)
    assert np.array_equal(meet(f2, f3).values, f3.values)


def test_abs_example():
    assert np.array_equal(abs_(elem([-1.0, 2.0, 0.0])).values, [1.0, 2.0, 0.0])


def test_truncate_caps_at_u():
    got = truncate(elem([5.0, -5.0]), elem([1.0, 1.0]))
    assert np.array_equal(got.values, [1.0, 1.0])


def test_truncate_at_zero_is_zero():
    x = elem([3.0, -2.0, 0.25])
    got = truncate(x, elem([0.0, 0.0, 0.0]))
    assert np.array_equal(got.values, [0.0, 0.0, 0.0])


def test_truncate_rejects_negative_cap():
    with pytest.raises(InputError):
        truncate(elem([1.0]), elem([-0.5]))


def test_pos_part_and_difference():
    a, b = elem([1.0, -2.0]), elem([0.5, 1.0])
    assert np.array_equal(pos_part(a).values, [1.0, 0.0])
    assert np.array_equal(difference(a, b).values, [0.5, -3.0])


# ---------------------------------------------------------------------------
# membership, pinned examples


def harmonic_prefix(tail):
    return elem([1.0, 0.5, 1.0 / 3.0], tail)


def test_power_tail_not_in_l1():
    x = harmonic_prefix(Tail.power(exponent=1.0, scale=1.0))
    verdict = member_of(x, SpaceTag.lp(1.0))
    assert not verdict
    assert "diverges" in verdict.reason


def test_power_tail_in_l2():
    x = harmonic_prefix(Tail.power(exponent=1.0, scale=1.0))
    assert member_of(x, SpaceTag.lp(2.0))


def test_power_tail_in_c0():
    x = harmonic_prefix(Tail.power(exponent=1.0, scale=1.0))
    assert member_of(x, SpaceTag.c0())


def test_constant_tail_in_linf_not_c0():
    x = harmonic_prefix(Tail.constant(0.5))
    assert member_of(x, SpaceTag.linf())
    assert not member_of(x, SpaceTag.c0())


def test_undeclared_tail_is_a_refusal_not_a_no():
    x = harmonic_prefix(Tail.none())
    with pytest.raises(UndecidableTailError):
        member_of(x, SpaceTag.c0())


def test_function_tags_need_a_points_carrier():
    with pytest.raises(InputError):
        member_of(elem([1.0]), SpaceTag.lip_b())


def test_lip_b_reason_reports_the_constant():
    from latticelab.metric import FiniteMetricSpace

    space = FiniteMetricSpace.from_coords(np.array([[0.0], [1.0]]), ["a", "b"])
    f = LatticeElement(Carrier.points(space), np.array([0.0, 3.0]))
    verdict = member_of(f, SpaceTag.lip_b())
    assert verdict and verdict.data["constant"] == 3.0


def test_lp_tag_validates_p():
    with pytest.raises(InputError):
        SpaceTag.lp(0.5)


# ---------------------------------------------------------------------------
# norms


def test_sup_norm_uses_the_tail():
    x = elem([0.25], Tail.constant(2.0))
    assert sup_norm(x) == 2.0


def test_p_norm_power_tail_matches_series():
    x = elem([1.0], Tail.power(exponent=1.0, scale=1.0))
    # sum_{j>=1} j**-2 = pi**2 / 6; the prefix replaces the j=1 term exactly
    assert p_norm(x, 2.0) == pytest.approx(math.sqrt(math.pi**2 / 6.0), rel=1e-12)


def test_p_norm_divergent_tail_is_inf():
    x = elem([1.0], Tail.power(exponent=1.0, scale=1.0))
    assert p_norm(x, 1.0) == math.inf


# ---------------------------------------------------------------------------
# property tests: the operations are selections, so everything is exact


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def triples(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    vec = st.lists(finite, min_size=n, max_size=n)
    return elem(draw(vec)), elem(draw(vec)), elem(draw(vec))


@given(triples())
def test_lattice_axioms(abc):
    a, b, c = abc
    assert np.array_equal(meet(a, b).values, meet(b, a).values)
    assert np.array_equal(join(a, b).values, join(b, a).values)
    assert np.array_equal(meet(meet(a, b), c).values, meet(a, meet(b, c)).values)
    assert np.array_equal(join(join(a, b), c).values, join(a, join(b, c)).values)
    assert np.array_equal(meet(a, join(a, b)).values, a.values)
    assert np.array_equal(join(a, meet(a, b)).values, a.values)


@given(triples())
def test_abs_is_join_with_negation(abc):
    a, _, _ = abc
    neg = LatticeElement(a.carrier, -a.values, a.tail)
    assert np.array_equal(abs_(a).values, join(a, neg).values)


@given(triples())
def test_truncate_bounds(abc):
    a, b, _ = abc
    u = abs_(b)
    t = truncate(a, u)
    assert np.all(t.values <= u.values)
    assert np.all(t.values <= np.abs(a.values))
    assert le(t, u)


@st.composite
def dominated_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    y_vals = draw(st.lists(finite, min_size=n, max_size=n))
    scale = draw(st.floats(min_value=0.0, max_value=1.0))
    x_vals = [v * scale for v in y_vals]
    kind = draw(st.sampled_from(["zero", "power", "constant"]))
    if kind == "zero":
        ty = tx = Tail.zero()
    elif kind == "power":
        e = draw(st.floats(min_value=0.1, max_value=3.0))
        ty, tx = Tail.power(exponent=e, scale=1.0), Tail.power(exponent=e, scale=scale)
    else:
        c = draw(st.floats(min_value=0.1, max_value=5.0))
        ty, tx = Tail.constant(c), Tail.constant(c * scale)
    return elem(x_vals, tx), elem(y_vals, ty)


@given(dominated_pairs(), st.sampled_from(["c0", "linf", "l1", "l2"]))
def test_membership_monotone_under_domination(pair, tag_name):
    x, y = pair
    tag = {"c0": SpaceTag.c0(), "linf": SpaceTag.linf(),
           "l1": SpaceTag.lp(1.0), "l2": SpaceTag.lp(2.0)}[tag_name]
    if member_of(y, tag):
        assert member_of(x, tag)


def test_meet_of_mismatched_tail_kinds_degrades_to_undeclared():
    # min(1/j, 0.25) over j >= 2 switches branch at j = 4: not representable
    a = elem([1.0], Tail.power(exponent=1.0, scale=1.0))
    b = elem([1.0], Tail.constant(0.25))
    got = meet(a, b)
    assert got.tail.kind == "none"
    with pytest.raises(UndecidableTailError):
        member_of(got, SpaceTag.c0())


def test_meet_keeps_a_representable_tail_combination():
    # min(1/j, 0.5) over j >= 2 is 1/j everywhere: kept exactly
    a = elem([1.0], Tail.power(exponent=1.0, scale=1.0))
    b = elem([1.0], Tail.constant(0.5))
    assert meet(a, b).tail == Tail.power(exponent=1.0, scale=1.0)


def test_ones_is_the_unit():
    u = ones(Carrier.index_set(3))
    assert np.array_equal(u.values, [1.0, 1.0, 1.0])
    assert u.tail.kind == "constant" and u.tail.value == 1.0


# ---------------------------------------------------------------------------
# tail algebra against pointwise values


def _at(t: Tail, j: int) -> float:
    """Coordinate j of tail t (the zero tail's value is 0.0)."""
    return t.scale * float(j) ** (-t.exponent) if t.kind == "power" else t.value


# levels and exponents on a small grid, so constants often meet a power's
# first value scale * first**-exponent exactly
_levels = st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])
_tails = st.one_of(st.just(Tail.zero()), _levels.map(Tail.constant),
                   st.builds(Tail.power, st.sampled_from([0.5, 1.0, 2.0]), _levels))


def test_a_divergent_tail_p_sum_is_inf_where_the_level_underflows():
    # 1e-200**2 underflows to 0.0, which must not turn the inf sum into nan
    for t in (Tail.constant(1e-200), Tail.power(0.5, 1e-200)):
        assert t.p_power_sum(2.0, 5) == math.inf


@given(_tails, _tails, st.sampled_from([1, 2, 4, 9]))
def test_a_decided_tail_comparison_holds_at_every_coordinate(a, b, first):
    window = range(first, first + 201)
    for select, pick in ((tail_min, min), (tail_max, max)):
        t = select(a, b, first)
        if t.decidable:
            assert all(_at(t, j) == pick(_at(a, j), _at(b, j)) for j in window), select
    below = tail_le(a, b, first)
    if below is not None:
        assert below == all(_at(a, j) <= _at(b, j) for j in window)
    if below:
        assert tail_min(a, b, first) == a and tail_max(a, b, first) == b
    for p in (1.0, 2.0, 2.5):
        direct = math.fsum(abs(_at(a, j)) ** p for j in window)
        assert math.isclose(a.p_power_sum(p, first, first + 201), direct, rel_tol=1e-12)
