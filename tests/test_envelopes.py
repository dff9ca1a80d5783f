import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticelab import envelopes, metric
from latticelab.core import Carrier, LatticeElement
from latticelab.envelopes import (
    ENVELOPE_TOL,
    SLOPE_ULPS,
    ClosedForm,
    ModulusCurve,
    error_bound,
    inf_convolution,
    inf_convolution_ladder,
    lipschitz_constant,
    modulus_of_continuity,
    _distinct_rows,
)
from latticelab.errors import InputError
from latticelab.metric import FiniteMetricSpace, discreteness_constant


def fn(coords, values, labels=None):
    space = FiniteMetricSpace.from_coords(np.asarray(coords, dtype=float), labels)
    return LatticeElement(Carrier.points(space), np.asarray(values, dtype=float))


def sqrt_profile(m):
    """sqrt on the uniform grid {j/m^2 : j = 0..m^2}."""
    xs = np.arange(m * m + 1, dtype=np.float64) / (m * m)
    return fn(xs, np.sqrt(xs))


# ---------------------------------------------------------------------------
# modulus of continuity


def test_modulus_of_a_constant_is_zero():
    g = fn([0.0, 1.0, 2.5], [7.0, 7.0, 7.0])
    curve = modulus_of_continuity(g)
    assert curve.exact
    assert np.all(curve.values == 0.0)


def test_modulus_of_the_identity_on_three_points():
    g = fn([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    curve = modulus_of_continuity(g)
    assert list(curve.thresholds) == [0.5, 1.0]
    assert list(curve.values) == [0.5, 1.0]
    assert curve.jump_at(0.3) == 0.0
    assert curve.jump_at(0.5) == 0.5
    assert curve.jump_at(0.75) == 0.5
    assert curve.jump_at(2.0) == 1.0


def test_modulus_of_sqrt_is_sqrt_at_the_grid():
    g = sqrt_profile(10)
    curve = modulus_of_continuity(g)
    # the widest oscillation within distance j/100 is the pair (0, j/100)
    for j in (1, 7, 50, 100):
        assert curve.jump_at(j / 100.0) == math.sqrt(j / 100.0)


def test_modulus_needs_points_carrier():
    x = LatticeElement(Carrier.index_set(3), np.zeros(3))
    with pytest.raises(InputError):
        modulus_of_continuity(x)


def test_supplied_grid_must_reach_the_diameter():
    g = fn([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(InputError, match="exceeds the last threshold"):
        modulus_of_continuity(g, grid=[0.5])


def test_supplied_grid_route_brackets_the_exact_curve():
    g = sqrt_profile(10)
    exact = modulus_of_continuity(g)
    coarse = modulus_of_continuity(g, grid=np.linspace(0.0, 1.0, 21))
    assert not coarse.exact
    for t in coarse.thresholds:
        # left-binning pushes each pair to the next grid line, so the
        # coarse curve dominates the exact one at its own thresholds
        assert coarse.jump_at(t) >= exact.jump_at(t) - 1e-15


def test_modulus_curve_validation():
    with pytest.raises(InputError):
        ModulusCurve(np.array([0.0]), np.array([0.0]), 1.0, exact=True)
    with pytest.raises(InputError):
        ModulusCurve(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 1.0, exact=True)
    with pytest.raises(InputError):
        ModulusCurve(np.array([1.0, 2.0]), np.array([1.0, 0.5]), 1.0, exact=True)
    with pytest.raises(InputError, match="twice the sup norm"):
        ModulusCurve(np.array([1.0]), np.array([5.0]), 1.0, exact=True)


# ---------------------------------------------------------------------------
# error bound alpha_n


def test_error_bound_of_zero_modulus():
    g = fn([0.0, 1.0], [3.0, 3.0])
    curve = modulus_of_continuity(g)
    res = error_bound(curve, 1)
    assert res.alpha == 0.0
    assert res.argmax_t == 0.0


def test_error_bound_sqrt_closed_form_is_quarter_over_n():
    cf = ClosedForm.sqrt(1.0, cap=2.0, domain_max=1.0)
    curve = ModulusCurve(np.empty(0), np.empty(0), 1.0, exact=False, closed_form=cf)
    res = error_bound(curve, 1)
    assert res.alpha == 0.25
    assert res.argmax_t == 0.25
    for n in (2, 3, 8, 100):
        assert error_bound(curve, n).alpha == pytest.approx(1.0 / (4 * n), rel=1e-12)


def test_error_bound_linear_closed_form_vanishes_at_the_slope():
    cf = ClosedForm.linear(5.0, cap=10.0, domain_max=3.0)
    curve = ModulusCurve(np.empty(0), np.empty(0), 5.0, exact=False, closed_form=cf)
    assert error_bound(curve, 5).alpha == 0.0
    assert error_bound(curve, 6).alpha == 0.0
    assert error_bound(curve, 4).alpha > 0.0


def test_error_bound_matches_grid_refined_maximization():
    g = sqrt_profile(10)
    curve = modulus_of_continuity(g)
    for n in (1, 2):
        res = error_bound(curve, n)
        oracle = max(
            math.sqrt(j / 100.0) - n * (j / 100.0) for j in range(101)
        )
        assert res.alpha == pytest.approx(oracle, abs=1e-15)


def test_error_bound_threshold_t0_certifies_a_resolution():
    g = sqrt_profile(10)
    curve = modulus_of_continuity(g)
    res = error_bound(curve, 2)
    assert curve.jump_at(res.threshold_t0) <= res.alpha


def test_error_bound_rejects_bad_n():
    curve = ModulusCurve(np.empty(0), np.empty(0), 1.0, exact=True)
    for bad in (0, -1, math.inf, "3"):
        with pytest.raises(InputError):
            error_bound(curve, bad)


def test_closed_form_validation():
    with pytest.raises(InputError):
        ClosedForm(1.0, 1.5, 1.0, 1.0)
    with pytest.raises(InputError):
        ClosedForm(-1.0, 0.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# inf-convolution envelopes


def test_already_lipschitz_function_is_its_own_envelope():
    g = fn([0.0, 1.0, 2.0], [0.0, 2.0, 4.0])  # slope 2 everywhere
    res = inf_convolution(g, 2)
    assert np.array_equal(res.g_n.values, g.values)
    assert res.achieved_error == 0.0
    assert res.lipschitz == 2.0


def test_isolated_indicator_survives_when_n_covers_the_radius():
    # indicator of a point at isolation radius 0.5: n*r >= 1 keeps it intact
    g = fn([0.0, 0.5, 1.0], [1.0, 0.0, 0.0])
    res = inf_convolution(g, 2)
    assert np.array_equal(res.g_n.values, g.values)
    shallow = inf_convolution(g, 1)
    assert shallow.g_n.values[0] == 0.5  # flattened to n * r


def test_sqrt_envelope_error_meets_the_analytic_bound():
    g = sqrt_profile(10)
    for n in (1, 2, 4):
        res = inf_convolution(g, n)
        assert res.achieved_error <= 1.0 / (4 * n) + 1e-9


def test_sqrt_envelope_alpha_uses_the_closed_form_when_supplied():
    g = sqrt_profile(10)
    curve = modulus_of_continuity(g)
    curve = dataclasses.replace(
        curve, closed_form=ClosedForm.sqrt(1.0, cap=2.0, domain_max=1.0)
    )
    res = inf_convolution(g, 2, modulus=curve)
    assert res.alpha == pytest.approx(0.125, rel=1e-12)
    assert res.achieved_error <= res.alpha + 1e-9


def test_ladder_agrees_with_single_calls():
    g = sqrt_profile(6)
    ladder = inf_convolution_ladder(g, [1, 2, 4])
    for res in ladder:
        single = inf_convolution(g, res.n)
        assert np.array_equal(res.g_n.values, single.g_n.values)
        assert res.alpha == single.alpha


@pytest.mark.parametrize("dense", [False, True], ids=["coords", "matrix"])
def test_the_ladder_scans_each_distinct_rung_once(dense, monkeypatch):
    rng = np.random.default_rng(8)
    space = FiniteMetricSpace.from_coords(rng.uniform(size=(120, 2)))
    if dense:
        space = FiniteMetricSpace.from_matrix(space.row_block(0, space.n), space.labels,
                                              validate=False)
    g = LatticeElement(Carrier.points(space),
                       np.minimum(np.sqrt(metric.dist_to_set_all(space, ["p000"])), 1.0))
    ns = [1, 2, 4, 8, 16, 32, 64]
    scanned = []
    real = metric.max_slope
    monkeypatch.setattr(metric, "max_slope",
                        lambda sp, v: scanned.append(len(v)) or real(sp, v))
    ladder = inf_convolution_ladder(g, ns)
    rungs = np.stack([r.g_n.values for r in ladder])
    assert np.array_equal(rungs[-1], g.values)  # the top rungs equal g
    assert scanned == [len(_distinct_rows(rungs)[0])] and scanned[0] < len(ns)
    for r in ladder:  # each rung's slope and pair, as a scan of that rung alone
        assert (r.lipschitz, r.pair) == real(space, r.g_n.values)


def test_distinct_rows_tell_the_zeros_apart():
    first, at = _distinct_rows(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]))
    assert first == [0, 1] and at == [0, 1, 0, 1]


def test_inf_convolution_rejects_bad_parameters():
    g = fn([0.0, 1.0], [0.0, 1.0])
    for bad in (0, -3, 1.5):
        with pytest.raises(InputError):
            inf_convolution(g, bad)
    with pytest.raises(InputError):
        inf_convolution_ladder(g, [])
    with pytest.raises(InputError):
        inf_convolution(LatticeElement(Carrier.index_set(2), np.zeros(2)), 1)


# ---------------------------------------------------------------------------
# lipschitz constant


def test_lipschitz_constant_element_and_raw_routes_agree():
    g = fn([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
    c1, p1 = lipschitz_constant(g)
    c2, p2 = lipschitz_constant(g.values, g.carrier.space)
    assert (c1, p1) == (c2, p2)
    assert c1 == 2.0


def test_lipschitz_constant_needs_a_space_for_raw_values():
    with pytest.raises(InputError):
        lipschitz_constant(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# envelope invariants, property-tested


@st.composite
def lattice_functions(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    pts = draw(
        st.lists(st.integers(min_value=0, max_value=200), min_size=n, max_size=n, unique=True)
    )
    vals = draw(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=64),
            min_size=n,
            max_size=n,
        )
    )
    return fn(np.array(pts, dtype=float) * 0.125, vals)


@given(lattice_functions(), st.sampled_from([1, 2, 4, 8]))
def test_envelope_invariants(g, n):
    res = inf_convolution(g, n)
    env = res.g_n.values
    assert np.all(env <= g.values)
    assert np.all(g.values - env <= res.alpha + 1e-9 * max(1.0, abs(g.values).max()))
    assert res.lipschitz <= n + 1e-9
    # pairwise quotient check, brute force
    space = g.carrier.space
    for i in range(space.n):
        for j in range(i + 1, space.n):
            assert abs(env[i] - env[j]) <= n * space.distance(i, j) + 1e-9


@given(lattice_functions())
def test_envelopes_increase_with_n(g):
    ladder = inf_convolution_ladder(g, [1, 2, 4, 8, 16])
    for lower, higher in zip(ladder, ladder[1:]):
        assert np.all(lower.g_n.values <= higher.g_n.values + 1e-15)


@given(lattice_functions())
def test_error_bound_decreases_to_zero_along_doubling(g):
    curve = modulus_of_continuity(g)
    alphas = [error_bound(curve, 2**k).alpha for k in range(12)]
    assert all(a >= b for a, b in zip(alphas, alphas[1:]))
    lips, _ = lipschitz_constant(g)
    assert error_bound(curve, max(1, math.ceil(lips))).alpha <= 1e-12 or alphas[-1] < alphas[0]


@given(lattice_functions())
def test_achieved_error_never_exceeds_alpha(g):
    for res in inf_convolution_ladder(g, [1, 3, 9]):
        assert res.achieved_error <= res.alpha + 1e-9 * max(1.0, abs(g.values).max())


# ---------------------------------------------------------------------------
# the two-pass distance transform on the line against the dense sweep


@st.composite
def line_functions(draw):
    # gaps down to 1e-8 and |g| up to about 300: the rounding of the
    # envelope slopes (about ulp(|g|) / gap) then reaches well past 1e-9
    n = draw(st.integers(min_value=1, max_value=2048))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    step = 10.0 ** -draw(st.integers(min_value=0, max_value=8))
    x = rng.choice(np.arange(-4 * n, 4 * n), size=n, replace=False) * step
    kind = draw(st.sampled_from(["normal", "sqrt", "steps"]))
    values = {
        "normal": lambda: rng.standard_normal(n) * 10.0 ** draw(st.integers(-2, 2)),
        "sqrt": lambda: np.minimum(np.sqrt(np.abs(x - x[0])), 1.0),
        "steps": lambda: rng.integers(0, 2, size=n).astype(np.float64),
    }[kind]()
    return fn(x, values)


def dense_twin(g):
    """g on the same points behind an explicit |x_i - x_j| matrix."""
    space = g.carrier.space
    dense = FiniteMetricSpace.from_matrix(space.row_block(0, space.n), space.labels,
                                          validate=False)
    return LatticeElement(Carrier.points(dense), g.values)


@given(line_functions(), st.lists(st.integers(min_value=1, max_value=512),
                                  min_size=1, max_size=6))
def test_line_ladder_agrees_with_the_dense_sweep(g, ns):
    line = inf_convolution_ladder(g, ns)
    dense = inf_convolution_ladder(dense_twin(g), ns)
    scale = max(1.0, float(np.abs(g.values).max()))
    for a, b in zip(line, dense):
        assert np.abs(a.g_n.values - b.g_n.values).max() <= 1e-12 * scale
        assert abs(a.alpha - b.alpha) <= ENVELOPE_TOL


@given(line_functions())
def test_line_rungs_sit_exactly_below_g_and_rise_exactly_with_n(g):
    stack = np.stack([r.g_n.values for r in inf_convolution_ladder(g, range(1, 21))])
    assert np.all(stack <= g.values)
    assert np.all(np.diff(stack, axis=0) >= 0.0)


def per_index_line_ladder(space, gv, ns, need_alpha):
    """The line ladder's two passes as a loop over point indices, each step
    a fresh sum: the oracle of the row-view passes."""
    order = space.line_order
    rates = np.array(ns * (1 + need_alpha), dtype=np.float64)
    h = np.stack([gv[order]] * len(ns) + [-gv[order]] * (len(ns) * need_alpha), axis=1)
    with np.errstate(over="ignore"):
        step = np.diff(space.coords[order, 0])[:, None] * rates[None, :]
    for i in range(1, h.shape[0]):
        np.minimum(h[i], h[i - 1] + step[i - 1], out=h[i])
    for i in range(h.shape[0] - 2, -1, -1):
        np.minimum(h[i], h[i + 1] + step[i], out=h[i])
    env = np.empty((len(ns), space.n))
    env[:, order] = h[:, :len(ns)].T
    alpha = np.zeros(len(ns))
    if need_alpha:
        alpha = np.maximum(0.0, (-h[:, len(ns):] - gv[order][:, None]).max(axis=0))
    return env, alpha


#: near coordinates, and far ones whose gaps times 10**10 run past the float
#: range; values with -0.0
_far_points = st.lists(st.one_of(st.floats(-4.0, 4.0), st.floats(-1e299, 1e299)),
                       min_size=1, max_size=40, unique=True)
_line_values = st.one_of(st.floats(-300.0, 300.0), st.sampled_from([0.0, -0.0, 1.0]))


_rungs = st.lists(st.sampled_from([1, 2, 3, 64, 10**10]) | st.integers(1, 10**12),
                 min_size=1, max_size=5)


@given(_far_points, st.data(), _rungs, st.booleans())
def test_line_ladder_passes_equal_the_per_index_loop_bit_for_bit(xs, data, ns, need_alpha):
    space = FiniteMetricSpace.from_coords(np.array(xs)[:, None])
    gv = np.array(data.draw(st.lists(_line_values, min_size=len(xs), max_size=len(xs))))
    got = envelopes._line_ladder(space, gv, ns, need_alpha)
    want = per_index_line_ladder(space, gv, ns, need_alpha)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_line_ladder_passes_equal_the_per_index_loop_on_the_sqrt_ladder():
    xs = np.concatenate(([0.0, 1e300], 1.0 / np.arange(1, 1201)))
    space = FiniteMetricSpace.from_coords(xs[:, None])
    gv = -np.minimum(np.sqrt(np.abs(xs)), 1.0)  # -0.0 at the anchor
    ns = [1, 10**10, *range(2, 21)]
    for a, b in zip(envelopes._line_ladder(space, gv, ns, True),
                    per_index_line_ladder(space, gv, ns, True)):
        assert a.tobytes() == b.tobytes()


def test_sqrt_ladder_rungs_keep_their_exact_order_on_the_accumulation_line():
    xs = np.concatenate(([0.0], 1.0 / np.arange(1, 2001)))
    g = fn(xs, np.minimum(np.sqrt(xs), 1.0))
    stack = np.stack([r.g_n.values for r in inf_convolution_ladder(g, range(1, 21))])
    assert np.all(stack <= g.values)
    assert np.all(np.diff(stack, axis=0) >= 0.0)


@pytest.mark.parametrize("route", ["line", "dense"])
def test_slope_rounding_on_tight_gaps_is_no_lipschitz_breach(route):
    # gaps of 1e-8..1e-6 under |g| of 3..300: a rung's measured slope reads
    # up to about ulp(max|g|) / delta = 6e-8 above n from rounding alone
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = np.cumsum(rng.uniform(1e-8, 1e-6, 300))
        g = fn(x, rng.choice([-1.0, 1.0], 300) * rng.uniform(3.0, 300.0, 300))
        if route == "dense":
            g = dense_twin(g)
        slack = SLOPE_ULPS * np.spacing(g.max_abs_prefix()) / discreteness_constant(
            g.carrier.space)
        for res in inf_convolution_ladder(g, [1, 2, 4, 8, 16, 32]):
            assert np.all(res.g_n.values <= g.values)
            assert res.lipschitz <= res.n + ENVELOPE_TOL + slack


def test_a_dense_ladder_holds_a_few_tiles_not_a_distance_block():
    # one 2000 x 2000 block alone takes 32 MB
    rng = np.random.default_rng(0)
    space = FiniteMetricSpace.from_coords(rng.uniform(size=(2000, 2)))
    g = LatticeElement(Carrier.points(space), rng.uniform(size=2000))
    tracemalloc.start()
    try:
        inf_convolution_ladder(g, range(1, 33))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
