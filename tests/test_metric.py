import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticelab import metric
from latticelab.core import Carrier, LatticeElement, SpaceTag, member_of
from latticelab.errors import InputError, MetricValidationError
from latticelab.metric import (
    FiniteMetricSpace,
    _coord_distances,
    discreteness_constant,
    dist_to_set,
    dist_to_set_all,
    find_close_pair,
    isolation_profile,
    isolation_radii,
    isolation_radius,
    max_slope,
    validate_matrix,
)


def harmonic_space(n, with_zero=True):
    pts = [0.0] if with_zero else []
    labels = ["x0"] if with_zero else []
    pts += [1.0 / k for k in range(1, n + 1)]
    labels += [f"p{k:02d}" for k in range(1, n + 1)]
    return FiniteMetricSpace.from_coords(np.array(pts), labels)


def grid_space(n):
    return FiniteMetricSpace.from_coords(np.arange(n, dtype=float))


# ---------------------------------------------------------------------------
# validation


def test_singleton_matrix_is_valid():
    validate_matrix(np.array([[0.0]]))


def test_two_point_matrix_is_valid():
    validate_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_triangle_violation_names_the_triple():
    m = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    with pytest.raises(MetricValidationError) as exc:
        validate_matrix(m)
    (axiom, idx, detail), = exc.value.violations
    assert axiom == "triangle"
    assert idx == (0, 1, 2)
    assert "d(0,2) = 3.0 > d(0,1) + d(1,2) = 2.0" in detail


def test_symmetry_violation():
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(MetricValidationError) as exc:
        validate_matrix(m)
    assert exc.value.violations[0][0] == "symmetry"
    assert "d(0,1) = 1.0 but d(1,0) = 2.0" in exc.value.violations[0][2]


def test_diagonal_violation():
    m = np.array([[0.5]])
    with pytest.raises(MetricValidationError) as exc:
        validate_matrix(m)
    assert exc.value.violations[0][0] == "zero-diagonal"


def test_positivity_violation():
    m = np.zeros((2, 2))
    with pytest.raises(MetricValidationError) as exc:
        validate_matrix(m)
    assert exc.value.violations[0][0] == "positivity"


def test_nonfinite_entry_reported_first():
    m = np.array([[0.0, math.inf], [math.inf, 0.0]])
    with pytest.raises(MetricValidationError) as exc:
        validate_matrix(m)
    assert exc.value.violations[0][0] == "finiteness"


def triangle_loop(matrix):
    """Every pivot's triangle scan with no gate, as (violations, truncated)."""
    tol = metric.TRIANGLE_RTOL * float(matrix.max(initial=0.0))
    viols, truncated = [], False
    for j in range(matrix.shape[0]):
        through = matrix[:, j][:, None] + matrix[j, :][None, :]
        for i, k in np.argwhere(matrix > through + tol):
            if i > k:
                continue
            if len(viols) == metric.VIOLATION_CAP:
                truncated = True
                continue
            viols.append(("triangle", (int(i), int(j), int(k)),
                          f"d({i},{k}) = {float(matrix[i, k])!r} > d({i},{j}) + d({j},{k}) "
                          f"= {float(through[i, k])!r}"))
        if truncated:
            break
    return viols, truncated


def triangle_cases():
    rng = np.random.default_rng(7)
    valid = FiniteMetricSpace.from_coords(rng.uniform(size=(40, 2))).row_block(0, 40)
    planted = valid.copy()
    for i, k in ((0, 5), (3, 30), (12, 13)):
        planted[i, k] = planted[k, i] = 1.5 * valid[i, k] + 0.5
    x = np.array([0.0, 1.0, 2.0, 4.0])
    line = np.abs(x[:, None] - x[None, :])
    at_tol, above_tol = line.copy(), line.copy()
    at_tol[0, 2] = at_tol[2, 0] = 2.0 + metric.TRIANGLE_RTOL * 4.0  # d(0,1) + d(1,2) + tol
    above_tol[0, 2] = above_tol[2, 0] = np.nextafter(at_tol[0, 2], np.inf)
    many = np.triu(rng.uniform(1.0, 10.0, size=(40, 40)), 1)
    return {"valid": valid, "planted": planted, "at-tol": at_tol,
            "above-tol": above_tol, "many": many + many.T}


@pytest.mark.parametrize("case", ["valid", "planted", "at-tol", "above-tol", "many"])
def test_the_gated_triangle_check_reports_what_the_pivot_loop_does(case):
    m = triangle_cases()[case]
    want, truncated = triangle_loop(m)
    assert bool(want) == (case not in ("valid", "at-tol"))
    assert truncated == (case == "many")
    if not want:
        validate_matrix(m)
        return
    with pytest.raises(MetricValidationError) as exc:
        validate_matrix(m)
    assert exc.value.violations == want
    assert exc.value.truncated == truncated


def test_coincident_coords_rejected_with_labels():
    with pytest.raises(MetricValidationError) as exc:
        FiniteMetricSpace.from_coords(np.array([0.0, 1.0, 1.0]), ["a", "b", "c"])
    axiom, _, detail = exc.value.violations[0]
    assert axiom == "positivity"
    assert "'b'" in detail and "'c'" in detail


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        FiniteMetricSpace.from_coords(np.array([0.0, 1.0]), ["a", "a"])


def test_from_matrix_validates_by_default():
    with pytest.raises(MetricValidationError):
        FiniteMetricSpace.from_matrix([[0.0, 1.0], [2.0, 0.0]])


# ---------------------------------------------------------------------------
# isolation radii and the discreteness constant


def test_isolation_radius_at_the_accumulation_point():
    space = harmonic_space(10)
    assert isolation_radius(space, "x0") == pytest.approx(0.1, abs=1e-15)
    # the point 1 sees its nearest neighbour at 1/2
    assert isolation_radius(space, "p01") == pytest.approx(0.5, abs=1e-15)


def test_singleton_isolation_is_infinite():
    space = FiniteMetricSpace.from_coords(np.array([3.0]), ["only"])
    assert isolation_radius(space, "only") == math.inf
    assert discreteness_constant(space) == math.inf


def test_coordinates_whose_distances_overflow_are_refused_naming_two_points():
    with pytest.raises(InputError, match=r"distances overflow: points 'lo' and 'hi' lie inf "
                                         r"apart in coordinate 1"):
        FiniteMetricSpace.from_coords(np.array([[1e308], [0.0], [-1e308]]), ["hi", "z", "lo"])
    # on two columns the squared spans overflow first
    with pytest.raises(InputError, match="points 'b' and 'a' lie 2e[+]200 apart in coordinate 2"):
        FiniteMetricSpace.from_coords(np.array([[0.0, 1e200], [1.0, -1e200]]), ["a", "b"])
    # one column is summed without squares, so the same span is fine there
    line = FiniteMetricSpace.from_coords(np.array([1e200, -1e200]), ["a", "b"])
    assert line.distance("a", "b") == 2e200


def test_integer_grid_discreteness():
    assert discreteness_constant(grid_space(10)) == 1.0


def test_two_point_discreteness():
    space = FiniteMetricSpace.from_coords(np.array([0.0, 0.25]))
    assert discreteness_constant(space) == 0.25


@pytest.mark.parametrize("n", [5, 10, 50])
def test_harmonic_discreteness_matches_pair_scan(n):
    space = harmonic_space(n, with_zero=False)
    got = discreteness_constant(space)
    # independent O(n^2) oracle over explicit pair distances
    pts = [1.0 / k for k in range(1, n + 1)]
    oracle = min(
        abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]
    )
    assert got == oracle
    assert got == pytest.approx(1.0 / (n * (n - 1)), rel=1e-14)


def test_profile_delta_is_the_minimum_radius():
    space = harmonic_space(10)
    prof = isolation_profile(space)
    assert prof.delta == float(prof.radii.min())
    assert prof.radius("x0") == isolation_radius(space, "x0")
    assert prof.delta == discreteness_constant(space)


# ---------------------------------------------------------------------------
# distance to a set


def test_dist_to_set_examples():
    space = grid_space(6)
    assert dist_to_set(space, "p5", ["p0", "p1"]) == 4.0
    assert dist_to_set(space, "p1", ["p1"]) == 0.0
    all_d = dist_to_set_all(space, ["p0", "p1"])
    assert list(all_d) == [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]


def test_dist_to_set_requires_targets():
    with pytest.raises(InputError):
        dist_to_set(grid_space(3), "p0", [])


def test_dist_to_set_unknown_label():
    with pytest.raises(InputError):
        dist_to_set(grid_space(3), "p0", ["nope"])


# ---------------------------------------------------------------------------
# close-pair search


def test_close_pair_found_in_the_harmonic_crowd():
    space = harmonic_space(50, with_zero=False)
    got = find_close_pair(space, excluded=set(), eps=0.01)
    assert got is not None
    a, b = got
    assert a != b
    assert space.distance(a, b) < 0.01


def test_close_pair_none_on_the_integer_grid():
    space = grid_space(10)
    assert find_close_pair(space, excluded=set(), eps=0.5) is None
    # exhaustive confirmation that None is the right answer
    m = space.matrix
    off = m[~np.eye(10, dtype=bool)]
    assert off.min() >= 0.5


def test_close_pair_respects_exclusion():
    # two clusters; the tighter one is fully excluded
    coords = np.array([0.0, 0.001, 10.0, 10.01])
    space = FiniteMetricSpace.from_coords(coords, ["a1", "a2", "b1", "b2"])
    got = find_close_pair(space, excluded={"a1", "a2"}, eps=0.1)
    assert got == ("b1", "b2")


def test_close_pair_excluding_everything_gives_none():
    space = grid_space(3)
    assert find_close_pair(space, excluded={"p0", "p1", "p2"}, eps=10.0) is None


def test_close_pair_rejects_bad_eps_and_labels():
    space = grid_space(3)
    with pytest.raises(InputError):
        find_close_pair(space, excluded=set(), eps=0.0)
    with pytest.raises(InputError):
        find_close_pair(space, excluded={"ghost"}, eps=1.0)


def test_close_pair_near_the_anchor():
    # with the accumulation point excluded, the closest pair is still two
    # of the deepest harmonic points
    space = harmonic_space(50)
    got = find_close_pair(space, excluded={"x0"}, eps=0.001)
    assert got is not None
    a, b = got
    assert "x0" not in (a, b)
    assert space.distance(a, b) < 0.001


# ---------------------------------------------------------------------------
# max slope


def test_max_slope_two_points():
    space = FiniteMetricSpace.from_coords(np.array([0.0, 1.0]), ["a", "b"])
    constant, pair = max_slope(space, np.array([0.0, 3.0]))
    assert constant == 3.0
    assert pair == ("a", "b")


def test_max_slope_needs_two_points():
    space = FiniteMetricSpace.from_coords(np.array([0.0]))
    with pytest.raises(InputError):
        max_slope(space, np.array([1.0]))


# ---------------------------------------------------------------------------
# property tests against brute-force oracles


@st.composite
def small_spaces(draw):
    # integer lattice scaled by an exact binary step: distances are well
    # separated, so no subnormal underflow can fake a zero distance
    n = draw(st.integers(min_value=2, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=2))
    pts = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=-400, max_value=400)] * dim),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    coords = np.array(pts, dtype=np.float64) * 0.125
    return FiniteMetricSpace.from_coords(coords)


@given(small_spaces())
def test_isolation_radii_match_brute_force(space):
    m = space.matrix
    for i in range(space.n):
        row = [m[i, j] for j in range(space.n) if j != i]
        assert isolation_radii(space)[i] == min(row)


@given(small_spaces())
def test_discreteness_is_the_min_pair_distance(space):
    m = space.matrix
    oracle = min(m[i, j] for i in range(space.n) for j in range(i + 1, space.n))
    assert discreteness_constant(space) == oracle


@given(small_spaces(), st.data())
def test_dist_to_set_matches_brute_force(space, data):
    k = data.draw(st.integers(min_value=1, max_value=space.n))
    targets = list(space.labels[:k])
    for lab in space.labels:
        oracle = min(space.distance(lab, t) for t in targets)
        assert dist_to_set(space, lab, targets) == oracle
    np.testing.assert_array_equal(
        dist_to_set_all(space, targets),
        [dist_to_set(space, lab, targets) for lab in space.labels],
    )


@given(small_spaces(), st.data())
def test_close_pair_postconditions(space, data):
    n_excl = data.draw(st.integers(min_value=0, max_value=space.n))
    excluded = set(data.draw(st.permutations(space.labels))[:n_excl])
    eps = data.draw(st.floats(min_value=1e-3, max_value=100.0))
    got = find_close_pair(space, excluded, eps)
    allowed = [lab for lab in space.labels if lab not in excluded]
    if got is None:
        # exhaustive scan must agree that nothing qualifies
        for i, a in enumerate(allowed):
            for b in allowed[i + 1:]:
                assert space.distance(a, b) >= eps
    else:
        a, b = got
        assert a != b
        assert a not in excluded and b not in excluded
        assert space.distance(a, b) < eps
        # the closest allowed pair, ties to the smallest index pair
        closest = min((space.distance(c, d), i, j)
                      for i, c in enumerate(space.labels) if c in allowed
                      for j, d in enumerate(space.labels) if j > i and d in allowed)
        assert (space.distance(a, b), space.index(a), space.index(b)) == closest


@given(small_spaces(), st.data())
def test_max_slope_matches_brute_force(space, data):
    values = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64),
                min_size=space.n,
                max_size=space.n,
            )
        )
    )
    constant, (a, b) = max_slope(space, values)
    oracle = max(
        abs(values[i] - values[j]) / space.matrix[i, j]
        for i in range(space.n)
        for j in range(i + 1, space.n)
    )
    assert constant == oracle
    i, j = space.index(a), space.index(b)
    assert abs(values[i] - values[j]) / space.matrix[i, j] == constant


@given(small_spaces(), st.booleans(), st.data())
def test_lip_b_constant_is_at_most_twice_the_sup_over_the_discreteness(space, as_matrix, data):
    # every pair has |x(a) - x(b)| <= 2 max|x| and d(a, b) >= delta; both
    # sides round monotonically from the same computed distances, so the
    # bound holds exactly in floats, on the line, coordinate and matrix routes
    if as_matrix:
        space = FiniteMetricSpace.from_matrix(space.matrix, space.labels)
    x = np.array(data.draw(st.lists(st.floats(min_value=-1e300, max_value=1e300, width=64),
                                    min_size=space.n, max_size=space.n)))
    delta = discreteness_constant(space)
    assert delta > 0
    membership = member_of(LatticeElement(Carrier.points(space), x), SpaceTag.lip_b())
    assert membership.data["constant"] <= 2 * np.abs(x).max() / delta


@given(small_spaces())
def test_subspace_preserves_distances(space):
    labels = list(space.labels[:: max(1, space.n // 3)])
    if len(labels) < 2:
        labels = list(space.labels[:2])
    sub = space.subspace(labels)
    for a in labels:
        for b in labels:
            assert sub.distance(a, b) == pytest.approx(space.distance(a, b), abs=1e-12)


@given(small_spaces())
def test_coords_matrix_is_a_valid_metric(space):
    validate_matrix(space.matrix)


# ---------------------------------------------------------------------------
# the sorted-order route on the line against the dense row scans


def dense_twin(space):
    """The same points behind an explicit |x_i - x_j| matrix: the dense route."""
    return FiniteMetricSpace.from_matrix(space.row_block(0, space.n), space.labels,
                                         validate=False)


@st.composite
def line_spaces(draw):
    n = draw(st.integers(min_value=2, max_value=2048))
    kind = draw(st.sampled_from(["lattice", "uniform", "harmonic", "wide"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "lattice":  # exact distances and many equal gaps
        x = rng.choice(np.arange(-4 * n, 4 * n), size=n, replace=False) * 0.125
    elif kind == "uniform":
        x = np.unique(rng.uniform(-1.0, 1.0, size=n))
    elif kind == "harmonic":
        x = np.concatenate(([0.0], 1.0 / np.arange(1, n)))
    else:  # sixteen decades of magnitude, so rounding shapes the distances
        x = np.unique(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n))
    return FiniteMetricSpace.from_coords(rng.permutation(x))


@given(line_spaces(), st.data())
def test_line_scans_are_bitwise_equal_to_the_dense_route(space, data):
    dense = dense_twin(space)
    assert space.line_order is not None and dense.line_order is None
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    np.testing.assert_array_equal(isolation_radii(space), isolation_radii(dense))
    delta = discreteness_constant(space)
    assert delta == discreteness_constant(dense)
    k = data.draw(st.integers(min_value=1, max_value=space.n))
    targets = list(rng.choice(space.labels, size=k, replace=False))
    np.testing.assert_array_equal(dist_to_set_all(space, targets),
                                  dist_to_set_all(dense, targets))
    n_excl = data.draw(st.sampled_from([0, 1, 2, space.n // 10, space.n // 2, space.n]))
    excluded = set(rng.choice(space.labels, size=n_excl, replace=False))
    eps = delta * data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 10.0, 1e3, 1e9]))
    assert find_close_pair(space, excluded, eps) == find_close_pair(dense, excluded, eps)


def test_line_close_pair_breaks_a_two_sided_tie_by_index():
    # p0 sits midway between p1 and p2; the row scan takes the smaller index
    space = FiniteMetricSpace.from_coords(np.array([1.0, 2.0, 0.0, 5.0]))
    assert find_close_pair(space, set(), 10.0) == ("p0", "p1")
    assert find_close_pair(dense_twin(space), set(), 10.0) == ("p0", "p1")


@given(line_spaces(), st.data())
def test_line_max_slope_agrees_with_the_dense_route(space, data):
    dense = dense_twin(space)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = space.coords[:, 0]
    kind = data.draw(st.sampled_from(["normal", "linear", "steps", "sqrt"]))
    values = {
        "normal": lambda: rng.standard_normal(space.n),
        "linear": lambda: 3.0 * x,  # every slope ties
        "steps": lambda: rng.integers(0, 3, size=space.n).astype(np.float64),
        "sqrt": lambda: np.sqrt(np.abs(x)),
    }[kind]()
    constant, (a, b) = max_slope(space, values)
    oracle, _ = max_slope(dense, values)
    assert abs(constant - oracle) <= 4 * np.spacing(oracle)
    i, j = space.index(a), space.index(b)
    assert i < j
    assert abs(values[i] - values[j]) / dense.matrix[i, j] == constant


def test_line_max_slope_ties_resolve_to_the_smallest_adjacent_pair():
    # f = x: every chord has slope 1; the adjacent pairs are (1,3), (0,3), (0,2)
    space = FiniteMetricSpace.from_coords(np.array([2.0, 0.0, 3.0, 1.0]))
    values = space.coords[:, 0].copy()
    assert max_slope(space, values) == (1.0, ("p0", "p2"))
    assert max_slope(dense_twin(space), values) == (1.0, ("p0", "p1"))


def test_dense_max_slope_takes_the_first_maximum_in_row_major_order():
    # f(x, y) = x on the unit square's corners: both horizontal edges have slope 1
    space = FiniteMetricSpace.from_coords(np.array([[0.0, 0.0], [1.0, 0.0],
                                                    [0.0, 1.0], [1.0, 1.0]]))
    assert space.line_order is None
    constant, pair = max_slope(space, np.array([0.0, 1.0, 0.0, 1.0]))
    assert constant == 1.0
    assert pair == ("p0", "p1")


def test_max_slope_rejects_non_finite_values():
    with pytest.raises(InputError, match="finite"):
        max_slope(grid_space(3), np.array([0.0, np.nan, 1.0]))


@pytest.mark.parametrize("space", [grid_space(5), dense_twin(grid_space(5))])
def test_isolation_radii_are_scanned_once_per_space(space):
    radii = isolation_radii(space)
    assert isolation_radii(space) is radii and not radii.flags.writeable
    assert isolation_profile(space).radii is radii


def test_line_order_only_for_one_column_coordinates():
    line = grid_space(4)
    assert list(FiniteMetricSpace.from_coords(np.array([2.0, -1.0, 5.0])).line_order) == [1, 0, 2]
    assert line.line_order is line.line_order
    assert not line.line_order.flags.writeable
    assert dense_twin(line).line_order is None
    assert FiniteMetricSpace.from_coords(np.eye(3)).line_order is None


# ---------------------------------------------------------------------------
# one distance block per scan: each route against the route it replaced


def einsum_distances(a, b):
    """The distance formula the column-at-a-time kernel replaced."""
    if a.shape[1] == 1:
        return np.abs(a[:, 0][:, None] - b[:, 0][None, :])
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_kernel_matches_the_einsum_formula(k):
    rng = np.random.default_rng(k)
    for scale in (1e-6, 1.0, 1e6):
        a = rng.standard_normal((97, k)) * scale
        b = rng.standard_normal((131, k)) * scale
        got, want = _coord_distances(a, b), einsum_distances(a, b)
        if k <= 2:
            np.testing.assert_array_equal(got, want)
        else:  # einsum sums three terms in its own order
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_a_coordinate_row_block_peaks_below_two_and_a_half_blocks():
    space = FiniteMetricSpace.from_coords(np.random.default_rng(0).uniform(size=(3000, 2)))
    lo, hi = next(space.block_rows())
    tracemalloc.start()
    try:
        block = space.row_block(lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.nbytes >= 8 * metric.BLOCK_ENTRIES * 0.99
    assert peak < 2.5 * block.nbytes


@pytest.fixture
def small_blocks(monkeypatch):
    """Scans over many row windows, so the block seams are exercised."""
    monkeypatch.setattr(metric, "BLOCK_ENTRIES", 100)


def spaces_off_the_line(rng):
    """A 2-D coordinate space on a coarse lattice (many tied distances) and
    its explicit-matrix twin; neither takes the line route."""
    pts = np.unique(rng.integers(0, 6, size=(40, 2)), axis=0) * 0.5
    space = FiniteMetricSpace.from_coords(pts)
    return [space, dense_twin(space)]


def slope_oracle(space, values):
    """Steepest pair by a scan of the strict upper triangle in row-major
    order; the first maximum wins."""
    i, j = np.triu_indices(space.n, 1)
    ratio = np.abs(values[i] - values[j]) / space.row_block(0, space.n)[i, j]
    k = int(ratio.argmax())
    return float(ratio[k]), (space.labels[i[k]], space.labels[j[k]])


def line_slope_oracle(space, values):
    """Steepest adjacent pair of the sorted order, as one vector at a time."""
    order = space.line_order
    slopes = np.abs(np.diff(values[order])) / np.diff(space.coords[order, 0])
    best = float(slopes.max())
    hits = np.flatnonzero(slopes == best)
    pairs = sorted((min(a, b), max(a, b)) for a, b in zip(order[hits], order[hits + 1]))
    return best, (space.labels[pairs[0][0]], space.labels[pairs[0][1]])


def value_stack(rng, space):
    """Rows with distinct, tied and all-zero slopes."""
    x = space.coords[:, 0] if space.coords is not None else np.arange(space.n, dtype=float)
    return np.stack([
        rng.standard_normal(space.n),
        rng.integers(0, 3, size=space.n).astype(np.float64),  # many tied slopes
        3.0 * x,  # every slope ties on the line
        np.zeros(space.n),  # every slope is 0
        rng.standard_normal(space.n) * 1e3,
    ])


@pytest.mark.parametrize("seed", range(4))
def test_batched_max_slope_equals_one_scan_per_vector(seed, small_blocks):
    rng = np.random.default_rng(seed)
    line = FiniteMetricSpace.from_coords(rng.permutation(np.arange(30) * 0.25))
    for space in spaces_off_the_line(rng) + [line]:
        stack = value_stack(rng, space)
        batched = max_slope(space, stack)
        assert batched == [max_slope(space, v) for v in stack]
        oracle = line_slope_oracle if space.line_order is not None else slope_oracle
        assert batched == [oracle(space, v) for v in stack]


def test_batched_max_slope_checks_the_stack_shape():
    with pytest.raises(InputError, match="length"):
        max_slope(grid_space(3), np.zeros((2, 4)))
    assert max_slope(grid_space(3), np.zeros((0, 3))) == []


@pytest.mark.parametrize("seed", range(6))
def test_closest_pair_from_the_radii_equals_the_block_scan(seed, small_blocks):
    rng = np.random.default_rng(seed)
    for space in spaces_off_the_line(rng):
        full = space.row_block(0, space.n) + np.diag(np.full(space.n, np.inf))
        np.testing.assert_array_equal(isolation_radii(space), full.min(axis=1))
        delta = discreteness_constant(space)
        everyone = np.ones(space.n, dtype=bool)
        # with nothing excluded the pair is read from the radii; the scan
        # over every point must find the same one
        for eps in (0.5 * delta, delta, 1.5 * delta, 2.0 * delta, 4.0 * delta):
            scan = metric._scan_close_pair(space, everyone, eps)
            want = None if scan is None else (space.labels[scan[0]], space.labels[scan[1]])
            assert find_close_pair(space, set(), eps) == want


def test_closest_pair_ties_go_to_the_smallest_index_pair():
    # every side of the square is a closest pair; (p0, p1) comes first
    square = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    for space in (FiniteMetricSpace.from_coords(square),
                  dense_twin(FiniteMetricSpace.from_coords(square))):
        assert find_close_pair(space, set(), 2.0) == ("p0", "p1")
        assert find_close_pair(space, set(), 1.0) is None
        assert metric._scan_close_pair(space, np.ones(4, dtype=bool), 2.0) == (0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_target_columns_give_the_full_row_minimum(seed, small_blocks):
    rng = np.random.default_rng(seed)
    for space in spaces_off_the_line(rng):
        idx = rng.choice(space.n, size=int(rng.integers(1, 6)), replace=False)
        full = space.row_block(0, space.n)[:, idx].min(axis=1)
        got = dist_to_set_all(space, [space.labels[i] for i in idx])
        np.testing.assert_array_equal(got, full)


def test_the_constructor_keeps_read_only_copies_of_its_arrays():
    matrix = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    kept = matrix.copy()
    space = FiniteMetricSpace(["a", "b", "c"], matrix=matrix)
    np.testing.assert_array_equal(isolation_radii(space), [1.0, 1.0, 2.0])
    np.testing.assert_array_equal(matrix, kept)  # the radii scan wrote no inf into it
    matrix[0, 1] = matrix[1, 0] = 5.0
    assert space.distance("a", "b") == 1.0
    coords = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    space = FiniteMetricSpace(["a", "b", "c"], coords=coords)
    coords[1] = 0.0
    assert space.distance("a", "b") == 5.0
    for sub in (space.subspace(["a", "c"]),
                FiniteMetricSpace.from_matrix(kept).subspace(["p0", "p2"])):
        backing = sub.coords if sub.coords is not None else sub.matrix
        assert not backing.flags.writeable
        with pytest.raises(ValueError):
            backing[0, 0] = 1.0
