"""End-to-end acceptance gate.

Each test pins one headline behaviour of the package at an explicit
tolerance and, where relevant, a wall-clock budget, so

    pytest -v tests/test_acceptance.py

prints one pass/fail line per behaviour.  Every derived number is checked
against an oracle that does not share code with the implementation:
brute-force pair scans, chunked partial sums, grid-refined maximisation.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from latticelab.cli import main
from latticelab.convergence import (
    CertificatePolicy,
    FamilyMetadata,
    MonotoneCertificate,
    SequenceFamily,
    UniformCauchyCertificate,
    buo_equals_order,
    check_buo_cauchy,
    check_order_convergence,
    dominating_element,
    pointwise_limit,
    truncation_family,
)
from latticelab.core import Carrier, LatticeElement, SpaceTag, Tail, member_of
from latticelab.counterexamples import (
    build_refinement,
    hat_family,
    hat_scenario,
    lip_counterexample,
    verify_escape,
)
from latticelab.envelopes import ClosedForm, ModulusCurve, inf_convolution_ladder
from latticelab.errors import LimitInSpaceRefusal
from latticelab.metric import FiniteMetricSpace, discreteness_constant, find_close_pair
from latticelab.witnesses import (
    extract_big_jump_witness,
    extract_lp_block_witness,
    refute_order_boundedness,
    verify_block_witness,
    verify_jump_witness,
)


def test_buo_and_order_verdicts_agree_on_randomized_bounded_families():
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    for _ in range(500):
        size = int(rng.integers(3, 51))
        horizon = int(rng.integers(60, 201))
        carrier = Carrier.index_set(size)
        limit_vals = rng.uniform(-5.0, 5.0, size)
        noise = rng.uniform(-3.0, 3.0, size)
        members = [
            LatticeElement(carrier, limit_vals + noise * 2.0**-n, Tail.zero())
            for n in range(1, horizon + 1)
        ]
        bound_vals = np.abs(limit_vals) + np.abs(noise)
        metadata = FamilyMetadata(
            limit=LatticeElement(carrier, limit_vals, Tail.zero()),
            common_bound=LatticeElement(
                carrier, bound_vals, Tail.constant(float(bound_vals.max()))
            ),
        )
        family = SequenceFamily(members=members, metadata=metadata)
        verdict = buo_equals_order(family, family.metadata.limit)
        assert verdict.equal
        assert verdict.order.outcome == verdict.buo.outcome
    assert time.perf_counter() - start < 10.0


def test_sqrt_envelope_ladder_meets_its_analytic_error_bounds():
    m = 30
    grid = np.arange(m * m + 1, dtype=np.float64) / (m * m)
    space = FiniteMetricSpace.from_coords(
        grid, tuple(f"t{j:03d}" for j in range(grid.size))
    )
    g = LatticeElement(Carrier.points(space), np.sqrt(grid))
    curve = ModulusCurve(
        np.empty(0),
        np.empty(0),
        1.0,
        exact=False,
        closed_form=ClosedForm.sqrt(1.0, cap=1.0, domain_max=1.0),
    )

    def refined_max(n):
        # independent oracle: maximise sqrt(t) - n*t by grid refinement
        pts = np.linspace(0.0, 1.0, 20001)
        for _ in range(3):
            vals = np.sqrt(pts) - n * pts
            k = int(np.argmax(vals))
            lo = pts[max(0, k - 2)]
            hi = pts[min(pts.size - 1, k + 2)]
            pts = np.linspace(lo, hi, 20001)
        return float((np.sqrt(pts) - n * pts).max())

    gaps = np.abs(grid[:, None] - grid[None, :])
    np.fill_diagonal(gaps, np.inf)
    start = time.perf_counter()
    for res in inf_convolution_ladder(g, [2**k for k in range(9)], modulus=curve):
        env = res.g_n.values
        assert np.all(env <= g.values)
        quotients = np.abs(env[:, None] - env[None, :]) / gaps
        assert float(quotients.max()) <= res.n + 1e-9
        assert res.achieved_error <= res.alpha + 1e-9
        analytic = 0.25 / res.n
        assert abs(res.alpha - analytic) <= 0.02 * analytic
        assert res.alpha == pytest.approx(refined_max(res.n), rel=1e-9, abs=1e-15)
    assert time.perf_counter() - start < 5.0


def test_shrinking_hats_certify_cauchy_but_escape_to_an_indicator():
    refinement = build_refinement("accumulation", range(3, 101))
    scenario = hat_scenario(refinement, 50)
    family = scenario.family_at(100)
    verdict = check_buo_cauchy(family, CertificatePolicy())
    assert verdict.outcome == "holds"
    assert isinstance(verdict.certificate, MonotoneCertificate)
    space = refinement.space_at(100)
    indicator = np.zeros(space.n)
    indicator[space.index("x0")] = 1.0
    assert np.array_equal(pointwise_limit(family).values, indicator)
    report = verify_escape(scenario)
    assert len(report.rows) == 98  # one row per level, 3 through 100
    assert all(row.value == 1.0 for row in report.rows)


def test_lipschitz_blowup_scales_as_inverse_sqrt_of_refinement():
    start = time.perf_counter()
    refinement = build_refinement("accumulation", [100, 1000, 10000])
    cex = lip_counterexample(refinement, 20)
    for ratio, t in zip(cex.blow_up, cex.t):
        assert ratio > 1.0 / (2.0 * math.sqrt(t))
    report = verify_escape(cex)
    assert report.scale_fit[0] == pytest.approx(-0.5, abs=0.05)
    assert report.delta_fit is not None
    verdict = check_buo_cauchy(cex.family, CertificatePolicy())
    assert verdict.outcome == "holds"
    assert isinstance(verdict.certificate, UniformCauchyCertificate)
    assert time.perf_counter() - start < 60.0


def test_lipschitz_constants_stay_flat_on_uniformly_discrete_levels():
    """The positive half of the Lip_b theorem, as a control for the test
    above: on the line {0} u {1.5, 2.5, ..., N + 0.5}, uniformly discrete with
    delta = 1 at every N, the hat pipeline's limit and the sqrt(dist) ^ 1
    envelopes keep Lipschitz constants below 2 * max|x| / delta, the same at
    every N, where the accumulation levels' blow up.  verify_escape takes only
    a RefinementFamily, whose separation must shrink, so it is not run here."""
    start = time.perf_counter()
    constants = []
    for n_points in (10, 100, 1000):
        coords = np.r_[0.0, np.arange(1, n_points + 1) + 0.5]
        space = FiniteMetricSpace.from_coords(
            coords, labels=["x0", *(f"y{k}" for k in range(1, n_points + 1))])
        delta = discreteness_constant(space)
        assert delta == 1.0
        family = hat_family(space, "x0", 40)
        assert check_buo_cauchy(family, CertificatePolicy()).outcome == "holds"
        limit = pointwise_limit(family)
        assert check_order_convergence(family, limit).outcome == "holds"
        # brute-force pair scan oracle of the limit's Lipschitz constant
        gaps = np.abs(coords[:, None] - coords[None, :])
        np.fill_diagonal(gaps, np.inf)
        brute = float((np.abs(limit.values[:, None] - limit.values[None, :]) / gaps).max())
        constant = member_of(limit, SpaceTag.lip_b()).data["constant"]
        assert constant == pytest.approx(brute, rel=1e-12)
        assert constant <= 2.0 * float(np.abs(limit.values).max()) / delta
        g = LatticeElement(Carrier.points(space),
                           np.minimum(np.sqrt(space.row(space.index("x0"))), 1.0))
        ladder = inf_convolution_ladder(g, [1, 2, 4, 8, 16, 32])
        assert all(rung.lipschitz <= 2.0 * float(np.abs(g.values).max()) / delta
                   for rung in ladder)
        constants.append((constant, *(rung.lipschitz for rung in ladder)))
    assert all(row == pytest.approx(constants[0], rel=1e-12) for row in constants)
    assert time.perf_counter() - start < 60.0


def test_step_family_refutes_any_c0_dominator_with_twenty_jumps():
    eps, size = 0.25, 64
    carrier = Carrier.index_set(size)
    members = []
    for n in range(1, size + 1):
        vals = np.zeros(size)
        vals[:n] = 4.0 * eps
        members.append(LatticeElement(carrier, vals, Tail.zero()))
    family = SequenceFamily(members=members)
    witness = extract_big_jump_witness(family, range(1, size + 1), eps=eps, count=20)
    assert witness.count >= 20
    assert verify_jump_witness(witness, family)
    for n_lo, n_hi, k in witness.pairs():
        gap = abs(
            family.member(n_hi).values[k - 1] - family.member(n_lo).values[k - 1]
        )
        assert gap > eps
    refutation = refute_order_boundedness(witness, SpaceTag.c0())
    assert refutation.count >= 20
    assert all(lb > eps for lb in refutation.lower_bounds)
    dominator = dominating_element(family)
    assert np.all(dominator.values == 4.0 * eps)


def test_divergent_truncations_yield_heavy_disjoint_blocks_and_convergent_refuse():
    for p in (1.0, 2.0):
        family = truncation_family(1.0 / p, size=64, horizon=10**9, p=p)
        witness = extract_lp_block_witness(family, p=p, count=5)
        assert len(witness.blocks) >= 5
        for (_, hi_prev), (lo_next, _) in zip(witness.blocks, witness.blocks[1:]):
            assert hi_prev < lo_next
        assert all(norm > 1.0 for norm in witness.norms)
        assert verify_block_witness(witness, family)
        for lo, hi in witness.blocks:
            # chunked partial-sum oracle: block mass before differencing
            mass, j = 0.0, lo
            while j <= hi:
                k = min(hi, j + 10**7 - 1)
                js = np.arange(j, k + 1, dtype=np.float64)
                mass += float(np.sum((js ** (-1.0 / p)) ** p))
                j = k + 1
            assert mass > 2.0
        convergent = truncation_family(2.0 / p, size=64, horizon=10**9, p=p)
        with pytest.raises(LimitInSpaceRefusal, match="lies in lp"):
            extract_lp_block_witness(convergent, p=p, count=5)


def test_discreteness_constant_matches_pair_scan_on_harmonic_and_random_spaces():
    for n_points in (5, 10, 50):
        coords = np.array([1.0 / n for n in range(1, n_points + 1)])
        labels = tuple(f"p{n:02d}" for n in range(1, n_points + 1))
        space = FiniteMetricSpace.from_coords(coords, labels)
        delta = discreteness_constant(space)
        scan = min(
            abs(coords[i] - coords[j])
            for i in range(n_points)
            for j in range(n_points)
            if i != j
        )
        assert delta == scan
        assert delta == pytest.approx(1.0 / (n_points * (n_points - 1)), rel=1e-13)

    rng = np.random.default_rng(1234)
    found = missing = 0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        coords = rng.choice(200, size=n, replace=False).astype(float) * 0.125
        labels = tuple(f"q{i}" for i in range(n))
        space = FiniteMetricSpace.from_coords(coords, labels)
        eps = float(rng.uniform(0.05, 2.0))
        excluded = (labels[0],) if rng.random() < 0.3 else ()
        pair = find_close_pair(space, excluded, eps)
        rest = [lab for lab in labels if lab not in excluded]
        if pair is None:
            missing += 1
            if len(rest) >= 2:
                closest = min(
                    space.distance(a, b) for a in rest for b in rest if a != b
                )
                assert closest >= eps
        else:
            found += 1
            a, b = pair
            assert a != b
            assert a not in excluded and b not in excluded
            assert space.distance(a, b) < eps
    assert found and missing  # both outcomes must actually occur


def test_reports_are_byte_identical_for_a_fixed_seed(tmp_path):
    assert main(["generate", "steps", "--out", str(tmp_path / "shared")]) == 0
    family_file = tmp_path / "shared" / "step_family.json"

    def run_suite(root):
        root.mkdir()
        assert main(
            ["generate", "hats", "--levels", "3,5,9", "--depth", "6",
             "--out", str(root / "hats")]
        ) == 0
        assert main(
            ["generate", "ladder", "--levels", "4,8,16", "--n-max", "3",
             "--out", str(root / "ladder")]
        ) == 0
        code = main(
            ["check", "--family", str(family_file),
             "--mode", "buo-cauchy", "--policy", "sampled", "--seed", "7",
             "--count", "8", "--max-len", "6", "--out", str(root / "check")]
        )
        assert code in (0, 1)  # a legitimate verdict either way, never a usage error
        return {
            path.relative_to(root).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    first = run_suite(tmp_path / "a")
    second = run_suite(tmp_path / "b")
    assert first == second
    assert len(first) >= 6
