import contextlib
import copy
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticelab.cli import main, replay_report
from latticelab.config import CheckConfig
from latticelab.convergence import (
    MEMBER_MATERIALIZE_LIMIT,
    CertificatePolicy,
    FamilyMetadata,
    MonotoneCertificate,
    SampledPolicy,
    SequenceFamily,
    StuckCoordinate,
    SubsequenceWitness,
    TruncationModel,
    UniformCauchyCertificate,
    buo_equals_order,
    check_buo_cauchy,
    check_buo_convergence,
    check_order_convergence,
    dominating_element,
    norm_bound,
    pointwise_limit,
    truncation_family,
    _subsequences,
    _monotone_breach,
    _running_max,
    _uniform_breach,
)
from latticelab.core import (
    Carrier,
    LatticeElement,
    SpaceTag,
    Tail,
    abs_,
    le,
    p_norm,
    sup_norm,
    tail_abs,
    tail_max,
    tail_sub,
)
from latticelab.counterexamples import build_refinement, hat_family
from latticelab.serialize import canonical_json, family_to_json, verdict_to_json, write_json
from latticelab.errors import (
    InputError,
    InternalInvariantError,
    MetadataError,
    PointwiseDivergenceError,
    UndecidableTailError,
)

CAR3 = Carrier.index_set(3)


def seq(values, tail=None):
    return LatticeElement(CAR3, np.asarray(values, dtype=float), tail or Tail.zero())


def const_family(x, count=8):
    return SequenceFamily(members=[x] * count)


def stored(verdict) -> dict:
    """A verdict's report as read back from disk."""
    return json.loads(canonical_json(verdict_to_json(verdict)))


def alternating_family(count=32):
    """x_n = (-1)^n * ones: the classic family with no Cauchy subsequence
    structure along consecutive differences."""
    members = [
        seq([(-1.0) ** n] * 3, Tail.constant((-1.0) ** n)) for n in range(1, count + 1)
    ]
    return SequenceFamily(members=members)


def hats(levels=10, depth=20):
    ref = build_refinement("accumulation", [levels])
    return hat_family(ref.space_at(levels), "x0", depth)


# ---------------------------------------------------------------------------
# metadata verification at construction


def test_declared_decrease_is_checked():
    with pytest.raises(MetadataError, match="decreasing"):
        SequenceFamily(
            members=[seq([0.0, 0.0, 0.0]), seq([1.0, 0.0, 0.0])],
            metadata=FamilyMetadata(monotone_decreasing=True),
        )


def test_declared_bound_is_checked():
    with pytest.raises(MetadataError, match="common bound"):
        SequenceFamily(
            members=[seq([2.0, 0.0, 0.0])],
            metadata=FamilyMetadata(common_bound=seq([1.0, 1.0, 1.0], Tail.constant(1.0))),
        )


def test_declared_cauchy_norms_are_checked():
    with pytest.raises(MetadataError, match="exceeds the declared eps"):
        SequenceFamily(
            members=[seq([0.0, 0.0, 0.0]), seq([1.0, 0.0, 0.0])],
            metadata=FamilyMetadata(uniformly_cauchy_norms=(0.5, 0.5)),
        )


def test_cauchy_norms_must_cover_the_horizon():
    with pytest.raises(MetadataError, match="declared for horizon"):
        SequenceFamily(
            members=[seq([0.0] * 3)] * 3,
            metadata=FamilyMetadata(uniformly_cauchy_norms=(0.0,)),
        )


def test_growth_and_bound_conflict():
    with pytest.raises(MetadataError):
        FamilyMetadata(growth="unbounded", common_bound=seq([1.0] * 3))
    with pytest.raises(MetadataError):
        FamilyMetadata(growth="wild")


def test_family_needs_members_or_generator():
    with pytest.raises(InputError):
        SequenceFamily()
    with pytest.raises(InputError):
        SequenceFamily(members=[])
    with pytest.raises(InputError, match="generator families need a horizon >= 1"):
        SequenceFamily(model=TruncationModel(exponent=1.0), carrier=CAR3)
    with pytest.raises(InputError, match="index-set carrier"):
        SequenceFamily(model=TruncationModel(exponent=1.0), horizon=4)
    for retired in ("make", "verification_horizon"):  # the generator callback is gone
        with pytest.raises(TypeError, match=retired):
            SequenceFamily(members=[seq([0.0] * 3)], **{retired: 3})
    with pytest.raises(InputError, match="exactly one"):
        SequenceFamily(values=[[0.0] * 3], members=[seq([0.0] * 3)])
    with pytest.raises(InputError, match="carrier"):
        SequenceFamily(values=[[0.0] * 3])


def test_value_matrix_families_are_validated():
    with pytest.raises(InputError, match="shape"):
        SequenceFamily(values=[[0.0, 1.0]], carrier=CAR3)
    with pytest.raises(InputError, match="a family needs at least one member"):
        SequenceFamily(values=np.zeros((0, 3)), carrier=CAR3)
    with pytest.raises(InputError, match="member 2: non-finite value at coordinate 3"):
        SequenceFamily(values=[[0.0] * 3, [0.0, 0.0, np.inf]], carrier=CAR3)
    with pytest.raises(InputError, match="1 tails for 2 members"):
        SequenceFamily(values=[[0.0] * 3] * 2, tails=[Tail.zero()], carrier=CAR3)
    points = hats(levels=5, depth=2).carrier
    with pytest.raises(InputError, match="index-set carriers only"):
        SequenceFamily(values=np.zeros((2, points.size)), tails=Tail.zero(), carrier=points)


def test_members_are_read_only_rows_of_one_matrix():
    values = np.array([[3.0, 2.0, 1.0], [2.0, 1.0, 0.0]])
    fam = SequenceFamily(values=values, tails=[Tail.constant(1.0), Tail.constant(1.0)],
                         carrier=CAR3)
    values[0, 0] = 99.0  # the family holds its own copy
    matrix = fam.stacked(2)
    assert matrix[0, 0] == 3.0 and not matrix.flags.writeable
    second = fam.member(2)
    assert np.shares_memory(second.values, matrix) and not second.values.flags.writeable
    assert second.tail == Tail.constant(1.0)
    assert fam.tails(2)[0] is fam.tails(2)[1]  # equal tails are stored once
    same = SequenceFamily(members=fam.members)
    assert np.array_equal(same.stacked(2), matrix) and same.tails(2) == fam.tails(2)
    # elements and families copy what a caller passes, even a frozen array,
    # whose owner may make it writable again
    for frozen in (False, True):
        row, rows = np.zeros(3), np.zeros((1, 3))
        row.setflags(write=not frozen)
        rows.setflags(write=not frozen)
        x, one = seq(row), SequenceFamily(values=rows, carrier=CAR3)
        for raw in (row, rows):
            raw.setflags(write=True)
            raw[...] = 1.0
        assert not x.values.any() and not one.stacked(1).any()


# ---------------------------------------------------------------------------
# pointwise limits


def test_declared_monotone_limit_is_returned_exactly():
    fam = hats(levels=10, depth=20)
    lim = pointwise_limit(fam)
    assert lim is fam.metadata.limit
    # the limit is the indicator of the anchor
    assert lim.values[0] == 1.0 and np.all(lim.values[1:] == 0.0)


def test_oscillation_route_limit():
    members = [seq([1.0 + 1.0 / n, 0.0, -1.0]) for n in range(1, 200 + 1)]
    fam = SequenceFamily(members=members)
    lim = pointwise_limit(fam, CheckConfig(tolerance=1e-2))
    assert np.array_equal(lim.values, members[-1].values)


def test_divergent_coordinate_is_named():
    members = [seq([(-1.0) ** n, 0.0, 0.0]) for n in range(1, 33)]
    fam = SequenceFamily(members=members)
    with pytest.raises(PointwiseDivergenceError) as exc:
        pointwise_limit(fam)
    assert exc.value.coordinate == "1"
    assert exc.value.oscillation == 2.0


def test_model_route_rejects_a_wrong_declared_limit():
    carrier = Carrier.index_set(4)
    fam = SequenceFamily(
        model=TruncationModel(exponent=1.0), carrier=carrier, horizon=100,
        metadata=FamilyMetadata(limit=LatticeElement(carrier, np.ones(4), Tail.zero())),
    )
    with pytest.raises(MetadataError, match="disagrees with the truncation model"):
        pointwise_limit(fam)


def test_declared_limit_must_match_the_data():
    fam = SequenceFamily(
        members=[seq([0.0] * 3)] * 8,
        metadata=FamilyMetadata(limit=seq([1.0, 0.0, 0.0])),
    )
    with pytest.raises(MetadataError, match="declared limit is off"):
        pointwise_limit(fam)


def test_single_member_without_metadata_cannot_decide():
    with pytest.raises(InputError):
        pointwise_limit(SequenceFamily(members=[seq([0.0] * 3)]))


# ---------------------------------------------------------------------------
# dominating element


def test_dominator_of_the_alternating_family_is_one():
    y = dominating_element(alternating_family())
    assert np.all(y.values == 1.0)
    assert y.tail == Tail.constant(1.0)


def test_dominator_of_hats_is_the_first_hat():
    fam = hats()
    y = dominating_element(fam)
    assert np.array_equal(y.values, fam.member(1).values)


def test_dominator_norm_is_the_member_sup():
    members = [seq([1.0, -2.0, 0.5]), seq([-3.0, 1.0, 0.0]), seq([0.0, 0.0, 4.0])]
    fam = SequenceFamily(members=members)
    y = dominating_element(fam)
    assert np.array_equal(y.values, [3.0, 2.0, 4.0])
    assert sup_norm(y) == max(sup_norm(m) for m in members)


def test_model_dominator_is_the_full_limit():
    fam = truncation_family(1.0, size=16, horizon=10**6)
    y = dominating_element(fam)
    assert y.values[0] == 1.0
    assert y.tail == Tail.power(1.0, 1.0)
    # sampled draws fill the model's matrix lazily, each up to its own last
    # index; row n of the matrix is still member n, bit for bit, tails included
    fam = truncation_family(1.0, size=512, horizon=600)
    check_buo_cauchy(fam, SampledPolicy(count=32, max_len=8, seed=5,
                                        include=tuple((1, k) for k in range(3, 400, 7))),
                     CheckConfig(horizon=600, tolerance=1e-3))
    rows = np.stack([fam.model.member_values(n, 512) for n in range(1, 601)])
    assert fam.stacked(600).tobytes() == rows.tobytes()
    assert fam.tails(600) == (Tail.zero(),) * 512 + (Tail.none(),) * 88
    for n in (1, 512, 513, 600):
        x = fam.member(n)
        assert x.values.tobytes() == rows[n - 1].tobytes() and x.tail == fam.tails(600)[n - 1]
    # a single member is built on its own, never by filling the matrix up to it
    far = truncation_family(1.0, size=8, horizon=10**9).member(10**9)
    assert far.values.tobytes() == TruncationModel(1.0).member_values(8, 8).tobytes()
    assert far.tail == Tail.none()


# ---------------------------------------------------------------------------
# order convergence


def test_constant_family_order_converges_with_zero_regulator():
    x = seq([1.0, 2.0, 3.0])
    v = check_order_convergence(const_family(x), x)
    assert v.outcome == "holds"
    assert v.certificate.final_sup == 0.0
    assert replay_report(stored(v), const_family(x)) == "certificate"


def test_harmonic_scaling_family_holds_at_loose_tolerance():
    fam = SequenceFamily(values=np.repeat(1.0 / np.arange(1, 10_001), 3).reshape(-1, 3),
                         tails=Tail.zero(), carrier=CAR3)
    zero = seq([0.0] * 3)
    v = check_order_convergence(fam, zero, CheckConfig(tolerance=1e-3))
    assert v.outcome == "holds"
    # the canonical regulator is z_m = (1/m) * ones
    reg = v.certificate.regulator_values
    for m in (1, 10, 100):
        assert reg[m - 1].max() == 1.0 / m


def test_hats_order_converge_to_the_indicator():
    fam = hats(levels=10, depth=20)
    v = check_order_convergence(fam, pointwise_limit(fam))
    assert v.outcome == "holds"
    assert v.certificate.final_sup == 0.0
    assert any("limit lies in bounded_fns" in n for n in v.notes)


def test_order_failure_names_the_stuck_coordinate():
    x = seq([1.0, 0.0, 0.0])
    v = check_order_convergence(const_family(x), seq([0.0] * 3))
    assert v.outcome == "fails"
    assert v.witness.coordinate == "1"
    assert v.witness.final_regulator == 1.0


def test_a_stuck_witness_keeps_the_last_trace_entries_of_the_order_and_buo_checks():
    fam = const_family(seq([1.0, 0.0, 0.0]), count=100)
    order = check_order_convergence(fam, seq([0.0] * 3))
    buo = check_buo_convergence(fam, seq([0.0] * 3))
    assert buo.notes[-1] == "probe ones stays above tolerance at the horizon"
    for v in (order, buo):
        assert v.outcome == "fails"
        assert v.witness == StuckCoordinate("1", 1.0, 37, (1.0,) * 64)


def test_order_failure_on_the_tail_alone():
    members = [seq([0.0] * 3, Tail.constant(1.0))] * 4
    fam = SequenceFamily(members=members)
    v = check_order_convergence(fam, seq([0.0] * 3))
    assert v.outcome == "fails"
    assert v.witness == StuckCoordinate("tail(j>=4)", 1.0, 4, ())
    # against a candidate with the members' tail the tail differences vanish
    v = check_order_convergence(fam, seq([0.0] * 3, Tail.constant(1.0)))
    assert v.outcome == "holds"
    assert v.certificate.regulator_tails == (Tail.zero(),) * 4


def test_order_inconclusive_on_undeclared_tails():
    members = [seq([0.0] * 3, Tail.none())] * 4
    fam = SequenceFamily(members=members)
    v = check_order_convergence(fam, seq([0.0] * 3))
    assert v.outcome == "inconclusive"
    assert any("undeclared" in n for n in v.notes)


def test_order_membership_note_for_sequence_tags():
    members = [seq([1.0 / n] * 3) for n in range(1, 64)]
    fam = SequenceFamily(members=members, metadata=FamilyMetadata(space_tag=SpaceTag.c0()))
    v = check_order_convergence(fam, seq([0.0] * 3), CheckConfig(tolerance=0.1))
    assert v.outcome == "holds"
    assert any("limit lies in c0" in n for n in v.notes)


def test_order_candidate_carrier_mismatch():
    with pytest.raises(InputError):
        check_order_convergence(
            const_family(seq([0.0] * 3)),
            LatticeElement(Carrier.index_set(2), np.zeros(2), Tail.zero()),
        )


def test_certificate_replay_rejects_tampering():
    x = seq([1.0, 2.0, 3.0])
    fam = const_family(x)
    doc = stored(check_order_convergence(fam, x))
    hacked = copy.deepcopy(doc)
    hacked["certificate"]["regulator_values"] = (
        np.asarray(doc["certificate"]["regulator_values"]) + 1e-3).tolist()
    with pytest.raises(InternalInvariantError,
                       match=r"stored order certificate does not replay: "
                             r"certificate\.regulator_values\[0\]\[0\]: stored 0\.001, re-run 0\.0"):
        replay_report(hacked, fam)
    # a report replayed against the wrong family also fails
    other = const_family(seq([9.0, 9.0, 9.0]))
    with pytest.raises(InternalInvariantError, match="does not replay: certificate: stored "):
        replay_report(doc, other)
    loose = copy.deepcopy(doc)
    loose["certificate"]["final_sup"] = 1.0
    with pytest.raises(InternalInvariantError,
                       match=r"certificate\.final_sup: stored 1\.0, re-run 0\.0"):
        replay_report(loose, fam)


# ---------------------------------------------------------------------------
# Buo convergence


def test_constant_family_buo_holds_with_dominator_certificate():
    x = seq([1.0, -1.0, 0.5])
    v = check_buo_convergence(const_family(x), x)
    assert v.outcome == "holds"
    assert v.bound == 1.0
    assert all(s <= v.tolerance for _, s in v.certificate.probe_sups)


def test_declared_unbounded_growth_fails_buo():
    members = [seq([float(n), 0.0, 0.0], Tail.zero()) for n in range(1, 9)]
    fam = SequenceFamily(members=members, metadata=FamilyMetadata(growth="unbounded"))
    v = check_buo_convergence(fam, seq([0.0] * 3))
    assert v.outcome == "fails"
    assert v.witness.declared == "unbounded"
    assert v.witness.norm_trace[-1] == 8.0


def test_buo_failure_when_differences_stay_up():
    fam = alternating_family()
    v = check_buo_convergence(fam, seq([0.0] * 3))
    assert v.outcome == "fails"
    assert v.witness.final_regulator == 1.0
    assert any("probe ones" in n for n in v.notes)


def test_buo_domination_failure_in_a_declared_space():
    members = [seq([1.0] * 3, Tail.constant(1.0))] * 4
    fam = SequenceFamily(
        members=members,
        metadata=FamilyMetadata(space_tag=SpaceTag.lp(1.0), limit=members[0]),
    )
    v = check_buo_convergence(fam, members[0])
    assert v.outcome == "fails"
    assert v.witness.tag == "lp(p=1)"
    assert "divergent" in v.witness.reason


def test_buo_inconclusive_on_undeclared_dominator_tail():
    members = [seq([0.0] * 3, Tail.none())] * 4
    fam = SequenceFamily(members=members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = check_buo_convergence(fam, seq([0.0] * 3))
    assert v.outcome == "inconclusive"
    assert any("boundedness undecidable" in n for n in v.notes)


# ---------------------------------------------------------------------------
# the equivalence harness


def test_paired_verdicts_agree_on_holds():
    x = seq([0.5, 0.25, 0.0])
    pv = buo_equals_order(const_family(x), x)
    assert pv.equal is True
    assert pv.order.outcome == "holds" and pv.buo.outcome == "holds"


def test_paired_verdicts_agree_on_fails():
    fam = const_family(seq([0.0] * 3))
    pv = buo_equals_order(fam, seq([2.0] * 3))
    assert pv.equal is True
    assert pv.order.outcome == "fails" and pv.buo.outcome == "fails"


def test_paired_verdict_reports_inconclusive_sides():
    members = [seq([0.0] * 3, Tail.none())] * 4
    fam = SequenceFamily(members=members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pv = buo_equals_order(fam, seq([0.0] * 3))
    assert pv.equal is None
    assert "inconclusive" in pv.note


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_bounded_families_never_split_the_verdicts(entropy):
    rng = np.random.default_rng(entropy)
    size = int(rng.integers(2, 8))
    carrier = Carrier.index_set(size)
    limit_vals = rng.uniform(-2.0, 2.0, size=size)
    horizon = int(rng.integers(8, 40))
    members = [
        LatticeElement(
            carrier,
            limit_vals + rng.uniform(-1.0, 1.0, size=size) / (n * n),
            Tail.zero(),
        )
        for n in range(1, horizon + 1)
    ]
    fam = SequenceFamily(members=members)
    candidate = LatticeElement(carrier, limit_vals, Tail.zero())
    pv = buo_equals_order(fam, candidate, CheckConfig(tolerance=1e-2))
    assert pv.equal is True
    assert pv.order.outcome == pv.buo.outcome


# ---------------------------------------------------------------------------
# Buo-Cauchy


def test_monotone_certificate_route_on_hats():
    v = check_buo_cauchy(hats(), CertificatePolicy())
    assert v.outcome == "holds"
    assert isinstance(v.certificate, MonotoneCertificate)
    assert v.bound == 1.0
    assert v.policy == CertificatePolicy()


def test_certificate_route_rechecks_claims_past_the_verification_horizon():
    # construction only checks members 1..min(size, 64) of a model family;
    # the certificate route covers every member its verdict claims, so
    # claims that break after that surface there
    model = TruncationModel(exponent=1.0)
    x = model.member_values(100, 100)  # eps_j = x(j + 1) bounds every gap from member j
    uniform = SequenceFamily(
        model=model, carrier=Carrier.index_set(100), horizon=100,
        metadata=FamilyMetadata(uniformly_cauchy_norms=tuple(x[1:65]) + (0.0,) * 36))
    assert uniform.verification_horizon == 64
    with pytest.raises(MetadataError, match=r"certificate violated: \|\|x_65 - x_66\|\| = "
                                            r"0\.0151515 exceeds the declared eps_65 = 0"):
        check_buo_cauchy(uniform, CertificatePolicy(), CheckConfig(horizon=100))
    # a size-1 truncation: member 1 holds, every later member has an undeclared tail
    one = Carrier.index_set(1)
    decreasing = SequenceFamily(
        model=model, carrier=one, horizon=8,
        metadata=FamilyMetadata(monotone_decreasing=True,
                                common_bound=LatticeElement(one, [1.0], Tail.constant(1.0))))
    assert decreasing.verification_horizon == 1
    with pytest.raises(MetadataError, match=r"cannot verify claim \(member 2 vs the common "
                                            r"bound\) through undeclared tails"):
        check_buo_cauchy(decreasing, CertificatePolicy())


def test_uniform_certificate_route():
    # x_n = (1 - 2^(1-n)) * ones settles geometrically: eps_m = 2^(1-m)
    count = 32
    members = [seq([1.0 - 2.0 ** (1 - n)] * 3, Tail.zero()) for n in range(1, count + 1)]
    eps = tuple(2.0 ** (1 - m) for m in range(1, count + 1))
    fam = SequenceFamily(
        members=members, metadata=FamilyMetadata(uniformly_cauchy_norms=eps)
    )
    v = check_buo_cauchy(fam, CertificatePolicy())
    assert v.outcome == "holds"
    assert isinstance(v.certificate, UniformCauchyCertificate)
    assert v.certificate.eps[-1] <= 1e-9


def test_uniform_route_stays_inconclusive_above_tolerance():
    members = [seq([1.0 - 2.0 ** (1 - n)] * 3, Tail.zero()) for n in range(1, 9)]
    eps = tuple(2.0 ** (1 - m) for m in range(1, 9))
    fam = SequenceFamily(
        members=members, metadata=FamilyMetadata(uniformly_cauchy_norms=eps)
    )
    v = check_buo_cauchy(fam, CertificatePolicy())
    assert v.outcome == "inconclusive"
    assert any("above tolerance" in n for n in v.notes)


def test_certificate_policy_without_metadata_is_inconclusive():
    v = check_buo_cauchy(const_family(seq([1.0] * 3)), CertificatePolicy())
    assert v.outcome == "inconclusive"
    assert any("no certificate-grade metadata" in n for n in v.notes)


def test_sampled_policy_finds_the_alternating_witness():
    v = check_buo_cauchy(alternating_family(), SampledPolicy(count=8, seed=0))
    assert v.outcome == "fails"
    assert isinstance(v.witness, SubsequenceWitness)
    assert v.witness.stuck.final_regulator == 2.0
    assert len(v.witness.indices) >= 2


def test_sampled_policy_never_claims_the_property():
    v = check_buo_cauchy(const_family(seq([1.0] * 3)), SampledPolicy(count=8, seed=0))
    assert v.outcome == "inconclusive"
    assert any("no counterexample" in n for n in v.notes)
    assert any("search device" in n for n in v.notes)


def test_included_subsequence_replays_verbatim():
    fam = alternating_family()
    first = check_buo_cauchy(fam, SampledPolicy(count=8, seed=0))
    replay = check_buo_cauchy(
        fam, SampledPolicy(count=1, seed=999, include=(first.witness.indices,))
    )
    assert replay.outcome == "fails"
    assert replay.witness.indices == first.witness.indices


def test_sampled_policy_sees_a_gap_that_lives_only_in_the_tails():
    fam = SequenceFamily(members=[seq([0.0] * 3, Tail.constant(1.0 / n)) for n in range(1, 7)])
    v = check_buo_cauchy(fam, SampledPolicy(count=1, include=((1, 2),)))
    assert v.outcome == "fails"
    assert v.witness.indices == (1, 2)
    assert v.witness.stuck.coordinate == "tail(j>=4)"
    assert v.witness.stuck.final_regulator == 0.5
    # the tail witness counts the subsequence's indices, not its differences
    assert v.witness.stuck.trace_start == 2
    assert v.witness.stuck.trace == ()


def test_included_subsequence_beyond_horizon_is_rejected():
    fam = const_family(seq([0.0] * 3), count=8)
    with pytest.raises(InputError, match="beyond the checked horizon"):
        check_buo_cauchy(fam, SampledPolicy(include=((1, 99),)))


def test_sampled_policy_validation():
    with pytest.raises(InputError):
        SampledPolicy(count=0)
    with pytest.raises(InputError):
        SampledPolicy(max_len=1)
    with pytest.raises(InputError):
        SampledPolicy(include=((3, 2),))
    with pytest.raises(InputError):
        check_buo_cauchy(const_family(seq([0.0] * 3)), policy="sampled")


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=1000))
def test_certificate_soundness_on_settled_windows(levels, seed):
    # Sampled draws are anchored at the horizon, so each verdict hinges on
    # the final step ||x_H - x_j||.  Scope: hats settle (repeat the
    # indicator) from depth `levels` on, geometric draws land above H/5 and
    # uniform draws above max_len - 1, so depth >= 5*levels + 5 puts every
    # landing point in the settled zone and the two routes must agree.
    fam = hats(levels=levels, depth=5 * levels + 5)
    cert = check_buo_cauchy(fam, CertificatePolicy())
    assert cert.outcome == "holds"
    sampled = check_buo_cauchy(fam, SampledPolicy(count=12, max_len=16, seed=seed))
    assert sampled.outcome != "fails"


def test_sampled_route_returns_at_the_first_failing_draw():
    # the included (1, 2) fails; every later draw ends at the horizon, past
    # the materialize limit, and would raise if it were evaluated
    horizon = MEMBER_MATERIALIZE_LIMIT + 1
    fam = truncation_family(1.0, size=3, horizon=horizon)
    v = check_buo_cauchy(fam, SampledPolicy(count=4, include=((1, 2),)),
                         CheckConfig(horizon=horizon))
    assert v.outcome == "fails" and v.witness.indices == (1, 2)
    with pytest.raises(InputError, match="exceeds the limit"):
        fam.stacked(horizon)


# ---------------------------------------------------------------------------
# norm bounds


def test_norm_bound_is_window_exact():
    members = [seq([1.0 - 1.0 / n] * 3, Tail.constant(1.0 - 1.0 / n)) for n in range(1, 101)]
    fam = SequenceFamily(members=members)
    nb = norm_bound(fam, SpaceTag.linf())
    assert nb.value == 1.0 - 1.0 / 100
    assert nb.norm == "linf"
    assert nb.trace == tuple(1.0 - 1.0 / n for n in range(1, 101))
    assert not nb.unbounded


def test_norm_bound_flags_declared_unbounded_growth():
    members = [seq([float(n)] * 3, Tail.zero()) for n in range(1, 9)]
    fam = SequenceFamily(members=members, metadata=FamilyMetadata(growth="unbounded"))
    nb = norm_bound(fam, SpaceTag.linf())
    assert nb.unbounded
    assert nb.value == 8.0


def test_norm_bound_on_hats_is_one():
    nb = norm_bound(hats(), SpaceTag.bounded_fns())
    assert nb.value == 1.0


@pytest.mark.parametrize("tail, finite", [
    (lambda n: Tail.zero(), True),
    (lambda n: Tail.power(1.5, float(n)), True),  # p * exponent > 1: closed-form sums
    (lambda n: Tail.power(0.75, -1.0 / n), True),
    (lambda n: Tail.constant(0.5), False),
], ids=["zero", "power", "negative-power", "constant"])
def test_lp_norm_bound_of_explicit_members_is_each_members_p_norm(tail, finite):
    members = [seq([1.0 / n, -2.0, 0.5], tail(n)) for n in range(1, 7)]
    nb = norm_bound(SequenceFamily(members=members), SpaceTag.lp(2.0))
    assert nb.trace == tuple(p_norm(m, 2.0) for m in members)
    assert math.isfinite(nb.value) is finite
    assert nb.value == max(nb.trace) and nb.trace_indices is None


def test_model_norm_bound_matches_partial_sums():
    fam = truncation_family(1.0, size=8, horizon=16, p=2.0)
    nb = norm_bound(fam, SpaceTag.lp(2.0))
    assert nb.trace_indices == (1, 2, 4, 8, 16)
    for k, got in zip(nb.trace_indices, nb.trace):
        oracle = math.sqrt(sum(j ** -2.0 for j in range(1, k + 1)))
        assert got == pytest.approx(oracle, rel=1e-12)
    assert nb.value == nb.trace[-1]


def test_model_norm_bound_sup_route():
    fam = truncation_family(0.5, coeff=2.0, size=8, horizon=64)
    nb = norm_bound(fam, SpaceTag.linf())
    assert nb.value == 2.0
    assert all(v == 2.0 for v in nb.trace)


# ---------------------------------------------------------------------------
# uniform certificate replay


def test_uniform_certificate_replay_detects_violations():
    members = [seq([0.0] * 3), seq([1.0] * 3)]
    assert _uniform_breach(SequenceFamily(members=members), (0.5, 0.5), 2).startswith(
        "||x_1 - x_2|| = 1 exceeds")
    fam = SequenceFamily(members=members,
                         metadata=FamilyMetadata(uniformly_cauchy_norms=(1.0, 1.0)))
    doc = stored(check_buo_cauchy(fam, CertificatePolicy(), CheckConfig(tolerance=1.0)))
    assert doc["certificate"] == {"type": "uniform_cauchy", "eps": [1.0, 1.0]}
    assert replay_report(doc, fam) == "certificate"
    doc["certificate"]["eps"] = [0.5, 0.5]
    with pytest.raises(InternalInvariantError,
                       match=r"stored uniform_cauchy certificate does not replay: "
                             r"certificate\.eps\[0\]: stored 0\.5, re-run 1\.0"):
        replay_report(doc, fam)


def test_monotone_certificate_replay_checks_the_stored_bound_and_its_tail():
    members = [seq([1.0 / n, 2.0 / n, 0.0], Tail.constant(1.0 / n)) for n in range(1, 6)]
    declared = seq([1.0, 2.0, 1.0], Tail.constant(1.0))
    fam = SequenceFamily(members=members, metadata=FamilyMetadata(
        monotone_decreasing=True, common_bound=declared))
    doc = stored(check_buo_cauchy(fam, CertificatePolicy()))
    assert replay_report(doc, fam) == "certificate"
    # same window, tail below the first member's: only the tail can show it
    low_tail = copy.deepcopy(doc)
    low_tail["certificate"]["bound"]["tail"]["value"] = 0.5
    with pytest.raises(InternalInvariantError,
                       match=r"certificate\.bound\.tail\.value: stored 0\.5, re-run 1\.0"):
        replay_report(low_tail, fam)
    # a family with no declared bound has no certificate route
    bare = SequenceFamily(members=members)
    with pytest.raises(InternalInvariantError,
                       match="stored monotone certificate does not replay: bound: stored 2.0, "
                             "re-run null"):
        replay_report(doc, bare)


def test_subsequence_draws_never_materialize_the_horizon():
    _subsequences(64, 64, 3, 10**5)  # warm numpy's lazy set-up outside the trace
    tracemalloc.start()
    try:
        subs = _subsequences(64, 64, 3, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(subs) == 64
    assert all(list(s) == sorted(set(s)) and 1 <= s[0] and s[-1] <= 10**7 for s in subs)


# ---------------------------------------------------------------------------
# vectorized metadata checks against the pairwise loops they replaced


def _oracle_sup_gap(a, b):
    gap = float(np.abs(a.values - b.values).max())
    t = tail_abs(tail_sub(a.tail, b.tail))
    if not t.decidable:
        raise MetadataError("cannot bound a gap through undeclared tails")
    return max(gap, t.sup_abs(a.first_tail_index))


def _oracle_uniform_breach(family, eps, upto):
    members = [family.member(n) for n in range(1, upto + 1)]
    for j in range(upto):
        for l in range(j + 1, upto):
            gap = _oracle_sup_gap(members[j], members[l])
            if gap > eps[j]:
                return (f"||x_{j + 1} - x_{l + 1}|| = {gap:.6g} exceeds the "
                        f"declared eps_{j + 1} = {eps[j]:.6g}")
    return None


def _oracle_le(a, b, what):
    try:
        return le(a, b)
    except UndecidableTailError:
        raise MetadataError(f"cannot verify claim ({what}) through undeclared tails") from None


def _oracle_monotone_breach(family, bound, decreasing, upto):
    prev = None
    for n in range(1, upto + 1):
        x = family.member(n)
        if bound is not None and not _oracle_le(abs_(x), bound,
                                                f"member {n} vs the common bound"):
            return f"member {n} exceeds the declared common bound"
        if decreasing and prev is not None and not _oracle_le(x, prev,
                                                              f"members {n} vs {n - 1}"):
            return f"family declared decreasing but member {n} exceeds member {n - 1}"
        prev = x
    return None


def _oracle_declared_limit(family):
    limit = family.metadata.limit
    for n in range(1, family.verification_horizon + 1):
        if not _oracle_le(limit, family.member(n), "declared limit exceeds a member"):
            raise MetadataError(f"declared limit exceeds member {n}; a decreasing family "
                                "cannot pass below its limit")
    return limit


def _oracle_running_max(tails, first):
    acc, out = Tail.zero(), []
    for t in tails:
        acc = tail_max(acc, t, first)
        out.append(acc)
    return out


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except MetadataError as exc:
        return "raised", str(exc)


# a few shared levels make ties, equal tails and exact breaches common;
# arbitrary floats exercise the rounding of the differences
_LEVELS = st.one_of(st.sampled_from([-1.5, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]),
                    st.floats(-4.0, 4.0, allow_nan=False))
_TAILS = st.one_of(
    st.just(Tail.zero()),
    st.just(Tail.none()),
    st.builds(Tail.constant, _LEVELS),
    st.builds(Tail.power, st.sampled_from([0.5, 1.0, 2.0]), _LEVELS),
)


@st.composite
def _tailed_families(draw):
    count, size = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    carrier = Carrier.index_set(size)
    rows = st.lists(_LEVELS, min_size=size, max_size=size)
    # members sharing one row leave every gap to the tails
    values = draw(st.one_of(st.lists(rows, min_size=count, max_size=count),
                            rows.map(lambda row: [row] * count)))
    # members draw from a small palette, so compatible mixes are common, and
    # leading zero tails put rows ahead of a clash between two groups
    palette = draw(st.lists(_TAILS, min_size=1, max_size=3))
    tails = draw(st.lists(st.sampled_from(palette), min_size=count, max_size=count))
    if draw(st.booleans()):
        tails = ([Tail.zero()] * draw(st.integers(0, count)) + tails)[:count]
    family = SequenceFamily(values=values, tails=tails, carrier=carrier)
    eps = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]),
                                  st.floats(0.0, 8.0)), min_size=count, max_size=count))
    bound = None
    if draw(st.booleans()):
        bound = LatticeElement(carrier, [abs(v) for v in draw(
            st.lists(_LEVELS, min_size=size, max_size=size))], draw(_TAILS))
    limit = LatticeElement(carrier, draw(st.lists(_LEVELS, min_size=size, max_size=size)),
                           draw(_TAILS))
    return family, tuple(eps), bound, draw(st.booleans()), tails, limit


def _zero_rows_ahead_of_a_clash():
    """Two zero-tailed rows whose tail gaps to the later power tails (1/2
    and 1/4 at j >= 2) stay under eps, then two exponents that clash."""
    carrier = Carrier.index_set(1)
    tails = [Tail.zero(), Tail.zero(), Tail.power(1.0, 1.0), Tail.power(2.0, 1.0)]
    family = SequenceFamily(values=[[0.0]] * 4, tails=tails, carrier=carrier)
    return family, (0.75,) * 4, None, False, tails, LatticeElement(carrier, [0.0], Tail.zero())


def _a_tail_only_between_two_rows():
    """Rows 1 and 3 share a tail; the far tail of row 2 is past row 3, so
    row 3's gaps stay under its smaller eps."""
    carrier = Carrier.index_set(1)
    tails = [Tail.constant(0.0), Tail.constant(5.0), Tail.constant(0.0), Tail.constant(0.0)]
    family = SequenceFamily(values=[[0.0]] * 4, tails=tails, carrier=carrier)
    return (family, (8.0, 8.0, 1.0, 1.0), None, False, tails,
            LatticeElement(carrier, [0.0], Tail.zero()))


@settings(max_examples=400)
@given(_tailed_families())
@example(_zero_rows_ahead_of_a_clash())
@example(_a_tail_only_between_two_rows())
def test_vectorized_metadata_checks_match_the_pairwise_loops(case):
    family, eps, bound, decreasing, tails, limit = case
    upto = family.horizon
    assert (_outcome(_uniform_breach, family, eps, upto)
            == _outcome(_oracle_uniform_breach, family, eps, upto))
    assert (_outcome(_monotone_breach, family, bound, decreasing, upto)
            == _outcome(_oracle_monotone_breach, family, bound, decreasing, upto))
    # reach the declared-limit check of a decreasing family without the
    # construction checks the drawn values would fail
    family.metadata = FamilyMetadata(limit=limit, monotone_decreasing=True)
    assert _outcome(pointwise_limit, family) == _outcome(_oracle_declared_limit, family)
    first = family.carrier.size + 1
    assert _running_max(tails, first) == _oracle_running_max(tails, first)
    assert list(family.tails(upto)) == tails
    assert _running_max(tails[::-1], first) == _oracle_running_max(tails[::-1], first)


# ---------------------------------------------------------------------------
# family and report bytes against files written by the per-member code


REFERENCE_BYTES = Path(__file__).parent / "data" / "reference_bytes"


def _pairing_bytes_family():
    rng = np.random.default_rng(20240611)
    carrier = Carrier.index_set(4)
    limit = rng.uniform(-5.0, 5.0, 4)
    noise = rng.uniform(-3.0, 3.0, 4)
    members = [LatticeElement(carrier, limit + noise * 2.0**-n, Tail.zero())
               for n in range(1, 41)]
    bound = np.abs(limit) + np.abs(noise)
    meta = FamilyMetadata(
        limit=LatticeElement(carrier, limit, Tail.zero()),
        common_bound=LatticeElement(carrier, bound, Tail.constant(float(bound.max()))))
    return SequenceFamily(members=members, metadata=meta)


def _uniform_bytes_family():
    rng = np.random.default_rng(20240612)
    carrier = Carrier.index_set(3)
    limit = rng.uniform(-2.0, 2.0, 3)
    v = rng.uniform(-1.0, 1.0, 3)
    members = [LatticeElement(carrier, limit + v * 0.5**n, Tail.power(2.0, 0.5**n))
               for n in range(1, 41)]
    vmax = max(float(np.abs(v).max()), 0.5 * 0.25)
    eps = tuple(2 * vmax * 0.5**j for j in range(1, 41))
    return SequenceFamily(members=members, metadata=FamilyMetadata(uniformly_cauchy_norms=eps))


def test_family_and_report_bytes_match_the_per_member_code(tmp_path, monkeypatch):
    """tests/data/reference_bytes holds the files the per-member family code
    wrote for these exact commands; reports name their inputs by the
    relative paths used here."""
    monkeypatch.chdir(tmp_path)
    write_json("pairing.json", family_to_json(_pairing_bytes_family()))
    write_json("uniform.json", family_to_json(_uniform_bytes_family()))
    runs = [
        ["check", "--family", "pairing.json", "--mode", "buo-equals-order",
         "--out", "pairing-paired"],
        ["check", "--family", "pairing.json", "--mode", "order", "--out", "pairing-order"],
        ["verify", "--family", "pairing.json",
         "--report", "pairing-paired/check_report.json", "--out", "v"],
        ["verify", "--family", "pairing.json",
         "--report", "pairing-order/check_report.json", "--out", "v"],
        ["check", "--family", "uniform.json", "--mode", "buo-cauchy", "--out", "uniform-check"],
        ["verify", "--family", "uniform.json",
         "--report", "uniform-check/check_report.json", "--out", "v"],
        ["generate", "ladder", "--levels", "10,20,40", "--n-max", "4", "--out", "ladder"],
        ["check", "--family", "ladder/ladder_family.json", "--mode", "buo-cauchy",
         "--out", "ladder-check"],
        ["verify", "--family", "ladder/ladder_family.json",
         "--report", "ladder-check/check_report.json", "--out", "v"],
    ]
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        if argv[0] == "verify":
            what = "paired verdict" if "paired" in argv[4] else "certificate"
            assert f"{what} re-verified" in out.getvalue()
    stored = sorted(p.relative_to(REFERENCE_BYTES) for p in REFERENCE_BYTES.rglob("*.json"))
    stored = [rel for rel in stored if rel.parts[0] != "geometry"]  # test_cli's metric runs
    assert len(stored) == 7
    for rel in stored:
        assert (tmp_path / rel).read_bytes() == (REFERENCE_BYTES / rel).read_bytes(), rel
