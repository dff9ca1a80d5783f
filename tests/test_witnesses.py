import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticelab.cli import main
from latticelab.config import ProofConstants
from latticelab.convergence import (
    FamilyMetadata,
    SequenceFamily,
    dominating_element,
    truncation_family,
)
from latticelab.core import Carrier, LatticeElement, SpaceTag, Tail
from latticelab.errors import (
    DominatingConditionError,
    HorizonExhaustedError,
    InputError,
    InternalInvariantError,
    LimitInSpaceRefusal,
)
from latticelab.serialize import family_to_json, witness_to_json, write_json
from latticelab.witnesses import (
    BlockWitness,
    JumpWitness,
    extract_big_jump_witness,
    extract_lp_block_witness,
    refute_order_boundedness,
    verify_block_witness,
    verify_jump_witness,
)


def step_family(eps=0.25, size=64, depth=None, height=None):
    """x_n holds ``height`` (default 4*eps) on coordinates 1..n, zero past."""
    depth = depth or size
    height = height if height is not None else 4.0 * eps
    carrier = Carrier.index_set(size)
    members = []
    for n in range(1, depth + 1):
        vals = np.zeros(size)
        vals[: min(n, size)] = height
        members.append(LatticeElement(carrier, vals, Tail.zero()))
    return SequenceFamily(members=members)


def harmonic_truncations(size=96, depth=192):
    """Explicit twin of truncation_family(1.0): members repeat the full
    prefix once n passes ``size``, and the declared limit carries the true
    power tail."""
    carrier = Carrier.index_set(size)
    x = 1.0 / np.arange(1, size + 1, dtype=np.float64)
    members = []
    for n in range(1, depth + 1):
        vals = x.copy()
        vals[min(n, size):] = 0.0
        members.append(LatticeElement(carrier, vals, Tail.zero()))
    limit = LatticeElement(carrier, x, Tail.power(1.0, 1.0))
    return SequenceFamily(members=members, metadata=FamilyMetadata(limit=limit))


# ---------------------------------------------------------------------------
# big-jump extraction


def test_step_family_yields_twenty_jump_pairs():
    fam = step_family(eps=0.25, size=64)
    w = extract_big_jump_witness(fam, range(1, 65), eps=0.25, count=20)
    assert w.count == 20
    assert all(j == 1.0 for j in w.jumps)  # 4*eps - 0
    assert all(v == 0.0 for v in w.values_before)
    assert all(v == 1.0 for v in w.values_after)
    assert w.indices == tuple(range(1, 22))
    assert w.coordinates == tuple(range(2, 22))
    assert w.index_shift == 0
    assert verify_jump_witness(w, fam)


def test_jump_pairs_verify_above_eps():
    fam = step_family(eps=0.25, size=32)
    w = extract_big_jump_witness(fam, range(1, 33), eps=0.25, count=10)
    for n_lo, n_hi, k in w.pairs():
        gap = abs(
            fam.member(n_hi).values[k - 1] - fam.member(n_lo).values[k - 1]
        )
        assert gap > 0.25


def test_quiet_family_refuses_extraction():
    x = LatticeElement(Carrier.index_set(8), np.full(8, 0.1), Tail.zero())
    fam = SequenceFamily(members=[x] * 6)
    with pytest.raises(DominatingConditionError, match="large-value hypothesis"):
        extract_big_jump_witness(fam, range(1, 9), eps=0.25, count=3)


def test_short_horizon_reports_partial_progress():
    fam = step_family(eps=0.25, size=64, depth=10)
    with pytest.raises(HorizonExhaustedError) as exc:
        extract_big_jump_witness(fam, range(1, 65), eps=0.25, count=20)
    assert exc.value.found == 9
    assert len(exc.value.usable) > 0


def test_jump_extraction_input_guards():
    fam = step_family(size=16)
    with pytest.raises(InputError):
        extract_big_jump_witness(fam, [], eps=0.25, count=3)
    with pytest.raises(InputError):
        extract_big_jump_witness(fam, [99], eps=0.25, count=3)
    with pytest.raises(InputError):
        extract_big_jump_witness(fam, [1], eps=-1.0, count=3)
    with pytest.raises(InputError):
        extract_big_jump_witness(fam, [1], eps=0.25, count=0)


def test_custom_constants_must_keep_the_arithmetic():
    with pytest.raises(InputError, match="exceed 2"):
        ProofConstants(eps_factor=2.0)
    with pytest.raises(InputError, match="block arithmetic"):
        ProofConstants(tail_budget=0.6)


# ---------------------------------------------------------------------------
# jump records: self-checks and replay


def test_tampered_jump_value_fails_the_record_check():
    fam = step_family(size=32)
    w = extract_big_jump_witness(fam, range(1, 33), eps=0.25, count=5)
    with pytest.raises(InputError, match="disagrees with its endpoint values"):
        dataclasses.replace(w, jumps=w.jumps[:-1] + (0.5,))


def test_consistent_but_false_record_fails_replay():
    fam = step_family(size=32)
    w = extract_big_jump_witness(fam, range(1, 33), eps=0.25, count=5)
    # internally consistent (jump still 1.0, quiet value still below eps)
    # but the endpoint values are not the family's
    forged = dataclasses.replace(
        w,
        values_before=(0.01,) + w.values_before[1:],
        values_after=(1.01,) + w.values_after[1:],
    )
    with pytest.raises(InternalInvariantError, match="endpoint values differ"):
        verify_jump_witness(forged, fam)


def test_replay_rejects_a_longer_horizon_than_the_family():
    fam = step_family(size=32)
    w = extract_big_jump_witness(fam, range(1, 33), eps=0.25, count=5)
    short = step_family(size=32, depth=4)
    with pytest.raises(InputError, match="beyond the"):
        verify_jump_witness(w, short)


def test_record_requires_increasing_indices():
    with pytest.raises(InputError, match="strictly increasing"):
        JumpWitness(
            eps=0.25, factor=3.0, indices=(2, 1), coordinates=(1,),
            jumps=(1.0,), values_before=(0.0,), values_after=(1.0,), horizon=5,
        )


# ---------------------------------------------------------------------------
# block extraction


def test_model_blocks_for_the_divergent_harmonic_tail():
    fam = truncation_family(1.0, size=64, horizon=10**9)
    w = extract_lp_block_witness(fam, p=1.0, count=5)
    assert w.blocks == ((2, 12), (13, 93), (94, 692), (693, 5118), (5119, 37822))
    assert all(n > 1.0 for n in w.norms)
    assert all(t < 0.25 for t in w.tail_norms)
    assert all(ln > 2.0 for ln in w.limit_norms)
    assert verify_block_witness(w, fam)


def test_explicit_blocks_agree_with_the_model_route():
    model_fam = truncation_family(1.0, size=96, horizon=10**6)
    explicit_fam = harmonic_truncations(size=96, depth=192)
    wm = extract_lp_block_witness(model_fam, p=1.0, count=2)
    we = extract_lp_block_witness(explicit_fam, p=1.0, count=2)
    assert we.blocks == wm.blocks
    assert we.indices == wm.indices
    for a, b in zip(we.norms, wm.norms):
        assert a == pytest.approx(b, rel=1e-9)
    assert verify_block_witness(we, explicit_fam)


def test_block_supports_are_disjoint_and_increasing():
    fam = truncation_family(0.5, size=64, horizon=10**9)
    w = extract_lp_block_witness(fam, p=2.0, count=5)
    for (a, b), (c, d) in zip(w.blocks, w.blocks[1:]):
        assert b <= c
    assert verify_block_witness(w, fam)


def test_convergent_tail_refuses_block_extraction():
    fam = truncation_family(1.5, size=64, horizon=10**6, p=1.0)
    with pytest.raises(LimitInSpaceRefusal, match=r"lies in lp\(p=1\)"):
        extract_lp_block_witness(fam, p=1.0, count=3)


def test_block_extraction_input_guards():
    fam = truncation_family(1.0, size=16, horizon=100)
    with pytest.raises(InputError):
        extract_lp_block_witness(fam, p=0.5, count=3)
    with pytest.raises(InputError):
        extract_lp_block_witness(fam, p=1.0, count=0)


def test_tampered_block_norm_fails_replay():
    fam = truncation_family(1.0, size=64, horizon=10**9)
    w = extract_lp_block_witness(fam, p=1.0, count=3)
    forged = dataclasses.replace(w, norms=(1.5,) + w.norms[1:])
    with pytest.raises(InternalInvariantError, match="differ from the stored"):
        verify_block_witness(forged, fam)


def test_tampered_block_norm_fails_explicit_replay():
    fam = harmonic_truncations(size=96, depth=192)
    w = extract_lp_block_witness(fam, p=1.0, count=2)
    assert verify_block_witness(w, fam)
    # the approximation norm is the one the explicit route's member scan reads
    forged = dataclasses.replace(w, approx_norms=w.approx_norms[:1] + (w.approx_norms[1] / 2,))
    with pytest.raises(InternalInvariantError, match="block 2 norms .* differ from the stored"):
        verify_block_witness(forged, fam)


def test_block_record_rejects_overlap():
    with pytest.raises(InputError, match="overlaps"):
        BlockWitness(
            p=1.0, indices=(1, 2, 3), blocks=((1, 5), (4, 9)),
            norms=(1.5, 1.5), tail_norms=(0.1, 0.1),
            limit_norms=(2.5, 2.5), approx_norms=(0.1, 0.1),
            tail_budget=0.25, block_mass=2.0, horizon=10,
        )


# ---------------------------------------------------------------------------
# every refusal of the two record checks, one broken field at a time

#: (witness kind, fields to replace, the refusal they trip).  The jump
#: witness is the step family's (jumps 1.0 from 0.0 at eps 0.25, factor 3,
#: indices 1..6, horizon 32); the block witness is the harmonic
#: truncations' at p = 1 (indices 1, 9, 72, 539; budget 0.25, mass 2).
_BROKEN_RECORDS = [
    ("jumps", {"eps": 0.0}, "needs eps > 0"),
    ("jumps", {"eps": math.inf}, "needs eps > 0"),
    ("jumps", {"factor": 2.0}, "needs factor > 2"),
    ("jumps", {"coordinates": ()}, "holds no pairs"),
    ("jumps", {"indices": (1, 2, 3, 4, 5)}, "cannot pair 5 coordinates"),
    ("jumps", {"values_after": (1.0,) * 4}, "disagree with the coordinate count"),
    ("jumps", {"indices": (0, 2, 3, 4, 5, 6)}, "member indices must be strictly"),
    ("jumps", {"coordinates": (0, 3, 4, 5, 6)}, "coordinates must be strictly"),
    ("jumps", {"coordinates": (2, 3, 3, 5, 6)}, "coordinates must be strictly"),
    ("jumps", {"index_shift": 1}, "marks a realigned record"),
    ("jumps", {"horizon": 5}, "horizon cannot precede"),
    ("jumps", {"jumps": (1.0, 1.0, 0.5, 1.0, 1.0)}, "stored jump 3 disagrees"),
    ("jumps", {"eps": 1.0}, "jump 1 is 1, not above eps=1"),
    ("jumps", {"values_before": (0.5,) + (0.0,) * 4, "jumps": (0.5,) + (1.0,) * 4},
     "pre-jump value 1 is not below eps"),
    ("jumps", {"factor": 4.0}, r"post-jump value 1 is not above 4\*eps"),
    ("blocks", {"p": 0.5}, "needs 1 <= p < inf"),
    ("blocks", {"p": math.inf}, "needs 1 <= p < inf"),
    ("blocks", {"blocks": ()}, "holds no blocks"),
    ("blocks", {"indices": (1, 9, 72)}, "3 member indices cannot frame 3 blocks"),
    ("blocks", {"norms": (1.5, 1.5)}, "norms disagrees with the block count"),
    ("blocks", {"tail_norms": (0.0,) * 4}, "tail_norms disagrees"),
    ("blocks", {"limit_norms": (2.5,)}, "limit_norms disagrees"),
    ("blocks", {"approx_norms": ()}, "approx_norms disagrees"),
    ("blocks", {"indices": (0, 9, 72, 539)}, "strictly increasing and >= 1"),
    ("blocks", {"indices": (1, 72, 9, 539)}, "strictly increasing and >= 1"),
    ("blocks", {"horizon": 538}, "horizon cannot precede"),
    ("blocks", {"tail_budget": 0.5}, "break the block arithmetic"),
    ("blocks", {"blocks": ((0, 12), (13, 93), (94, 692))}, r"block 1 = \[0, 12\) is empty"),
    ("blocks", {"blocks": ((2, 12), (13, 13), (94, 692))}, r"block 2 = \[13, 13\) is empty"),
    ("blocks", {"blocks": ((2, 12), (11, 93), (94, 692))}, "block 2 overlaps block 1"),
    ("blocks", {"norms": (1.8, 1.0, 1.8)}, "block 2 difference norm 1 is not > 1"),
    ("blocks", {"tail_norms": (0.0, 0.0, 0.25)}, "member tail norm 3 is not below"),
    ("blocks", {"limit_norms": (2.0, 2.1, 2.1)}, "limit norm on block 1 is not above"),
    ("blocks", {"approx_norms": (0.1, 0.25, 0.1)}, "approximation norm 2 is not below"),
]


def _extracted(kind):
    if kind == "jumps":
        fam = step_family(size=32)
        return fam, extract_big_jump_witness(fam, range(1, 33), eps=0.25, count=5)
    fam = truncation_family(1.0, size=64, horizon=10**9)
    return fam, extract_lp_block_witness(fam, p=1.0, count=3)


@pytest.mark.parametrize("kind, broken, said", _BROKEN_RECORDS)
def test_each_broken_record_field_is_refused(kind, broken, said, tmp_path, capsys):
    fam, w = _extracted(kind)
    with pytest.raises(InputError, match=said):
        dataclasses.replace(w, **broken)
    # the same damage in a stored record: verify --witness exits 3
    doc = dict(witness_to_json(w), **broken)
    write_json(tmp_path / "fam.json", family_to_json(fam))
    (tmp_path / "witness.json").write_text(json.dumps(doc))  # inf as Infinity
    capsys.readouterr()
    assert main(["verify", "--family", str(tmp_path / "fam.json"),
                 "--witness", str(tmp_path / "witness.json")]) == 3
    err = capsys.readouterr().err
    assert "stored record fails its own inequalities" in err
    assert re.search(said, err)


# ---------------------------------------------------------------------------
# refutation certificates


def test_jump_refutation_states_the_c0_bound():
    fam = step_family(eps=0.25, size=64)
    w = extract_big_jump_witness(fam, range(1, 65), eps=0.25, count=20)
    cert = refute_order_boundedness(w, SpaceTag.c0())
    assert cert.kind == "big_jump"
    assert cert.count == 20
    assert len(cert.lower_bounds) == 20
    assert all(b > 0.25 for b in cert.lower_bounds)
    assert "0.25" in cert.statement and "c0" in cert.statement


def test_block_refutation_grows_like_count_to_one_over_p():
    fam = truncation_family(0.5, size=64, horizon=10**9)
    w = extract_lp_block_witness(fam, p=2.0, count=5)
    cert = refute_order_boundedness(w, SpaceTag.lp(2.0))
    assert cert.kind == "disjoint_blocks"
    assert cert.norm_lower_bound == pytest.approx(math.sqrt(5.0))
    assert "5**(1/2)" in cert.statement


def test_refutation_tag_mismatches_are_loud():
    fam = step_family(size=32)
    w = extract_big_jump_witness(fam, range(1, 33), eps=0.25, count=5)
    with pytest.raises(InputError, match="c0 tag"):
        refute_order_boundedness(w, SpaceTag.lp(1.0))
    bfam = truncation_family(1.0, size=64, horizon=10**9)
    bw = extract_lp_block_witness(bfam, p=1.0, count=2)
    with pytest.raises(InputError, match=r"lp\(p=1\)"):
        refute_order_boundedness(bw, SpaceTag.c0())
    with pytest.raises(InputError, match=r"lp\(p=1\)"):
        refute_order_boundedness(bw, SpaceTag.lp(2.0))
    with pytest.raises(InputError, match="cannot refute"):
        refute_order_boundedness("not a witness", SpaceTag.c0())


# ---------------------------------------------------------------------------
# criterion shapes


def test_step_dominator_is_the_exact_plateau():
    eps = 0.25
    fam = step_family(eps=eps, size=64)
    y = dominating_element(fam)
    assert np.all(y.values == 4.0 * eps)
    assert y.tail == Tail.zero()


@given(
    st.integers(min_value=8, max_value=40),
    st.floats(min_value=0.05, max_value=0.5),
    st.integers(min_value=1, max_value=6),
)
def test_step_extraction_properties(size, eps, count):
    # the plateau height 4*eps always clears the 3*eps threshold, so any
    # count up to the coordinate budget extracts and replays
    fam = step_family(eps=eps, size=size)
    w = extract_big_jump_witness(fam, range(1, size + 1), eps=eps, count=count)
    assert w.count == count
    assert all(j == 4.0 * eps for j in w.jumps)
    assert verify_jump_witness(w, fam)
    cert = refute_order_boundedness(w, SpaceTag.c0())
    assert cert.count == count


@given(st.sampled_from([1.0, 2.0]), st.integers(min_value=1, max_value=4))
def test_model_blocks_replay_for_both_exponents(p, count):
    fam = truncation_family(1.0 / p, size=64, horizon=10**9)
    w = extract_lp_block_witness(fam, p=p, count=count)
    assert w.count == count
    assert verify_block_witness(w, fam)
