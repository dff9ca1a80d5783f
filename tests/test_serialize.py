"""Round trips, byte determinism and ingestion diagnostics for stored records."""

import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latticelab.cli import replay_report
from latticelab.config import CheckConfig
from latticelab.convergence import (
    FamilyMetadata,
    SequenceFamily,
    buo_equals_order,
    check_buo_convergence,
    check_order_convergence,
    truncation_family,
)
from latticelab.core import Carrier, LatticeElement, SpaceTag, Tail
from latticelab.counterexamples import build_refinement, hat_scenario, verify_escape
from latticelab.errors import InputError, InternalInvariantError
from latticelab.metric import FiniteMetricSpace
from latticelab.serialize import (
    SCHEMA_VERSION,
    _py,
    canonical_json,
    escape_report_to_json,
    family_from_json,
    family_to_json,
    load_family,
    load_space,
    read_coords_csv,
    read_distance_csv,
    refutation_to_json,
    sha256_of,
    space_from_json,
    space_to_json,
    verdict_to_json,
    witness_from_json,
    witness_to_json,
    write_csv,
    write_json,
)
from latticelab.witnesses import (
    extract_big_jump_witness,
    extract_lp_block_witness,
    refute_order_boundedness,
    verify_block_witness,
    verify_jump_witness,
)


def index_element(carrier, vals, tail=None):
    return LatticeElement(carrier, np.asarray(vals, dtype=np.float64),
                          tail or Tail.zero())


def halving_family():
    carrier = Carrier.index_set(3)
    members = [index_element(carrier, [2.0 ** -n, 0.0, 1.0]) for n in range(1, 25)]
    meta = FamilyMetadata(
        common_bound=index_element(carrier, [1.0, 1.0, 1.0], Tail.constant(1.0)),
        space_tag=SpaceTag.linf(), growth="bounded", notes=("demo",))
    return SequenceFamily(members=members, metadata=meta)


def step_family(size=64):
    carrier = Carrier.index_set(size)
    members = []
    for n in range(1, size + 1):
        vals = np.zeros(size)
        vals[:n] = 1.0
        members.append(LatticeElement(carrier, vals, Tail.zero()))
    return SequenceFamily(members=members)


# ---------------------------------------------------------------------------
# deterministic writers


def test_canonical_json_sorts_keys_and_ends_with_newline():
    a = canonical_json({"b": 1, "a": [1.5, 2]})
    b = canonical_json({"a": [1.5, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_canonical_json_rejects_non_finite_numbers():
    with pytest.raises(InputError, match="non-finite"):
        canonical_json({"x": float("inf")})
    with pytest.raises(InputError, match="non-finite"):
        canonical_json({"x": [float("nan")]})
    with pytest.raises(InputError, match="non-finite number -inf"):
        canonical_json({"x": np.array([[1.0, -np.inf], [np.nan, 0.0]])})
    assert canonical_json({"x": np.array([[1.0, 2.5]])}) == canonical_json({"x": [[1.0, 2.5]]})


def oracle_json(obj) -> str:
    """The canonical text as the standard library writes it."""
    return json.dumps(_py(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\n\r\t\x7fé€\u2028😀'),
                           st.characters()), max_size=6)
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**53 + 1]))
_ints = st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**200),
                  st.sampled_from([0, -1, 2**53 + 1]))
_shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
_arrays = st.one_of(
    hnp.arrays(np.float64, _shapes, elements=st.floats(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.float32, _shapes, elements=st.floats(allow_nan=False, allow_infinity=False,
                                                       width=32)),
    hnp.arrays(np.int64, _shapes),
    hnp.arrays(np.bool_, _shapes),
)
_numpy_scalars = st.one_of(_floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
                           st.integers(0, 255).map(np.uint8))
_leaves = st.one_of(
    st.none(), st.booleans(), _ints, _floats, _texts, _numpy_scalars, _arrays,
    st.lists(_floats, max_size=5), st.lists(_ints, max_size=5), st.lists(_texts, max_size=5),
    st.lists(st.one_of(st.booleans(), _ints), max_size=5),
)
_documents = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_texts, inner, max_size=4),
), max_leaves=20)


@given(_documents)
def test_canonical_json_matches_the_standard_library_byte_for_byte(doc):
    text = canonical_json(doc)
    assert text == oracle_json(doc)
    assert json.loads(text) == _py(doc)


REFERENCE_BYTES = pathlib.Path(__file__).parent / "data" / "reference_bytes"


@pytest.mark.parametrize("path", sorted(REFERENCE_BYTES.rglob("*.json")),
                         ids=lambda p: str(p.relative_to(REFERENCE_BYTES)))
def test_a_reference_file_re_encodes_to_its_own_bytes(path):
    raw = path.read_bytes()
    assert canonical_json(json.loads(raw)).encode("utf-8") == raw


@pytest.mark.parametrize("doc, named", [
    (np.float64("-inf"), "-inf"),
    (np.float32("inf"), "inf"),
    ([1, "x", float("-inf")], "-inf"),
    ((0.5, float("nan")), "nan"),
    ({"m": np.array([1.0, np.nan])}, "nan"),
    ({"m": np.array([[0.0, 1.0], [2.0, -np.inf]], dtype=np.float32)}, "-inf"),
])
def test_a_non_finite_number_anywhere_is_refused(doc, named):
    with pytest.raises(InputError, match=f"^cannot serialize non-finite number {named}$"):
        canonical_json(doc)


def test_canonical_json_peak_memory_stays_near_the_size_of_its_text():
    rng = np.random.default_rng(7)
    family = SequenceFamily(values=rng.standard_normal((300, 3000)), tails=Tail.zero(),
                            carrier=Carrier.index_set(3000))
    doc = family_to_json(family)
    tracemalloc.start()
    try:
        text = canonical_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


def test_write_json_bytes_are_reproducible(tmp_path):
    doc = {"z": [0.1, 0.2, 0.30000000000000004], "a": "text"}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_json(p1, doc)
    write_json(p2, doc)
    assert sha256_of(p1) == sha256_of(p2)
    raw = p1.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_a_failed_write_json_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"x": 1.0})
    before = path.read_bytes()
    with pytest.raises(InputError, match="cannot serialize non-finite number inf"):
        write_json(path, {"x": float("inf")})
    assert path.read_bytes() == before


def test_write_csv_renders_floats_round_trip_exactly(tmp_path):
    path = tmp_path / "curve.csv"
    write_csv(path, ["n", "value"], [(1, 0.1), (2, 1.0 / 3.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "1,0.1"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


# ---------------------------------------------------------------------------
# spaces


def test_space_round_trip_keeps_coords():
    space = FiniteMetricSpace.from_coords(
        np.array([[0.0], [0.5], [2.0]]), ["x0", "a", "b"])
    doc = space_to_json(space)
    assert "coords" in doc and "matrix" not in doc
    back = space_from_json(json.loads(canonical_json(doc)))
    assert back.labels == space.labels
    assert np.array_equal(back.matrix, space.matrix)


def test_space_round_trip_keeps_matrix():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    space = FiniteMetricSpace.from_matrix(m, ["a", "b"])
    doc = space_to_json(space)
    assert "matrix" in doc
    back = space_from_json(doc)
    assert np.array_equal(back.matrix, m)


def test_space_json_accepts_flat_coordinate_lists():
    doc = {"schema_version": SCHEMA_VERSION, "labels": ["a", "b"],
           "coords": [0.0, 1.0]}
    assert space_from_json(doc).distance(0, 1) == 1.0


def test_space_json_diagnostics():
    with pytest.raises(InputError, match="missing required field 'schema_version'"):
        space_from_json({"labels": ["a"]})
    with pytest.raises(InputError, match=r"schema_version 99 unsupported \(tool writes 1\)"):
        space_from_json({"schema_version": 99, "labels": ["a"]})
    with pytest.raises(InputError, match="needs either coords or matrix"):
        space_from_json({"schema_version": SCHEMA_VERSION, "labels": ["a"]})


# ---------------------------------------------------------------------------
# families


def test_family_round_trip_preserves_tails_and_metadata():
    fam = halving_family()
    doc = family_to_json(fam)
    text = canonical_json(doc)
    back = family_from_json(json.loads(text))
    assert canonical_json(family_to_json(back)) == text
    assert back.horizon == fam.horizon
    for n in (1, 10, 24):
        assert np.array_equal(back.member(n).values, fam.member(n).values)
    assert back.member(2).tail == Tail.zero()
    meta = back.metadata
    assert meta.space_tag == SpaceTag.linf()
    assert meta.common_bound.tail == Tail.constant(1.0)
    assert meta.growth == "bounded"
    assert meta.notes == ("demo",)
    # tails that differ member to member, some repeating non-adjacently
    mixed = [Tail.constant(1.0), Tail.power(1.0, 2.0), Tail.constant(1.0), Tail.none()]
    fam = SequenceFamily(members=[LatticeElement(Carrier.index_set(2), [0.0, 0.0], t)
                                  for t in mixed])
    back = family_from_json(json.loads(canonical_json(family_to_json(fam))))
    assert list(back.tails(4)) == mixed


def test_family_round_trip_on_a_points_carrier():
    space = FiniteMetricSpace.from_coords(np.array([[0.0], [1.0]]), ["x0", "p1"])
    carrier = Carrier.points(space)
    members = [LatticeElement(carrier, np.array([1.0, 1.0 / n])) for n in (1, 2, 3)]
    fam = SequenceFamily(members=members, metadata=FamilyMetadata())
    doc = family_to_json(fam)
    assert doc["carrier"] == {"kind": "points"}
    assert "tails" not in doc
    back = family_from_json(json.loads(canonical_json(doc)))
    assert back.carrier.space.labels == ("x0", "p1")
    assert np.array_equal(back.member(3).values, members[2].values)


def test_generator_families_serialize_as_their_model():
    fam = truncation_family(1.0, size=8, horizon=10 ** 9, p=1.0)
    doc = family_to_json(fam)
    assert "members" not in doc
    assert doc["generator"] == {"kind": "truncation", "exponent": 1.0,
                                "coeff": 1.0, "size": 8, "horizon": 10 ** 9,
                                "p": 1.0}
    back = family_from_json(doc)
    assert back.horizon == 10 ** 9
    for n in (1, 5, 8, 1000):
        assert np.array_equal(back.member(n).values, fam.member(n).values)


def test_family_json_diagnostics():
    base = {"schema_version": SCHEMA_VERSION,
            "carrier": {"kind": "index_set", "size": 2}}
    with pytest.raises(InputError, match="missing required field 'members'"):
        family_from_json(dict(base))
    with pytest.raises(InputError, match="members is empty"):
        family_from_json(dict(base, members=[]))
    with pytest.raises(InputError, match="member 2 has 3 values for a carrier of size 2"):
        family_from_json(dict(base, members=[[0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(InputError, match="1 tails for 2 members"):
        family_from_json(dict(base, members=[[0.0, 0.0], [0.0, 0.0]],
                              tails=[{"kind": "zero"}]))
    with pytest.raises(InputError, match="^non-finite value at coordinate 2$"):
        family_from_json(dict(base, members=[[0.0, 0.0], [0.0, float("nan")]]))
    # members are checked in order, each row before its tail and its values
    with pytest.raises(InputError, match=r"tails\[1\]: unknown tail kind 'weird'"):
        family_from_json(dict(base, members=[[0.0, 0.0], [0.0, float("nan")]],
                              tails=[{"kind": "weird"}, {"kind": "zero"}]))
    with pytest.raises(InputError, match=r"unknown tail kind 'weird'"):
        family_from_json(dict(base, members=[[0.0, 0.0]],
                              tails=[{"kind": "weird"}]))
    with pytest.raises(InputError, match=r"carrier: unknown kind 'bag'"):
        family_from_json({"schema_version": SCHEMA_VERSION,
                          "carrier": {"kind": "bag"}})
    with pytest.raises(InputError, match=r"generator: unknown kind 'taylor'"):
        family_from_json(dict(base, generator={"kind": "taylor"}))


def test_load_family_names_the_parse_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}\n')
    with pytest.raises(InputError, match="line 1, column"):
        load_family(path)


# ---------------------------------------------------------------------------
# csv ingestion


def test_distance_csv_accepts_labeled_and_bare_bodies(tmp_path):
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("a,b\na,0,1\nb,1,0\n")
    bare = tmp_path / "bare.csv"
    bare.write_text("a,b\n0,1\n1,0\n")
    s1, s2 = read_distance_csv(labeled), read_distance_csv(bare)
    assert s1.labels == s2.labels == ("a", "b")
    assert np.array_equal(s1.matrix, s2.matrix)


def test_distance_csv_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\na,0,1\nc,1,0\n")
    with pytest.raises(InputError, match="line 3, field 1: row label 'c'"):
        read_distance_csv(path)
    path.write_text("a,b\n0,x\n1,0\n")
    with pytest.raises(InputError, match="line 2, field 2: could not parse 'x'"):
        read_distance_csv(path)
    path.write_text("a,b\n0,1\n")
    with pytest.raises(InputError, match="2 labels in the header but 1 body rows"):
        read_distance_csv(path)
    path.write_text("a,b\n0,1\n1,0,4\n")
    with pytest.raises(InputError, match="line 3: expected 2 numeric fields, got 3"):
        read_distance_csv(path)
    path.write_text("a,b\n")
    with pytest.raises(InputError, match="needs a header and at least one row"):
        read_distance_csv(path)


def test_coords_csv_reads_labeled_points(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("label,x,y\np0,0,0\np1,3,4\n")
    space = read_coords_csv(path)
    assert space.labels == ("p0", "p1")
    assert space.distance(0, 1) == 5.0


def test_coords_csv_diagnostics(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("label,x,y\np0,0,0\np1,3\n")
    with pytest.raises(InputError, match="line 3: expected 3 fields, got 2"):
        read_coords_csv(path)
    path.write_text("label,x\np0,zero\n")
    with pytest.raises(InputError, match="line 2, field 2: could not parse 'zero'"):
        read_coords_csv(path)
    path.write_text("label,x,y\np0,1,zero\n")
    with pytest.raises(InputError, match="line 2, field 3: could not parse 'zero'"):
        read_coords_csv(path)
    path.write_text("label\np0\n")
    with pytest.raises(InputError, match=">= 1 coordinate"):
        read_coords_csv(path)


def test_load_space_dispatch(tmp_path):
    path = tmp_path / "s.json"
    write_json(path, space_to_json(FiniteMetricSpace.from_coords(
        np.array([[0.0], [1.0]]), ["a", "b"])))
    assert load_space(path, "space-json").labels == ("a", "b")
    with pytest.raises(InputError, match="unknown space format 'tsv'"):
        load_space(path, "tsv")


# ---------------------------------------------------------------------------
# verdicts and certificates


def stored(verdict) -> dict:
    """A verdict's report as read back from disk, with the provenance seed
    a buo replay reads."""
    return dict(json.loads(canonical_json(verdict_to_json(verdict))), provenance={"seed": 0})


def test_order_verdict_serializes_and_its_certificate_replays():
    fam = halving_family()
    cand = index_element(fam.carrier, [0.0, 0.0, 1.0])
    cfg = CheckConfig(tolerance=1e-6)
    verdict = check_order_convergence(fam, cand, cfg)
    assert verdict.outcome == "holds"
    doc = stored(verdict)
    assert doc["type"] == "verdict" and doc["mode"] == "order"
    assert doc["certificate"]["final_sup"] == verdict.certificate.final_sup
    assert tuple(doc["certificate"]["thresholds"]) == verdict.certificate.thresholds
    assert replay_report(doc, fam) == "certificate"


def test_verdict_documents_are_byte_deterministic():
    fam = halving_family()
    cand = index_element(fam.carrier, [0.0, 0.0, 1.0])
    cfg = CheckConfig(tolerance=1e-6)
    one = canonical_json(verdict_to_json(buo_equals_order(fam, cand, cfg)))
    two = canonical_json(verdict_to_json(buo_equals_order(fam, cand, cfg)))
    assert one == two


def test_paired_verdict_document_nests_both_modes():
    fam = halving_family()
    cand = index_element(fam.carrier, [0.0, 0.0, 1.0])
    doc = verdict_to_json(buo_equals_order(fam, cand, CheckConfig(tolerance=1e-6)))
    assert doc["type"] == "paired"
    assert doc["equal"] is True
    assert doc["order"]["mode"] == "order"
    assert doc["buo"]["mode"] == "buo"


def test_failed_verdicts_carry_their_stuck_witness():
    carrier = Carrier.index_set(2)
    members = [index_element(carrier, [1.0, 0.0]) for _ in range(12)]
    fam = SequenceFamily(members=members)
    verdict = check_order_convergence(fam, index_element(carrier, [0.0, 0.0]),
                                      CheckConfig(tolerance=1e-3))
    doc = verdict_to_json(verdict)
    assert doc["outcome"] == "fails"
    assert doc["witness"]["type"] == "stuck_coordinate"
    assert doc["witness"]["trace"][-1] == 1.0


def test_buo_certificates_are_recorded_and_replayed():
    fam = halving_family()
    cand = index_element(fam.carrier, [0.0, 0.0, 1.0])
    doc = stored(check_buo_convergence(fam, cand, CheckConfig(tolerance=1e-6)))
    assert doc["certificate"]["type"] == "buo"
    assert len(doc["certificate"]["probe_sups"]) >= 1
    # the probes are recomputed from the recorded seed, never trusted from the file
    assert replay_report(doc, fam) == "certificate"
    doc["certificate"]["probe_sups"][0][1] = 0.5
    with pytest.raises(InternalInvariantError, match=r"stored buo certificate does not "
                       r"replay: certificate\.probe_sups\[0\]\[1\]: stored 0\.5"):
        replay_report(doc, fam)


def test_unknown_certificate_types_are_rejected():
    fam = halving_family()
    cand = index_element(fam.carrier, [0.0, 0.0, 1.0])
    doc = stored(check_order_convergence(fam, cand, CheckConfig(tolerance=1e-6)))
    doc["certificate"]["type"] = "weird"
    with pytest.raises(InternalInvariantError, match='stored weird certificate does not '
                       'replay: certificate.type: stored "weird", re-run "order"'):
        replay_report(doc, fam)


# ---------------------------------------------------------------------------
# witnesses


def test_jump_witness_round_trip_and_replay():
    fam = step_family()
    w = extract_big_jump_witness(fam, range(1, 65), eps=0.25, count=5)
    doc = witness_to_json(w)
    assert doc["type"] == "jump" and doc["schema_version"] == SCHEMA_VERSION
    back = witness_from_json(json.loads(canonical_json(doc)))
    assert back == w
    assert verify_jump_witness(back, fam)


def test_block_witness_round_trip_and_replay():
    fam = truncation_family(1.0, size=64, horizon=10 ** 9, p=1.0)
    w = extract_lp_block_witness(fam, p=1.0, count=2)
    doc = witness_to_json(w)
    assert doc["type"] == "blocks"
    back = witness_from_json(json.loads(canonical_json(doc)))
    assert back == w
    assert verify_block_witness(back, fam)


def test_tampered_witness_records_fail_reconstruction():
    fam = step_family()
    doc = witness_to_json(extract_big_jump_witness(fam, range(1, 65),
                                                   eps=0.25, count=5))
    doc["jumps"] = [j * 0.5 for j in doc["jumps"]]
    # a stored record that fails its own arithmetic is a breach, not bad input
    with pytest.raises(InternalInvariantError, match="fails its own inequalities"):
        witness_from_json(doc)


def test_witness_schema_diagnostics():
    fam = step_family()
    doc = witness_to_json(extract_big_jump_witness(fam, range(1, 65),
                                                   eps=0.25, count=3))
    stale = dict(doc, schema_version=0)
    # a version mismatch is a schema problem, not a breach
    with pytest.raises(InputError, match="schema_version 0 unsupported"):
        witness_from_json(stale)
    with pytest.raises(InputError, match="unknown witness type 'hunch'"):
        witness_from_json(dict(doc, type="hunch"))
    with pytest.raises(InputError, match=r"^witness json\.indices: malformed value"):
        witness_from_json(dict(doc, indices=["two", 3]))
    with pytest.raises(InputError, match=r"^witness json\.index_shift: malformed value"):
        witness_from_json(dict(doc, index_shift=float("inf")))
    with pytest.raises(InputError, match=r"^stored\.eps: malformed value"):
        witness_from_json(dict(doc, eps="big"), where="stored")
    with pytest.raises(InputError, match=r"^witness json\.jumps: malformed value"):
        witness_from_json(dict(doc, jumps=None))
    blocks = witness_to_json(extract_lp_block_witness(
        truncation_family(1.0, size=64, horizon=10 ** 9, p=1.0), p=1.0, count=2))
    with pytest.raises(InputError, match=r"^witness json\.blocks: malformed value"):
        witness_from_json(dict(blocks, blocks=[[1, 2, 3]]))
    with pytest.raises(InputError, match="missing required field 'eps'"):
        witness_from_json({k: v for k, v in doc.items() if k != "eps"})


# ---------------------------------------------------------------------------
# reports


def test_escape_report_document():
    rep = verify_escape(hat_scenario(build_refinement("accumulation", [3, 5, 9]), 3))
    doc = escape_report_to_json(rep)
    assert doc["type"] == "escape" and doc["kind"] == "hats"
    assert [r["level"] for r in doc["rows"]] == [3, 5, 9]
    assert doc["scale_fit"] is None
    assert "oscillates" in doc["statement"]
    assert canonical_json(doc) == canonical_json(escape_report_to_json(rep))


def test_refutation_document():
    fam = step_family()
    w = extract_big_jump_witness(fam, range(1, 65), eps=0.25, count=5)
    cert = refute_order_boundedness(w, SpaceTag.c0())
    doc = refutation_to_json(cert)
    assert doc["type"] == "refutation"
    assert doc["count"] == cert.count
    assert doc["tag"] == {"kind": "c0", "p": None}
    assert len(doc["lower_bounds"]) == cert.count
