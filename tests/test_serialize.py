"""Round trips, byte determinism and ingestion diagnostics for stored records."""

import json
import math
import pathlib
import struct
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latticelab import serialize
from latticelab.cli import replay_report
from latticelab.config import CheckConfig
from latticelab.convergence import (
    ConvergenceVerdict,
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
    canonical_json,
    escape_report_to_json,
    family_from_json,
    family_to_json,
    first_difference,
    load_family,
    load_space,
    read_coords_csv,
    read_distance_csv,
    record,
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


def plain(x):
    """x with numpy arrays and scalars as the Python values they hold."""
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, (np.ndarray, np.generic)):
        return plain(x.tolist())
    return x


def oracle_json(obj) -> str:
    """The canonical text as the standard library writes it."""
    return json.dumps(plain(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


#: floats at the edges of the forms in which orjson and repr spell a float
#: differently, with their neighbours, and at the ends of the float64 range
_PINNED_FLOATS = [
    *(y for x in (1e-5, 1e-4, 1e16)
      for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))),
    9999999999999998.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]
_PINNED_FLOATS += [-x for x in _PINNED_FLOATS] + [-0.0]

_texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\n\r\t\x7fé€\u2028😀'),
                           st.characters()), max_size=6)
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**53 + 1, *_PINNED_FLOATS]))
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
    assert json.loads(text) == plain(doc)


def assert_spelled_as_repr(x: float) -> None:
    """x is written as float.__repr__ spells it at top level, in a list, in a
    float64 array row and as an object value."""
    r = float.__repr__(x)
    assert canonical_json(x) == f"{r}\n"
    assert canonical_json([x, x]) == f"[\n  {r},\n  {r}\n]\n"
    assert canonical_json(np.array([[x, x]])) == f"[\n  [\n    {r},\n    {r}\n  ]\n]\n"
    assert canonical_json({"k": x}) == f'{{\n  "k": {r}\n}}\n'


#: float64 bit patterns: any, and ones in 2**-38 to 2**78 (about 4e-12 to
#: 3e23), around the forms in which orjson spells a float unlike repr
_float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(0, 1), st.integers(985, 1100), st.integers(0, 2**52 - 1)).map(
        lambda f: f[0] << 63 | f[1] << 52 | f[2]),
)


@settings(max_examples=500)
@given(_float_bits)
def test_every_finite_float_is_spelled_as_repr_spells_it(bits):
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    assume(math.isfinite(x))
    assert_spelled_as_repr(x)


@pytest.mark.parametrize("x", _PINNED_FLOATS, ids=repr)
def test_a_float_at_the_edge_of_a_respelled_form_is_spelled_as_repr_spells_it(x):
    assert_spelled_as_repr(x)


REFERENCE_BYTES = pathlib.Path(__file__).parent / "data" / "reference_bytes"


@pytest.mark.parametrize("path", sorted(REFERENCE_BYTES.rglob("*.json")),
                         ids=lambda p: str(p.relative_to(REFERENCE_BYTES)))
def test_a_reference_file_re_encodes_to_its_own_bytes(path):
    raw = path.read_bytes()
    assert canonical_json(json.loads(raw)).encode("utf-8") == raw


#: the floats orjson spells unlike repr, and the extremes, to sit on block seams
_seam_floats = st.one_of(st.sampled_from([1e-07, 1e+16, 1e-05, -0.0, 5e-324]), _floats)
_block_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5)
_block_arrays = st.one_of(
    hnp.arrays(np.float64, _block_shapes, elements=_seam_floats),
    hnp.arrays(np.int64, _block_shapes),
    hnp.arrays(np.bool_, _block_shapes),
)


@st.composite
def _blocked_documents(draw):
    """An object holding one to three arrays, each nested in lists and
    objects to a drawn depth, beside a float and a string."""
    doc = {"float": draw(_seam_floats), "text": draw(_texts)}
    for k in range(draw(st.integers(1, 3))):
        value = draw(_block_arrays)
        for outer in draw(st.lists(st.sampled_from(["list", "object", "row"]), max_size=3)):
            value = {"v": value, "w": 1e-07} if outer == "object" else (
                [value] if outer == "list" else [1e+16, value, "s"])
        doc[f"a{k}"] = value
    return doc


@settings(max_examples=200)
@given(_blocked_documents(), st.integers(1, 3), st.sampled_from([1, 7, 1 << 16]))
def test_arrays_written_in_row_blocks_give_the_standard_library_bytes(tmp_path_factory, doc,
                                                                    rows, chunk):
    """Every array goes out ``rows`` rows at a time, each block respelled on
    its own (line by line at a chunk of 1) and indented to the array's depth."""
    path = tmp_path_factory.getbasetemp() / "blocked.json"
    dumps, calls = orjson.dumps, []
    with mock.patch.object(serialize, "_block_rows", lambda x: rows), \
            mock.patch.object(serialize, "_RESPELL_CHUNK", chunk), \
            mock.patch.object(serialize.orjson, "dumps",
                              lambda *a, **k: calls.append(a[0]) or dumps(*a, **k)):
        write_json(path, doc)
    assert path.read_bytes() == oracle_json(doc).encode("utf-8")
    # the rest of the document, then each block of every longer array
    blocks = sum(-(-len(x) // rows) for x in _arrays_in(doc) if len(x) > rows)
    assert len(calls) == 1 + blocks


def _arrays_in(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _arrays_in(v)
    elif isinstance(x, list):
        for v in x:
            yield from _arrays_in(v)


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


def test_write_json_peak_memory_stays_near_the_size_of_its_file(tmp_path):
    rng = np.random.default_rng(7)
    family = SequenceFamily(values=rng.standard_normal((300, 3000)), tails=Tail.zero(),
                            carrier=Carrier.index_set(3000))
    doc = family_to_json(family)
    path = tmp_path / "family.json"
    tracemalloc.start()
    try:
        write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * path.stat().st_size


def test_load_family_peak_memory_stays_near_its_file_and_matrix(tmp_path):
    """Above the gate the rows go straight into the value matrix: the file's
    bytes, that matrix and the family's own copy of it are the large blocks."""
    rng = np.random.default_rng(7)
    family = SequenceFamily(values=rng.standard_normal((300, 3000)), tails=Tail.zero(),
                            carrier=Carrier.index_set(3000))
    path = tmp_path / "family.json"
    write_json(path, family_to_json(family))
    tracemalloc.start()
    try:
        loaded = load_family(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.stacked(300), family.stacked(300))
    assert peak < path.stat().st_size + 2 * family.stacked(300).nbytes


def test_load_family_holds_the_matrix_and_not_the_text(tmp_path):
    """The row route reads the file in blocks into one matrix, which the
    family takes as its own: the 24 MB text is never held, nor a second copy."""
    rng = np.random.default_rng(7)
    family = SequenceFamily(values=rng.standard_normal((300, 3000)), tails=Tail.zero(),
                            carrier=Carrier.index_set(3000))
    path = tmp_path / "family.json"
    write_json(path, family_to_json(family))
    tracemalloc.start()
    try:
        loaded = load_family(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.stacked(300), family.stacked(300))
    assert peak <= 1.25 * family.stacked(300).nbytes + (4 << 20)


def test_family_from_json_copies_a_writable_matrix_it_is_given():
    """Only load_family's read-only matrix is taken uncopied; a caller's own
    array stays theirs and writable."""
    values = np.arange(6.0).reshape(3, 2)
    family = family_from_json({"schema_version": 1, "members": values,
                               "carrier": {"kind": "index_set", "size": 2}})
    assert values.flags.writeable and not np.shares_memory(family.stacked(3), values)
    assert np.array_equal(family.stacked(3), values)


def test_write_json_holds_a_block_and_not_the_text(tmp_path):
    rng = np.random.default_rng(7)
    family = SequenceFamily(values=rng.standard_normal((300, 3000)), tails=Tail.zero(),
                            carrier=Carrier.index_set(3000))
    doc = family_to_json(family)
    path = tmp_path / "family.json"
    tracemalloc.start()
    try:
        write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 20_000_000
    assert peak <= 4 << 20


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


@pytest.mark.parametrize("error", [orjson.JSONEncodeError, KeyboardInterrupt],
                         ids=["refused", "interrupted"])
def test_a_write_json_that_fails_between_blocks_leaves_the_file_as_it_was(error, tmp_path,
                                                                          monkeypatch):
    path = tmp_path / "family.json"
    write_json(path, {"x": 1.0})
    before = path.read_bytes()
    blocks, dumps = [], orjson.dumps

    def failing(obj, *args, **kwargs):
        if isinstance(obj, np.ndarray):  # a block of rows, under one axis as the array is
            blocks.append(obj)
            if len(blocks) == 2:
                raise error("failed on the second block")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(serialize, "_block_rows", lambda x: 2)
    monkeypatch.setattr(serialize.orjson, "dumps", failing)
    with pytest.raises(error, match="second block"):
        write_json(path, {"members": np.arange(12.0).reshape(6, 2)})
    assert len(blocks) == 2
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_write_json_gives_a_new_file_the_mode_open_gives(tmp_path):
    opened = tmp_path / "opened.json"
    with open(opened, "wb"):
        pass
    written = tmp_path / "written.json"
    write_json(written, {"x": 1.0})
    assert written.stat().st_mode == opened.stat().st_mode


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


# number spellings float() and orjson read alike, padded with ASCII
# whitespace, and in the other files also those orjson refuses or reads
# otherwise (the integer -0, integers beyond the float range, what only
# float() reads) and other whitespace
_plain_numbers = st.one_of(
    st.tuples(st.sampled_from(["", "-"]), st.integers(0, 10**25).map(str),
              st.sampled_from(["", "."]), st.text("0123456789", max_size=25),
              st.sampled_from(["", "e", "E-", "e+"]), st.integers(0, 400).map(str)).map(
        lambda t: "".join(t[:3]) + (t[3] or "0" if t[2] else "") + (t[4] and t[4] + t[5])),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**25, 10**25).map(str),
)
_odd_numbers = st.one_of(
    st.integers(10**399, 10**400).map(str),
    st.sampled_from(["1.", ".5", "+1", "1_0", "inf", "-inf", "nan", "1e400", "-1e-400", "-0",
                     "-0.0", "-0e0", "00", "0x1", "1e", "", "x", "1 2", "\uff11"]),
)
_zeros = ["0", "0.0", " -0.0", "0e5\t", "-0", " -0\t", "0.", ".0", "00"]
_pads = ["", " ", "\t", "\xa0", "\u2003", "\x0c", "\x1c"]
_labels = ["a", "b", "c", " d ", "\xe9", "\ufeffe", "\x00f", "-0", "", " ", "\xa0"]
_blank_lines = ["", ",", ",,", " , ", "\t", "\xa0", "\x1c,", ",\u2003"]


@st.composite
def _csv_spaces(draw):
    """(coords, raw) of a coords (``coords``) or distance CSV file on 1 to 4
    points; a distance body is symmetric (one text per pair), labeled or
    bare.  Half the files are plain: distinct labels, plain numbers, ASCII
    padding, blank and comma-only lines of ASCII whitespace.  The others
    draw from every list above and take up to two changes (a cell or a row
    dropped or added, a cell quoted, a row label replaced) and, one in five,
    an invalid UTF-8 byte.  Line ends are LF, CRLF or CR, line by line, and
    some files start with a BOM."""
    coords, n, plain = draw(st.booleans()), draw(st.integers(1, 4)), draw(st.booleans())
    numbers = _plain_numbers if plain else st.one_of(_plain_numbers, _odd_numbers)
    pads = st.sampled_from(_pads[:3] if plain else _pads)
    cell = st.tuples(pads, numbers, pads).map("".join)
    labels = draw(st.lists(st.sampled_from(_labels[:7] if plain else _labels),
                           min_size=n, max_size=n, unique=plain))
    if coords:
        width = draw(st.integers(1, 3))
        lines = [["label", *(f"x{k}" for k in range(1, width + 1))]]
        lines += [[label, *draw(st.lists(cell, min_size=width, max_size=width))]
                  for label in labels]
    else:
        pairs = {(i, j): draw(cell) for i in range(n) for j in range(i + 1, n)}
        zeros = st.sampled_from(_zeros[:4] if plain else _zeros)
        body = [[draw(zeros) if i == j else pairs[min(i, j), max(i, j)] for j in range(n)]
                for i in range(n)]
        labeled = draw(st.booleans())
        lines = [labels, *([label, *row] if labeled else row for label, row in zip(labels, body))]
    for _ in range(0 if plain else draw(st.integers(0, 2))):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        if not row:
            continue
        at = draw(st.integers(0, len(row) - 1))
        change = draw(st.sampled_from(["drop cell", "add cell", "drop row", "quote", "relabel"]))
        if change == "drop cell":
            del row[at]
        elif change == "add cell":
            row.insert(at, draw(cell))
        elif change == "drop row" and len(lines) > 1:
            lines.remove(row)
        elif change == "quote":
            row[at] = f'"{row[at]}"'
        else:
            row[0] = draw(st.sampled_from(_labels))
    texts = [",".join(row) for row in lines]
    blank = st.sampled_from(_blank_lines[:5] if plain else _blank_lines)
    for _ in range(draw(st.integers(0, 2))):
        texts.insert(draw(st.integers(0, len(texts))), draw(blank))
    raw = "".join(text + draw(st.sampled_from(["\n", "\r\n", "\r"])) for text in texts)
    raw = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + raw.encode("utf-8")
    if not plain and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return coords, raw


def read_space(read, path):
    """What ``read`` makes of the file: the labels and the coords (else the
    matrix) as bytes, so bit for bit, or the message of its InputError."""
    try:
        space = read(path)
    except InputError as exc:
        return str(exc)
    values = space.matrix if space.coords is None else space.coords
    return space.labels, values.shape, values.tobytes()


@settings(max_examples=150)
@given(_csv_spaces())
@example((True, b'label,x\n"a",1\n'))  # a quoted label
@example((False, b"\x1c\n0\n"))  # a header line csv drops
@example((False, b"\x1c\n\x1c,0\n"))  # and a body line it drops
@example((True, b"label,x\na,\nb, \n"))  # rows with no number text
@example((False, b"a,b\n-0,1\n1,0\n"))
@example((True, b"label,x\r\na,1_0\rb,\t2e-0\n"))
def test_the_number_table_reads_a_csv_space_as_the_csv_route_does(tmp_path_factory, drawn):
    """The csv route, with the number table declining every file, is the
    oracle: the same labels and bitwise-equal coords or matrix, or the same
    refusal."""
    coords, raw = drawn
    path = tmp_path_factory.getbasetemp() / "space.csv"
    path.write_bytes(raw)
    read = read_coords_csv if coords else read_distance_csv
    by_table = read_space(read, path)
    with mock.patch.object(serialize, "_number_table", lambda path, coords: None):
        assert read_space(read, path) == by_table


def test_a_cell_padded_with_a_separator_control_reads_as_its_stripped_text(tmp_path):
    """float() refuses the \\x1c to \\x1f that strip() removes; a coords row
    with such a cell was once dropped, and the file refused for a count."""
    path = tmp_path / "pts.csv"
    path.write_text("label,x\na,\x1c1\x1f\nb,2\n")
    assert read_coords_csv(path).coords.tolist() == [[1.0], [2.0]]
    path.write_text("a,b\n0,\x1d1\n1\x1e,0\n")
    assert read_distance_csv(path).matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]


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


@pytest.mark.parametrize("stored_doc, rerun, said", [
    (1.0, 1, ": stored 1.0, re-run 1"),
    ({"a": [1.0, 2.0]}, {"a": [1.0, 2]}, "a[1]: stored 2.0, re-run 2"),
    ({"a": [1, True]}, {"a": [1, 1]}, "a[1]: stored true, re-run 1"),
    ({"a": {"b": None}}, {"a": {}}, "a.b: stored null, re-run no such field"),
    ([[0.5], [1.0]], [[0.5], [True]], "[1][0]: stored 1.0, re-run true"),
    ({"a": [0.5, "x"], "b": 2}, {"a": [0.5, "x"], "b": 2}, None),
    (0.0, -0.0, ": stored 0.0, re-run -0.0"),
    ([[1.0, -0.0, 2.0]], [[1.0, 0.0, 2.0]], "[0][1]: stored -0.0, re-run 0.0"),
    ({"a": [-0.0, None]}, {"a": [0.0, None]}, "a[0]: stored -0.0, re-run 0.0"),
    ([0.0, -0.0, 1], [0.0, -0.0, 1], None),
    ([0, 1], [0, 1], None),
])
def test_first_difference_compares_by_json_type_and_value(stored_doc, rerun, said):
    assert first_difference(stored_doc, rerun) == said


def test_a_report_made_with_an_integer_tolerance_replays():
    fam = halving_family()
    cand = index_element(fam.carrier, [0.0, 0.0, 1.0])
    verdict = check_order_convergence(fam, cand, CheckConfig(tolerance=1))
    assert type(verdict_to_json(verdict)["tolerance"]) is float
    assert replay_report(stored(verdict), fam) == "certificate"


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


@pytest.mark.parametrize("field", ["certificate", "witness"])
def test_a_verdict_part_with_no_record_type_is_an_invariant_breach(field):
    verdict = ConvergenceVerdict(mode="buo", outcome="fails", tolerance=1e-9, horizon=1,
                                 **{field: object()})
    with pytest.raises(InternalInvariantError, match=f"no report record for {field} type object"):
        verdict_to_json(verdict)


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


def test_record_writes_the_header_of_a_dataclass_and_of_a_dict():
    assert record("metric", {"n": 2}) == {"schema_version": SCHEMA_VERSION, "type": "metric",
                                          "n": 2}
    cert = refute_order_boundedness(
        extract_big_jump_witness(step_family(), range(1, 65), eps=0.25, count=5), SpaceTag.c0())
    doc = record("refutation", cert)
    assert (doc["schema_version"], doc["type"]) == (SCHEMA_VERSION, "refutation")
    assert doc == refutation_to_json(cert)
    assert doc["lower_bounds"] == list(cert.lower_bounds)


def _metadata_layout(meta: FamilyMetadata) -> dict:
    """The family metadata record spelled out field by field."""
    def element(x):
        return None if x is None else {"values": x.values.tolist(),
                                       "tail": serialize.tail_to_json(x.tail)}
    tag = meta.space_tag
    return {
        "monotone_decreasing": meta.monotone_decreasing,
        "common_bound": element(meta.common_bound),
        "uniformly_cauchy_norms": (None if meta.uniformly_cauchy_norms is None
                                   else list(meta.uniformly_cauchy_norms)),
        "space_tag": None if tag is None else {"kind": tag.kind, "p": tag.p},
        "limit": element(meta.limit),
        "growth": meta.growth,
        "notes": list(meta.notes),
    }


@pytest.mark.parametrize("metadata", ["empty", "full", "c0"])
def test_family_metadata_is_written_field_by_field(metadata):
    car = Carrier.index_set(3)
    values = np.array([[2.0 ** -n, 2.0 ** -n, 0.0] for n in range(1, 9)])
    meta = {
        "empty": FamilyMetadata(),
        "full": FamilyMetadata(
            monotone_decreasing=True,
            common_bound=LatticeElement(car, np.ones(3), Tail.constant(1.0)),
            uniformly_cauchy_norms=tuple(2.0 ** -n for n in range(1, 9)),
            space_tag=SpaceTag.lp(2.0),
            limit=LatticeElement(car, np.zeros(3), Tail.zero()),
            growth="bounded", notes=("halving", "two coordinates")),
        "c0": FamilyMetadata(space_tag=SpaceTag.c0(), growth="bounded"),
    }[metadata]
    family = SequenceFamily(values=values, tails=Tail.zero(), carrier=car, metadata=meta)
    doc = family_to_json(family)
    assert canonical_json(doc["metadata"]) == canonical_json(_metadata_layout(meta))
    back = family_from_json(json.loads(canonical_json(doc)))
    assert canonical_json(family_to_json(back)) == canonical_json(doc)
