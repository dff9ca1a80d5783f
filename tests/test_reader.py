"""The two readers against json.loads: the same documents, the same refusals.

read_json returns json's document: orjson decodes a small file, json every
other file, wide integers and everything orjson refuses.  load_family reads
a large family file by the row route, each "members" row decoded by orjson
straight into the family's float64 matrix, and gives the family, or the
InputError, that family_from_json gives on json's document.  json.loads is
the oracle.
Documents are compared as json.dumps text, which tells 1, 1.0 and true
apart, as well as 0.0 and -0.0, and renders each float by its shortest
round-trip repr, so equal text means equal float bits.  Families are
compared as the canonical text of family_to_json, for the same reason.
"""

import json
import math
import pathlib
import sys
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticelab import serialize
from latticelab.cli import main
from latticelab.errors import InputError
from latticelab.serialize import (canonical_json, family_from_json, family_to_json, load_family,
                                  read_json)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def typed(doc) -> str:
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# generated documents


# number literals as a writer other than Python's might spell them: long
# mantissas, either exponent letter, and integers inside and beyond 64 bits
_number_texts = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,25})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["-0", "-0.0", "5e-324", "2.2250738585072011e-308", "9007199254740993",
                     "18446744073709551615", "18446744073709551616",
                     "-9223372036854775808", "-9223372036854775809"]),
)
_strings = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\té€ 😀'), st.characters()),
                   max_size=6)
_leaf_texts = st.one_of(
    _number_texts,
    st.one_of(st.none(), st.booleans(), _strings).flatmap(
        lambda v: st.sampled_from([json.dumps(v), json.dumps(v, ensure_ascii=False)])),
)
_separators = st.sampled_from([",", ", ", ",\n  ", "\t,\r\n"])
_document_texts = st.recursive(_leaf_texts, lambda inner: st.one_of(
    st.tuples(st.lists(inner, max_size=5), _separators).map(
        lambda t: "[" + t[1].join(t[0]) + "]"),
    st.tuples(st.lists(st.tuples(_strings, inner), max_size=5), _separators).map(
        lambda t: "{" + t[1].join(f"{json.dumps(k)}: {v}" for k, v in t[0]) + "}"),
), max_leaves=30)


@given(_document_texts)
def test_read_json_returns_what_json_loads_returns(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_bytes(text.encode("utf-8"))
    assert typed(read_json(path)) == typed(json.loads(text))


def test_a_small_file_is_decoded_by_orjson(tmp_path, monkeypatch):
    path = tmp_path / "small.json"
    path.write_text('{"x": [0.1, 1e-7, -0.0, 12345678901234567], "s": "é"}')
    monkeypatch.setattr(serialize.json, "load", None)  # any json call would raise
    assert typed(read_json(path)) == typed(json.loads(path.read_text()))


def test_a_file_above_the_gate_is_decoded_by_json(tmp_path, monkeypatch):
    path = tmp_path / "large.json"
    path.write_text('{"x": [0.1, 2.5, 3]}')
    monkeypatch.setattr(serialize, "ORJSON_MAX_BYTES", path.stat().st_size - 1)
    monkeypatch.setattr(serialize.orjson, "loads", None)  # any orjson call would raise
    assert read_json(path) == {"x": [0.1, 2.5, 3]}


@pytest.mark.parametrize("text", [
    "[12345678901234567890123]", "-1234567890123456789", '{"seed":9223372036854775808}',
    "[1,\n  -18446744073709551616]",
])
def test_integer_literals_of_19_or_more_digits_are_decoded_by_json(text, tmp_path,
                                                                   monkeypatch):
    path = tmp_path / "wide.json"
    path.write_text(text)
    monkeypatch.setattr(serialize.orjson, "loads", None)
    assert typed(read_json(path)) == typed(json.loads(text))


def test_integer_literals_below_19_digits_stay_on_orjson():
    for text in [b"[123456789012345678]", b"-123456789012345678", b"[1.12345678901234567890]",
                 b'{"a":1E+1234567890123456789}', b'{"a":0.0000000000000000000001}']:
        assert not serialize._has_wide_int(text), text


# what the json reader gave before orjson: the values json reads and orjson
# refuses, and the messages of damaged files, byte for byte
@pytest.mark.parametrize("raw, expected", [
    (b"[NaN]", [math.nan]),
    (b'{"a": Infinity}', {"a": math.inf}),
    (b"[-Infinity]", [-math.inf]),
    (b"[1e400]", [math.inf]),
    (b'["\\ud800"]', ["\ud800"]),
])
def test_values_orjson_refuses_read_as_json_reads_them(raw, expected, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    assert typed(read_json(path)) == typed(expected)


@pytest.mark.parametrize("raw, message", [
    (b'\xef\xbb\xbf{"a": 1}', "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (b'{"a": "\xff"}', "not UTF-8 text (invalid start byte at byte 7)"),
    (b"[1, 2,]", "line 1, column 7: Expecting value"),
    (b'{\n  "a": 1,\n}\n', "line 3, column 1: Expecting property name enclosed in double quotes"),
    (b'{\r "a": 1,\r}', "line 3, column 1: Expecting property name enclosed in double quotes"),
    (b"", "line 1, column 1: Expecting value"),
], ids=["bom", "invalid-utf-8", "trailing-comma", "trailing-comma-lf", "trailing-comma-cr",
        "empty"])
def test_a_damaged_file_keeps_its_message(raw, message, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(InputError) as info:
        read_json(path)
    assert str(info.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# the integer literals orjson reads as floats


def test_orjson_reads_an_integer_literal_as_the_float_of_its_int():
    """The row route writes what orjson gives for an integer literal into a
    float64 matrix, and json's int becomes float(n) there too; nothing
    screens the rows for wide integers, so this pins the installed orjson:
    every literal of 19 to 309 digits, both signs, gives float(n) bit for bit
    (near-halfway values at every 2**e from 2**64 to 2**1023 included), and
    orjson refuses a literal exactly where float(n) overflows, from
    2**1024 - 2**970 on."""
    rng = np.random.default_rng(21)
    literals = [int("".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, size - 1)])))
                for size in range(19, 310) for _ in range(20)]
    for e in range(64, 1024):
        for near in (1 << e, (1 << e) + (1 << (e - 53)), (1 << e) - (1 << (e - 54))):
            literals += [near - 1, near, near + 1]
    top = (1 << 1024) - (1 << 970)  # float(n) rounds up to 2**1024 from here on
    literals += [top - 1, top, top + 1, 10 ** 309]
    for n in literals + [-n for n in literals]:
        try:
            expected = float(n).hex()
        except OverflowError:
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(str(n))
        else:
            assert float(orjson.loads(str(n))).hex() == expected, n
    assert float(top - 1) == sys.float_info.max


# ---------------------------------------------------------------------------
# the row route of a large family


def described(family) -> str:
    """A family as the canonical text of its document: carrier, values (by
    shortest round-trip repr, so bit for bit), tails and metadata."""
    return canonical_json(family_to_json(family))


def json_family(path) -> str:
    """What family_from_json makes of json's document of the file: the
    family described, or the message of the InputError either raises."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
    try:
        return described(family_from_json(doc, where=str(path)))
    except InputError as exc:
        return str(exc)


def row_route_family(path) -> str:
    """load_family with the gate at 0, so the file takes the row route where
    it applies: the family described, or the InputError's message."""
    with mock.patch.object(serialize, "ORJSON_MAX_BYTES", 0):
        try:
            return described(load_family(path))
        except InputError as exc:
            return str(exc)


_tail_texts = st.sampled_from(['{"kind": "zero"}', '{"kind": "none"}', "null",
                               '{"kind": "constant", "value": 0.0}',
                               '{"kind": "power", "exponent": 2, "scale": 1.5}'])
_odd_rows = st.one_of(st.lists(_number_texts, max_size=4),  # ragged or empty
                      st.sampled_from([["true"], ["null"], ["1", "false"], ["null", "2.5"]]))
_fields = st.lists(st.tuples(_strings, _document_texts), max_size=2)


@st.composite
def _family_texts(draw):
    """A family document on an index set of 1 to 3 points: its member rows
    of number texts, in half the documents also rows of another length,
    empty rows and rows holding true or null; tails or none; and extra
    fields, wide integers among them, before and after the members."""
    size = draw(st.integers(1, 3))
    row = st.lists(_number_texts, min_size=size, max_size=size)
    if draw(st.booleans()):
        row = st.one_of(row, _odd_rows)
    sep = draw(_separators)
    rows = draw(st.lists(row.map(lambda r: "[" + sep.join(r) + "]"), max_size=4))
    fields = ['"schema_version": 1', f'"carrier": {{"kind": "index_set", "size": {size}}}',
              *(f"{json.dumps(k)}: {v}" for k, v in draw(_fields)),
              '"members": [' + sep.join(rows) + "]",
              *(f"{json.dumps(k)}: {v}" for k, v in draw(_fields))]
    tails = draw(st.none() | st.lists(_tail_texts, min_size=len(rows), max_size=len(rows)))
    if tails is not None:
        fields.append('"tails": [' + sep.join(tails) + "]")
    return "{" + sep.join(fields) + "}"


@given(_family_texts())
def test_the_row_route_returns_what_json_loads_returns(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "family.json"
    path.write_bytes(text.encode("utf-8"))
    assert row_route_family(path) == json_family(path)


@given(_family_texts(), st.integers(1, 64))
def test_the_row_route_read_in_blocks_returns_what_json_loads_returns(tmp_path_factory, text,
                                                                     block):
    """Read a block of 1 to 64 bytes at a time, a row, a key or a number
    literal may lie across blocks."""
    path = tmp_path_factory.getbasetemp() / "family.json"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(serialize, "_READ_BLOCK", block):
        assert row_route_family(path) == json_family(path)


#: rows around a wide integer, fields on both sides, and separators of
#: several lengths: a family the row route reads
_SEAMED = ('{"schema_version": 1,  "a": "members", "carrier": {"kind": "index_set", "size": 3},'
           '\n  "members"  :\t [ [1e-07, -0.0, 12345678901234567890] ,\n\n'
           '[5e-324,1E+16,  -2.5e-3],[0, 1, 2]\t],"tails": [null, {"kind": "zero"}, null],'
           ' "metadata": {"notes": ["[x]"]}}')


@pytest.mark.parametrize("block", range(1, 65))
def test_the_row_route_takes_a_family_at_every_block_size(block, tmp_path, monkeypatch):
    path = tmp_path / "family.json"
    path.write_bytes(_SEAMED.encode("utf-8"))
    oracle = json_family(path)
    assert oracle.startswith("{")
    monkeypatch.setattr(serialize, "_READ_BLOCK", block)
    monkeypatch.setattr(serialize.json, "load", None)  # any json call would raise
    assert row_route_family(path) == oracle


def family_text(members: str, size: int = 1, fields: str = "") -> str:
    return ('{"schema_version": 1, "carrier": {"kind": "index_set", "size": %d}, %s"members": %s}'
            % (size, fields, members))


@pytest.mark.parametrize("text, route", [
    (family_text('[[0.5, -2e-3], [1E+2, -0]], "tails": [{"kind": "zero"}, {"kind": "zero"}]',
                 2, '"a": 1, '), True),
    ('{\n  "schema_version": 1,\n  "carrier": {\n    "kind": "index_set",\n    "size": 1\n  },\n'
     '  "members": [\n    [\n      1.5\n    ],\n    [\n      2\n    ]\n  ]\n}\n', True),
    (family_text("[]"), False),
    (family_text("[[1], [2, 3], []]"), False),
    (family_text('5, "members": [[2.5]]'), True),
    (family_text('[[2.5]]', 1, '"x\\"members": [[1]], '), False),
    (family_text('[[2.5]]', 1, '"metadata": {"members": [[1]]}, '), False),
    (family_text("null", 1, '"metadata": {"members": [[1]]}, '), False),
    (family_text('[[1]], "members": [[2.5]]'), False),
    ('[{"members": [[1]]}]', False),
    (family_text("[[1, [2]], [3]]"), False),
    (family_text('[[1], {"a": [2]}]'), False),
    (family_text("[[1] [2]]"), False),
    (family_text("[[1],]"), False),
    (family_text("[[1], true]"), False),
    (family_text("[[true]]"), False),
    (family_text("[[1, null]]", 2), False),
    (family_text("[[NaN]]"), False),
    (family_text("[[1e400]]"), False),
    (family_text("[[12345678901234567890], [-123456789012345678901234567890]]"), True),
    (family_text("[[1]]", 1, '"seed": 12345678901234567890, '), False),
    ("\ufeff" + family_text("[[1]]"), False),
    (family_text("[[1]]") + " x", False),
    (family_text("[[1]]")[:-1], False),
    ('{"schema_version": 1, "carrier": {"kind": "index_set", "size": 1}, '
     '"x": [[0.1, 2.5], [3]], "members_of": [[1]]}', False),
    (family_text("[[%s], [2]]" % ("1" + "0" * 309)), False),
], ids=["fields-around", "indented", "empty", "ragged", "duplicate-after-scalar",
        "key-in-a-string", "key-in-metadata", "key-in-metadata-null", "duplicate",
        "not-an-object", "nested-row", "object-row", "missing-comma", "trailing-comma",
        "true-row", "true", "null", "nan", "1e400", "wide-int", "wide-int-outside",
        "bom", "trailing-bytes", "unclosed", "no-members-key", "int-beyond-floats"])
def test_the_row_route_reads_or_declines_as_json_does(text, route, tmp_path, monkeypatch):
    path = tmp_path / "family.json"
    path.write_bytes(text.encode("utf-8"))
    oracle = json_family(path)
    calls = {"orjson": 0, "json": 0}

    def counted(name, read):
        def call(*args, **kwargs):
            calls[name] += 1
            return read(*args, **kwargs)
        return call

    monkeypatch.setattr(serialize.orjson, "loads", counted("orjson", orjson.loads))
    monkeypatch.setattr(serialize.json, "load", counted("json", json.load))
    assert row_route_family(path) == oracle
    assert calls["json"] == (not route)
    if route:  # a family, from each row and the skeleton twice
        assert oracle.startswith("{")
        assert calls["orjson"] == len(json.loads(text)["members"]) + 2


# ---------------------------------------------------------------------------
# the benchmark's documents


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    """The folder holding every input the three workloads write at seed 21
    and every report their sessions write, and the argv of each op."""
    root = tmp_path_factory.mktemp("bench")
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    argvs = []
    for name in workloads.WORKLOADS:
        for op in workloads.prepare(name, 21, str(root / name / "inputs"),
                                    str(root / name / "out")):
            assert main(list(op.argv)) == op.expect_rc, op.argv
            argvs.append(list(op.argv))
    return root, argvs


@pytest.fixture(scope="module")
def benchmark_json_files(benchmark_run):
    return sorted(benchmark_run[0].rglob("*.json"))


def test_every_json_file_of_the_benchmark_workloads_decodes_the_same_both_ways(
        benchmark_json_files, monkeypatch):
    """orjson, json and read_json give the same document, and read_json still
    does with the gate at 0, where it reads every file with json.  With the
    gate at 0 every family file with member rows takes load_family's row
    route, and gives the family family_from_json makes of json's document,
    its value matrix bit for bit."""
    assert len(benchmark_json_files) > 100
    oracles, families = [], []
    for path in benchmark_json_files:
        raw = path.read_bytes()
        doc = json.loads(raw.decode("utf-8"))
        oracles.append(typed(doc))
        if "members" in doc:
            families.append((path, family_from_json(doc, where=str(path))))
        assert typed(orjson.loads(raw)) == oracles[-1], path
        assert typed(read_json(path)) == oracles[-1], path
    assert len(families) > 30
    json_load, read_by_json = json.load, set()
    monkeypatch.setattr(serialize.json, "load",
                        lambda fh: read_by_json.add(fh.name) or json_load(fh))
    monkeypatch.setattr(serialize, "ORJSON_MAX_BYTES", 0)
    for path, oracle in zip(benchmark_json_files, oracles):
        assert typed(read_json(path)) == oracle, path
    assert read_by_json == set(map(str, benchmark_json_files))
    read_by_json.clear()
    for path, by_json in families:
        by_rows = load_family(path)
        assert np.array_equal(by_rows.stacked(by_rows.horizon).view(np.uint64),
                              by_json.stacked(by_json.horizon).view(np.uint64)), path
        assert described(by_rows) == described(by_json), path
    assert not read_by_json


def test_every_json_file_of_the_benchmark_workloads_re_encodes_to_its_own_bytes(
        benchmark_json_files):
    """More than 20,000 floats in these files have a one-digit negative
    exponent, which orjson spells otherwise (1e-7 for 1e-07, and 0.00001 for
    1e-05); none is as large as 1e16."""
    short_exponents = 0
    for path in benchmark_json_files:
        raw = path.read_bytes()
        assert canonical_json(json.loads(raw)).encode("utf-8") == raw, path
        short_exponents += raw.count(b"e-0")
    assert short_exponents > 20_000


def test_the_sampled_family_of_the_benchmark_takes_the_row_route(benchmark_json_files,
                                                                 monkeypatch):
    path = next(p for p in benchmark_json_files if p.name == "sampled.json")
    assert path.stat().st_size > serialize.ORJSON_MAX_BYTES
    by_json = family_from_json(json.loads(path.read_text()), where=str(path))
    monkeypatch.setattr(serialize.json, "load", None)  # any json call would raise
    by_rows = load_family(path)
    assert by_rows.horizon == by_json.horizon == 300
    assert np.array_equal(by_rows.stacked(300).view(np.uint64),
                          by_json.stacked(300).view(np.uint64))


def test_every_csv_space_of_the_benchmark_workloads_takes_the_number_table(benchmark_run,
                                                                           monkeypatch):
    """Each --space CSV file of the ops (the clouds, the matrix and the line)
    loads through the number table, with one orjson call and no csv call,
    and gives the labels and the bitwise-equal coords or matrix that the csv
    route gives."""
    spaces = {(a[a.index("--space") + 1], a[a.index("--format") + 1])
              for a in benchmark_run[1] if "--space" in a}
    assert {fmt for _, fmt in spaces} == {"coords-csv", "distance-csv"} and len(spaces) == 5
    calls = {"orjson": 0, "csv": 0}

    def counted(name, read):
        def call(*args, **kwargs):
            calls[name] += 1
            return read(*args, **kwargs)
        return call

    for path, fmt in sorted(spaces):
        with monkeypatch.context() as patch:
            patch.setattr(serialize.orjson, "loads", counted("orjson", orjson.loads))
            patch.setattr(serialize.csv, "reader", counted("csv", serialize.csv.reader))
            by_table = serialize.load_space(path, fmt)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "_number_table", lambda path, coords: None)
            by_csv = serialize.load_space(path, fmt)
        assert by_table.labels == by_csv.labels, path
        values = [s.matrix if s.coords is None else s.coords for s in (by_table, by_csv)]
        assert values[0].tobytes() == values[1].tobytes(), path
    assert calls == {"orjson": len(spaces), "csv": 0}
