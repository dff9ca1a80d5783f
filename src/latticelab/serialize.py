"""Versioned JSON/CSV schemas for spaces, families, witnesses and verdicts.

JSON carries structured records (families, witnesses, certificates,
verdicts); CSV carries curves and trend tables.  Every document gets a
``schema_version`` so stored certificates stay replayable, and every writer
is deterministic: sorted keys, fixed indentation, shortest round-trip float
rendering, LF newlines, UTF-8 bytes.  Ingestion errors always name the
offending line, field or member.

``write_json`` gets the bytes of json.dumps(sort_keys=True, indent=2,
ensure_ascii=False) from orjson and respells the floats orjson spells unlike
repr (0.00001, 1e-7 and 1e16 for 1e-05, 1e-07 and 1e+16), a long array a
block of rows at a time.  A pre-walk names the first non-finite number, and
json writes what orjson refuses or would spell otherwise: float32 values,
wide ints, lone surrogates.  A failed write leaves the old file whole.

JSON files are read by ``read_json``, which returns json's document: orjson,
whose correctly rounded number parser gives json's floats bit for bit in a
third of the time, decodes a file of at most ``ORJSON_MAX_BYTES`` unless it
holds an integer literal of 19 or more digits (orjson reads one outside
[-2**63, 2**64) as a float) or orjson refuses the text (NaN, Infinity, 1e400,
lone surrogates, damage); json reads every other file.  ``load_family`` reads
a larger family file by the row route, ``_READ_BLOCK`` bytes at a time:
orjson decodes each row of its top-level ``"members"`` list into the one
float64 matrix the family keeps, and the rest with that list spliced out.
The route applies where the rows are a non-empty list of number rows of one
length, orjson accepts every piece, and the list is the value the top-level
key reads; any other file goes to ``read_json``.

A CSV space is read by the number table: lines split as csv.reader splits
them where no ``"`` quotes a field, and all number cells decoded by one
orjson call, bit for bit as float() reads them.  The csv route (csv.reader
and float(), naming the line and field of a refusal) reads a file with a
``"``, not UTF-8, with a line over csv.field_size_limit(), a shape or label
unlike the header's, a blank row, or a cell of other bytes than
``0-9 . e E + -`` and whitespace, the integer -0 or a spelling orjson
refuses (``1.``, ``+1``, ``1e400``); so ``1_0`` still reads as 10.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import struct

import numpy as np
import orjson

from .config import CheckConfig
from .convergence import (
    BuoCertificate,
    CertificatePolicy,
    DominationFailure,
    FamilyMetadata,
    MonotoneCertificate,
    OrderCertificate,
    PairedVerdict,
    SampledPolicy,
    SequenceFamily,
    StuckCoordinate,
    SubsequenceWitness,
    UnboundedGrowth,
    UniformCauchyCertificate,
    truncation_family,
)
from .core import Carrier, LatticeElement, SpaceTag, Tail
from .counterexamples import EscapeReport
from .errors import InputError, InternalInvariantError
from .metric import FiniteMetricSpace
from .witnesses import BlockWitness, JumpWitness, RefutationCertificate

__all__ = [
    "SCHEMA_VERSION",
    "record",
    "canonical_json",
    "write_json",
    "write_csv",
    "sha256_of",
    "space_to_json",
    "space_from_json",
    "family_to_json",
    "family_from_json",
    "read_distance_csv",
    "read_coords_csv",
    "load_space",
    "load_family",
    "verdict_to_json",
    "recorded_check",
    "first_difference",
    "witness_to_json",
    "witness_from_json",
    "escape_report_to_json",
    "refutation_to_json",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic writers


#: the types of the JSON scalars read_json returns
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: under these options orjson's layout, key order and string escapes are
#: those of json.dumps(sort_keys=True, indent=2, ensure_ascii=False)
_ORJSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
#: the arrays orjson writes as their tolist() values, in native byte order
_ORJSON_DTYPES = (np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.bool_))
# The three forms in which orjson spells a float unlike repr, matched only
# where the number ends a line (no JSON string does).  Each pattern starts
# with a literal, so re finds its candidates by a prefix search.
_FIXED_SMALL = re.compile(rb"\.0000(?<=0\.0000)(?<![\d.]0\.0000)([1-9]\d*)(?=,?\n)")  # 0.000012
_SHORT_EXPONENT = re.compile(rb"e-(?=\d,?\n)")  # 1e-7
_BARE_EXPONENT = re.compile(rb"e(?<=\de)(?=\d+,?\n)")  # 1e16
#: the bytes of orjson's text searched at a time, up to the next newline
_RESPELL_CHUNK = 1 << 16
#: the bytes read from a file at a time
_READ_BLOCK = 1 << 20


def _non_finite(x) -> InputError:
    return InputError(f"cannot serialize non-finite number {float(x)!r}")


def _block_rows(x: np.ndarray) -> int:
    """The rows of ``x`` that make about _RESPELL_CHUNK of text, 24 bytes a value."""
    return max(1, _RESPELL_CHUNK // (24 * max(1, math.prod(x.shape[1:]))))


def _orjson_fits(x) -> bool:
    """Whether orjson, where it accepts ``x``, writes it as json does, numpy
    values as their Python values.  ``x`` is screened in the order json
    writes it (sorted keys, arrays row-major): the first non-finite number
    raises an InputError, and a value json cannot write a TypeError."""
    if isinstance(x, dict):
        keys = sorted(x)
        if not all(isinstance(k, str) for k in keys):
            raise TypeError("keys must be str")
        x = [x[k] for k in keys]
    if isinstance(x, (list, tuple)):
        kinds = set(map(type, x))
        floats = x if kinds == {float} else [v for v in x if type(v) is float]
        # an inf or a nan makes the sum one, and so may an overflow
        if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
            return all([*map(_orjson_fits, x)])  # raises at the first bad value
        return kinds <= _SCALARS or all([_orjson_fits(v) for v in x if type(v) not in _SCALARS])
    if isinstance(x, np.ndarray):
        if x.dtype in _ORJSON_DTYPES and x.ndim and x.flags.c_contiguous:
            finite = np.isfinite(x)
            if not finite.all():
                raise _non_finite(x.flat[np.argmin(finite)])
            return True
        _orjson_fits(x.tolist())
        return False
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise _non_finite(x)
        return not isinstance(x, np.floating) or type(x) is np.float64
    if x is None or isinstance(x, (str, int, np.integer)):
        return True
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _respelled(raw: bytes, start: int = 0, end: int | None = None):
    """Yield orjson's text ``raw[start:end]`` in pieces, each float that
    orjson spells unlike repr respelled: 0.000012 as 1.2e-05, 1e-7 as 1e-07
    and 1e16 as 1e+16.  The unchanged spans are views of ``raw``, searched a
    chunk of whole lines at a time, so one chunk's fixes are held at a time."""
    view, at = memoryview(raw), start
    while start < len(raw):
        stop = raw.find(b"\n", start + _RESPELL_CHUNK) + 1 or len(raw)
        fixes = [(m.start() - 1, m.end(), (m[1][:1] + b"." + m[1][1:]).rstrip(b".") + b"e-05")
                 for m in _FIXED_SMALL.finditer(raw, start, stop)]
        fixes += [(m.end(), m.end(), b"0") for m in _SHORT_EXPONENT.finditer(raw, start, stop)]
        fixes += [(m.end(), m.end(), b"+") for m in _BARE_EXPONENT.finditer(raw, start, stop)]
        for begin, after, text in sorted(fixes):
            yield view[at:begin]
            yield text
            at = after
        start = stop
    yield view[at:end]


def _with_blocks(text: bytes, mark: bytes, arrays: list):
    """Yield orjson's ``text`` respelled, each ``mark`` replaced by the next of
    ``arrays`` a block of rows at a time.  Under d axes, d the mark's depth, a
    block's "[" comes after d(d + 3) bytes and its "]" before d(d + 1)."""
    at = 0
    for x in arrays:
        pos = text.index(mark, at)
        yield from _respelled(text[at:pos])
        line = text[text.rfind(b"\n", 0, pos) + 1:pos]
        depth = (len(line) - len(line.lstrip(b" "))) // 2
        head, tail, rows = depth * (depth + 3), depth * (depth + 1), _block_rows(x)
        for i in range(0, len(x), rows):  # the rows under depth axes of length one
            raw = orjson.dumps(x[(None,) * depth + (slice(i, i + rows),)],
                               option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
            # past the first block its "[" goes, and a comma takes the "\n]" of all but the last
            more = i + rows < len(x)
            yield from _respelled(raw, head + bool(i), len(raw) - tail - more * (2 + 2 * depth))
            yield b"," * more
        at = pos + len(mark)
    yield from _respelled(text[at:])


def _canonical_bytes(obj):
    """The canonical bytes of ``obj``, in pieces to be written in turn."""
    marker, mark, arrays = "\x00rows", b'"\\u0000rows"', []  # the marker and its text

    def default(v):  # numpy values as OPT_SERIALIZE_NUMPY writes them, long arrays as the marker
        if type(v) is np.ndarray and len(v) > _block_rows(v):
            arrays.append(v)
            return marker
        return v.tolist()

    if _orjson_fits(obj):
        # orjson refuses ints beyond 64 bits, lone surrogates, str subclasses
        # as keys and nesting past its depth limit
        with contextlib.suppress(orjson.JSONEncodeError):
            text = orjson.dumps(obj, default=default, option=_ORJSON_OPTIONS)
            if text.count(mark) == len(arrays):  # else a string of obj holds the marker
                return _with_blocks(text, mark, arrays)
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                      default=lambda v: float(v) if isinstance(v, np.floating) else v.tolist())
    return [(text + "\n").encode("utf-8")]


def canonical_json(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False), numpy values as their Python values, plus a newline,
    as orjson writes it where it can.  A non-finite number, numpy scalars
    included, is an InputError."""
    text = bytearray()
    for piece in _canonical_bytes(obj):  # each block's text goes once it is in
        text += piece
    return text.decode("utf-8")


def _write_whole(path, pieces) -> None:
    """Write ``pieces`` to a file beside ``path``, then move it into place."""
    part = f"{os.fspath(path)}.{os.getpid()}-{os.urandom(4).hex()}.part"
    fh = open(part, "xb")  # the mode open(path, "wb") gives a new file
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


def write_json(path, obj) -> None:
    _write_whole(path, _canonical_bytes(obj))  # the pre-walk runs before any file opens


def _cell(v) -> str:
    if type(v) is str:
        return v
    if isinstance(v, float):  # np.float64 included
        return float.__repr__(v)
    if isinstance(v, np.floating):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    lines = [",".join(map(str, header)), *(",".join(map(_cell, row)) for row in rows), ""]
    _write_whole(path, ["\n".join(lines).encode("utf-8")])


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_READ_BLOCK), b""):
            h.update(chunk)
    return h.hexdigest()


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _require(obj: dict, key: str, where: str):
    if key not in _object(obj, where):
        raise InputError(f"{where}: missing required field {key!r}")
    return obj[key]


def _parsed(cast, value, where: str):
    """cast(value); a value of the wrong type or form is an InputError naming
    the field ``where``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: malformed value ({exc})") from None


@contextlib.contextmanager
def _naming(where: str):
    """Put ``where: `` before the message of an InputError the block raises."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _real(value) -> float:
    """A JSON number as a float; any other value, true and false included,
    raises rather than being read as one."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def _int(value) -> int:
    """A JSON integer, or a float with an integral value, as an int; any
    other value raises rather than being read as 1, 0 or a truncation."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _list(value) -> list:
    """A JSON list; any other value raises, so a string is never split up."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _number(obj: dict, key: str, where: str) -> float:
    """obj[key] as a finite float, else an InputError naming the field."""
    out = _parsed(_real, _require(obj, key, where), f"{where}.{key}")
    if not math.isfinite(out):
        raise InputError(f"{where}.{key}: {out!r} is not a finite number")
    return out


def _bool_row(value, arr: np.ndarray):
    """The first row of the JSON list ``value`` (a list of numbers is its own
    one row) that holds true or false, or None.  np.asarray read ``value`` as
    ``arr``, with true and false as 1.0 and 0.0, so only the rows with such
    an entry are walked."""
    if arr.ndim == 1:
        value, arr = [value], arr[None]
    elif arr.ndim != 2:  # not a shape any caller accepts
        return None
    for i in np.flatnonzero(((arr == 0.0) | (arr == 1.0)).any(axis=1)):
        if bool in set(map(type, value[i])):
            return value[i]
    return None


def _array(value) -> np.ndarray:
    """A JSON list of numbers, or of rows of numbers, as a float64 array;
    true, false, strings, null and integers beyond the float range raise
    rather than being read as numbers.  np.asarray, given no dtype, reads a
    list holding any of those (but a bool among numbers) as a non-numeric
    array, whose leaves alone are then read one by one."""
    out = np.asarray(value)
    if out.dtype.kind not in "iuf":
        leaves = np.asarray(value, dtype=object).ravel()
        out = np.array(list(map(_real, leaves)), dtype=np.float64).reshape(out.shape)
    row = _bool_row(value, out)
    if row is not None:
        flag = next(v for v in row if type(v) is bool)
        raise TypeError(f"expected a number, got {json.dumps(flag)}")
    return out.astype(np.float64, copy=False)


def _floats(value) -> np.ndarray:
    """A JSON list of numbers as a 1-d array; other shapes, true, false,
    strings and null raise."""
    out = _array(value)
    if out.ndim != 1:
        raise TypeError(f"expected a list of numbers, got an array of shape {out.shape}")
    return out


def _check_version(obj: dict, where: str) -> None:
    v = _require(obj, "schema_version", where)
    if type(v) is not int or v != SCHEMA_VERSION:
        raise InputError(f"{where}: schema_version {json.dumps(v)} unsupported "
                         f"(tool writes {SCHEMA_VERSION})")


# ---------------------------------------------------------------------------
# spaces


def space_to_json(space: FiniteMetricSpace) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "labels": list(space.labels)}
    if space.coords is not None:
        doc["coords"] = space.coords
    else:
        doc["matrix"] = space.matrix
    return doc


def space_from_json(obj: dict, where: str = "space json") -> FiniteMetricSpace:
    _check_version(obj, where)
    labels = _parsed(_list, _require(obj, "labels", where), f"{where}.labels")
    if "coords" in obj:
        coords = _parsed(_array, obj["coords"], f"{where}.coords")
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        with _naming(where):
            return FiniteMetricSpace.from_coords(coords, labels)
    if "matrix" in obj:
        matrix = _parsed(_array, obj["matrix"], f"{where}.matrix")
        with _naming(where):
            return FiniteMetricSpace.from_matrix(matrix, labels)
    raise InputError(f"{where}: needs either coords or matrix")


def _csv_table(path, coords: bool) -> tuple:
    """The csv route: (header, labels, matrix) of a coords (``coords``) or
    distance CSV file, or an InputError naming the file, line and field."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = [row for row in reader if row and any(f.strip() for f in row)]
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(rows) < 2:
        kind = "coords" if coords else "distance"
        raise InputError(f"{path}: a {kind} csv needs a header and at least one row")
    header = [f.strip() for f in rows[0]]
    labeled = coords or len(rows[1]) == len(header) + 1
    width = len(header) - coords
    if coords and width < 1:
        raise InputError(f"{path}: header must name a label column and >= 1 coordinate")
    if not coords and len(rows) - 1 != width:
        raise InputError(f"{path}: {width} labels in the header but {len(rows) - 1} body rows")
    labels, values = [], []
    with _naming(path):  # the messages below name the line, this the file
        for r, row in enumerate(rows[1:], start=2):
            if labeled:
                labels.append(row[0].strip())
                if not coords and labels[-1] != header[r - 2]:
                    raise InputError(f"line {r}, field 1: row label {labels[-1]!r} does not "
                                     f"match header label {header[r - 2]!r}")
            if len(row) - labeled != width:
                raise InputError(f"line {r}: expected {width + 1} fields, got {len(row)}" if coords
                                 else f"line {r}: expected {width} numeric fields, "
                                      f"got {len(row) - labeled}")
            for c, cell in enumerate(row[labeled:], start=1 + labeled):
                try:  # stripped, as float() keeps the \x1c to \x1f that strip() drops
                    values.append(float(cell.strip()))
                except ValueError:
                    raise InputError(f"line {r}, field {c}: could not parse "
                                     f"{cell.strip()!r} as a number") from None
    return header, labels, np.array(values).reshape(len(rows) - 1, width)


def _number_table(path, coords: bool):
    """What _csv_table gives, its matrix decoded by one orjson pass over the
    file's bytes, or None for a file the module docstring sends to the csv route."""
    with open(path, "rb") as fh:
        lines = fh.read()
    lines = [] if b'"' in lines else lines.splitlines()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    lines = [line for line in lines if line.strip(b", \t\x0b\x0c")]  # csv drops them too
    if len(lines) < 2:
        return None
    header = lines[0].split(b",")
    labeled = coords or lines[1].count(b",") == len(header)
    width = len(header) - coords
    if ({line.count(b",") for line in lines[1:]} != {width - 1 + labeled} or not width
            or (not coords and len(lines) - 1 != width)):
        return None
    labels, rows = zip(*(line.split(b",", 1) for line in lines[1:])) if labeled else ((), lines[1:])
    try:
        header = [cell.decode("utf-8").strip() for cell in header]
        labels = [cell.decode("utf-8").strip() for cell in labels]
    except UnicodeDecodeError:
        return None
    body = b"],[".join(rows)
    # deleting the number bytes leaves only the separators; orjson reads a blank
    # row as [] and the integer -0 as 0, where float() refuses and reads -0.0; and
    # a line of commas and other whitespace, which csv drops, has a blank label
    if (body.translate(None, _ROW_BYTES) != b"][" * (len(rows) - 1)
            or not all(map(bytes.strip, rows)) or re.search(rb"-0(?![.\deE])", body)
            or not all([header[0], *labels]) or (labels and not coords and labels != header)):
        return None
    del lines, rows
    with contextlib.suppress(orjson.JSONDecodeError):
        return header, labels, np.array(orjson.loads(b"[[" + body + b"]]"), dtype=np.float64)


def read_distance_csv(path) -> FiniteMetricSpace:
    """Header row of labels, then a symmetric numeric body (an optional
    leading label column is accepted and checked against the header)."""
    header, _, matrix = _number_table(path, False) or _csv_table(path, False)
    with _naming(path):
        return FiniteMetricSpace.from_matrix(matrix, header)


def read_coords_csv(path) -> FiniteMetricSpace:
    """Header ``label,x1,...``, then one labeled coordinate row per point."""
    _, labels, coords = _number_table(path, True) or _csv_table(path, True)
    with _naming(path):
        return FiniteMetricSpace.from_coords(coords, labels)


def load_space(path, fmt: str) -> FiniteMetricSpace:
    if fmt == "distance-csv":
        return read_distance_csv(path)
    if fmt == "coords-csv":
        return read_coords_csv(path)
    if fmt == "space-json":
        return space_from_json(read_json(path), where=str(path))
    raise InputError(f"unknown space format {fmt!r}; "
                     "expected distance-csv, coords-csv or space-json")


# ---------------------------------------------------------------------------
# tails, elements, tags


#: each tail kind's stored fields, in the order its Tail constructor takes them
_TAIL_FIELDS = {"zero": (), "none": (), "constant": ("value",), "power": ("exponent", "scale")}


def tail_to_json(tail: Tail | None):
    if tail is None:
        return None
    return {"kind": tail.kind, **{f: getattr(tail, f) for f in _TAIL_FIELDS[tail.kind]}}


def tail_from_json(obj, where: str) -> Tail | None:
    if obj is None:
        return None
    kind = _require(obj, "kind", where)
    if type(kind) is not str or kind not in _TAIL_FIELDS:
        raise InputError(f"{where}: unknown tail kind {kind!r}")
    args = [_number(obj, f, where) for f in _TAIL_FIELDS[kind]]
    with _naming(where):
        return getattr(Tail, kind)(*args)


def element_to_json(x: LatticeElement | None):
    if x is None:
        return None
    return {"values": x.values.tolist(), "tail": tail_to_json(x.tail)}


def element_from_json(obj, carrier: Carrier, where: str) -> LatticeElement | None:
    if obj is None:
        return None
    values = _parsed(_floats, _require(obj, "values", where), f"{where}.values")
    if values.shape[0] != carrier.size:
        raise InputError(
            f"{where}: {values.shape[0]} values for a carrier of size {carrier.size}"
        )
    return LatticeElement(carrier, values, tail_from_json(obj.get("tail"), f"{where}.tail"))


def tag_from_json(obj, where: str) -> SpaceTag | None:
    if obj is None:
        return None
    kind = _require(obj, "kind", where)
    p = obj.get("p")
    p = None if p is None else _parsed(_real, p, f"{where}.p")
    with _naming(where):
        return SpaceTag(kind, p)


# ---------------------------------------------------------------------------
# families


def family_to_json(family: SequenceFamily) -> dict:
    doc: dict = {"schema_version": SCHEMA_VERSION}
    car = family.carrier
    if car.is_index_set:
        doc["carrier"] = {"kind": "index_set", "size": car.size}
    else:
        doc["carrier"] = {"kind": "points"}
        doc["space"] = space_to_json(car.space)
    if family.model is not None:
        tag = family.metadata.space_tag
        doc["generator"] = {
            "kind": "truncation",
            "exponent": family.model.exponent,
            "coeff": family.model.coeff,
            "size": car.size,
            "horizon": family.horizon,
            "p": None if tag is None else tag.p,
        }
        return doc
    doc["members"] = family.stacked(family.horizon)
    if car.is_index_set:
        doc["tails"] = [tail_to_json(t) for t in family.tails(family.horizon)]
    doc["metadata"] = _plain(family.metadata)
    return doc


def _metadata_from_json(obj, carrier: Carrier, where: str) -> FamilyMetadata:
    if obj is None:
        return FamilyMetadata()
    ucn = _object(obj, where).get("uniformly_cauchy_norms")
    decreasing = obj.get("monotone_decreasing", False)
    if type(decreasing) is not bool:
        raise InputError(f"{where}.monotone_decreasing: expected true or false, "
                         f"got {json.dumps(decreasing)}")
    notes = _parsed(_list, obj.get("notes", []), f"{where}.notes")
    for i, note in enumerate(notes, start=1):
        if type(note) is not str:
            raise InputError(f"{where}.notes[{i}]: expected a string, got {json.dumps(note)}")
    fields = dict(
        monotone_decreasing=decreasing,
        common_bound=element_from_json(obj.get("common_bound"), carrier,
                                       f"{where}.common_bound"),
        uniformly_cauchy_norms=None if ucn is None else tuple(
            float(e) for e in _parsed(_floats, ucn, f"{where}.uniformly_cauchy_norms")),
        space_tag=tag_from_json(obj.get("space_tag"), f"{where}.space_tag"),
        limit=element_from_json(obj.get("limit"), carrier, f"{where}.limit"),
        growth=obj.get("growth"),
        notes=tuple(notes),
    )
    with _naming(where):
        return FamilyMetadata(**fields)


def family_from_json(obj: dict, where: str = "family json") -> SequenceFamily:
    _check_version(obj, where)
    car_doc = _require(obj, "carrier", where)
    kind = _require(car_doc, "kind", f"{where}.carrier")
    if kind == "index_set":
        size = _parsed(_int, _require(car_doc, "size", f"{where}.carrier"),
                       f"{where}.carrier.size")
        with _naming(f"{where}.carrier.size"):
            carrier = Carrier.index_set(size)
    elif kind == "points":
        space = space_from_json(_require(obj, "space", where), f"{where}.space")
        carrier = Carrier.points(space)
    else:
        raise InputError(f"{where}.carrier: unknown kind {kind!r}")

    gen = obj.get("generator")
    if gen is not None:
        w = f"{where}.generator"
        if _require(gen, "kind", w) != "truncation":
            raise InputError(f"{w}: unknown kind {gen.get('kind')!r}")
        exponent = _number(gen, "exponent", w)
        coeff = _parsed(_real, gen.get("coeff", 1.0), f"{w}.coeff")
        size = _parsed(_int, _require(gen, "size", w), f"{w}.size")
        horizon = _parsed(_int, _require(gen, "horizon", w), f"{w}.horizon")
        p = None if gen.get("p") is None else _parsed(_real, gen["p"], f"{w}.p")
        with _naming(w):
            family = truncation_family(exponent, coeff, size=size, horizon=horizon, p=p)
        if not family.carrier.compatible(carrier):
            raise InputError(f"{where}.carrier: expected an index set of generator.size {size}, "
                             f"got {carrier.kind} of size {carrier.size}")
        return family

    rows = _require(obj, "members", where)
    if type(rows) is not np.ndarray:  # load_family's row route gives a read-only matrix
        rows = _parsed(_list, rows, f"{where}.members")
    if not len(rows):
        raise InputError(f"{where}: members is empty")
    tails = obj.get("tails")
    if tails is not None:
        tails = _parsed(_list, tails, f"{where}.tails")
        if not carrier.is_index_set:
            raise InputError(f"{where}.tails: tail descriptors apply to index-set carriers only")
        if len(tails) != len(rows):
            raise InputError(f"{where}: {len(tails)} tails for {len(rows)} members")
    try:  # no dtype: strings, null and integers beyond the float range stay non-numeric
        values = np.asarray(rows)
    except ValueError:
        values = None
    if (values is None or values.dtype.kind not in "iuf"
            or values.shape != (len(rows), carrier.size)
            or not np.isfinite(values).all()
            or (type(rows) is list and _bool_row(rows, values) is not None)):
        # walk the rows in order to name the first bad member: its length, its tail,
        # then its values
        for i, row in enumerate(rows, start=1):
            row = _parsed(_floats, row, f"{where}.members[{i}]")
            if row.shape[0] != carrier.size:
                raise InputError(f"{where}: member {i} has {row.shape[0]} values "
                                 f"for a carrier of size {carrier.size}")
            LatticeElement(carrier, row, tail_from_json(tails[i - 1], f"{where}.tails[{i}]")
                           if tails else None)
    if tails:  # a tail document the same as the one before it (a true never passes
        # for the 1.0 there) reuses that one's Tail
        docs, tails = tails, []
        for i, doc in enumerate(docs, start=1):
            tails.append(tails[-1] if i > 1 and _same(doc, docs[i - 2])
                         else tail_from_json(doc, f"{where}.tails[{i}]"))
    meta = _metadata_from_json(obj.get("metadata"), carrier, f"{where}.metadata")
    with _naming(f"{where}.metadata"):
        return SequenceFamily(values=values, tails=tails or None, carrier=carrier, metadata=meta,
                              _adopt=type(rows) is np.ndarray and not rows.flags.writeable)


#: the largest file read_json decodes whole with orjson, which holds the input
#: and its tree at once (1.5 times json's peak on a 24 MB family).  Above it
#: load_family takes the row route, which holds the matrix and a read block.
ORJSON_MAX_BYTES = 4 << 20

#: digits to "0" and the other number bytes kept, but "-" and every other
#: byte to a space, and whitespace deleted: an integer literal of 19 or more
#: digits, which orjson reads as a float once it leaves [-2**63, 2**64), is
#: then a space and nineteen "0"s, or nineteen "0"s at the start
_DIGIT_RUNS = bytes(48 if 48 <= c <= 57 else c if c in b".eE+" else 32 for c in range(256))
_WIDE_INT = b"0" * 19
_WHITESPACE = b" \t\n\r"

#: a "members" key opening a list, and the bytes a row of numbers may hold
_MEMBERS = re.compile(rb'"members"[ \t\n\r]*:[ \t\n\r]*\[')
_ROW_BYTES = b"0123456789.eE+-," + _WHITESPACE


def _has_wide_int(data: bytes) -> bool:
    """Whether the JSON text ``data`` may hold an integer literal of 19 or more
    digits.  No such literal is missed: in valid JSON the whitespace before a
    number follows a ``[``, ``,`` or ``:``.  A run of 19 digits in a string or
    after an exponent's minus sign counts too, which only costs the slower
    read."""
    runs = data.translate(_DIGIT_RUNS, _WHITESPACE)
    return b" " + _WIDE_INT in runs or runs.startswith(_WIDE_INT)


def _with_member_matrix(fh, size: int):
    """The family document in the binary file ``fh`` of ``size`` bytes by the
    row route, read a block at a time: its top-level "members" rows decoded
    one by one into a float64 matrix, the rest (the skeleton) with that list
    spliced out.  None where the route does not apply; a piece orjson refuses raises."""
    buf, key = bytearray(), None
    while key is None:  # a match split by a block starts at its last "members"
        resume = max(0, len(buf.rstrip(b":" + _WHITESPACE)) - len(b'"members"'))
        block = fh.read(_READ_BLOCK)
        if not block:
            return None
        buf += block
        key = _MEMBERS.search(buf, resume)
    head = bytes(buf[:key.end() - 1])
    matrix, count, pos, searched = None, 0, key.end(), key.end()  # no "]" before searched
    while True:
        end = buf.find(b"]", searched)
        if end < 0:  # the row goes on in the next block: keep its start alone
            block = fh.read(_READ_BLOCK)
            if not block:
                return None
            del buf[:pos]
            pos, searched = 0, len(buf)
            buf += block
            continue
        start = buf.find(b"[", pos, end)
        if start < 0 or buf[pos:start].strip(_WHITESPACE) != (b"," if count else b""):
            break
        row = bytes(memoryview(buf)[start:end + 1])  # bytes translate the fastest
        if row.translate(None, _ROW_BYTES) != b"[]":
            return None
        row = orjson.loads(row)
        if matrix is None:  # room for as many rows of the first one's length as fit the file
            matrix = np.empty((size // (end + 1 - start) + 1, len(row)))
        elif len(row) != matrix.shape[1]:
            return None
        if count == len(matrix):  # grown in place, never copied beside itself
            matrix.resize((count + count // 8 + 1, len(row)), refcheck=False)
        matrix[count] = row  # an int becomes float(int), as the json route's does
        count, pos, searched = count + 1, end + 1, end + 1
    if not count or buf[pos:end].strip(_WHITESPACE):
        return None
    tail = bytes(buf[end + 1:]) + fh.read()
    skeleton = b"0".join((head, tail))
    # the list is the value the top-level key reads (the last "members", not
    # one in a string or a nested object) when splicing in 0 and null both show
    found = None if _has_wide_int(skeleton) else orjson.loads(skeleton)
    if type(found) is not dict or found.get("members") != 0:
        return None
    del found, skeleton  # one skeleton tree at a time
    doc = orjson.loads(b"null".join((head, tail)))
    if doc["members"] is not None:
        return None
    matrix.resize((count, matrix.shape[1]), refcheck=False)
    matrix.setflags(write=False)  # the one matrix family_from_json gives the family uncopied
    doc["members"] = matrix
    return doc


def read_json(path):
    """Parse a JSON file into json's document, with orjson or json as the
    module docstring says; malformed JSON is an InputError naming the file
    and the position of the damage."""
    with open(path, "rb") as fh:
        data = fh.read()
        if len(data) <= ORJSON_MAX_BYTES and not _has_wide_int(data):
            with contextlib.suppress(orjson.JSONDecodeError):
                return orjson.loads(data)
        del data  # json reads the file again, so these bytes are not held beside its text
        fh.seek(0)
        # the text file open(path, encoding="utf-8") would give, newlines translated
        text = io.TextIOWrapper(fh, encoding="utf-8")
        try:
            return json.load(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_family(path) -> SequenceFamily:
    doc, size = None, os.path.getsize(path)
    if size > ORJSON_MAX_BYTES:  # the row route, as the module docstring says
        with open(path, "rb") as fh, contextlib.suppress(orjson.JSONDecodeError):
            doc = _with_member_matrix(fh, size)
    return family_from_json(read_json(path) if doc is None else doc, where=str(path))


# ---------------------------------------------------------------------------
# verdicts and certificates


#: the type a check report records for each certificate and verdict witness,
#: stored field by field
_RECORD_TYPES = {
    OrderCertificate: "order", MonotoneCertificate: "monotone",
    UniformCauchyCertificate: "uniform_cauchy", BuoCertificate: "buo",
    SubsequenceWitness: "subsequence", StuckCoordinate: "stuck_coordinate",
    UnboundedGrowth: "unbounded_growth", DominationFailure: "domination_failure",
}


def _plain(v):
    """``v`` with each dataclass as an object of its fields, under their own
    names, each tuple as a list, and each tail, element and array as its
    JSON value."""
    if isinstance(v, Tail):
        return tail_to_json(v)
    if isinstance(v, LatticeElement):
        return element_to_json(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if dataclasses.is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in dataclasses.fields(v)}
    if isinstance(v, tuple):  # a run of scalars, such as thresholds, is copied in C
        return list(v) if set(map(type, v)) <= _SCALARS else list(map(_plain, v))
    return v


def record(kind: str, fields) -> dict:
    """The versioned report of type ``kind`` that holds ``fields``, a
    dataclass written field by field or a dict of JSON values."""
    return {"schema_version": SCHEMA_VERSION, "type": kind, **_plain(fields)}


def _typed(obj, part: str):
    """The report record of a verdict's ``part`` (certificate or witness)."""
    if obj is None:
        return None
    kind = _RECORD_TYPES.get(type(obj))
    if kind is None:
        raise InternalInvariantError(f"no report record for {part} type {type(obj).__name__}")
    return {"type": kind, **_plain(obj)}


#: the policy text of a sampled Buo-Cauchy verdict, as _policy_to_json writes it
_SAMPLED = re.compile(r"sampled\(count=(\d+),max_len=(\d+)\)(?:\+(\d+) included)?")


def _policy_to_json(policy) -> str | None:
    if not isinstance(policy, SampledPolicy):
        return None if policy is None else policy.kind
    text = f"sampled(count={policy.count},max_len={policy.max_len})"
    return f"{text}+{len(policy.include)} included" if policy.include else text


def verdict_to_json(verdict) -> dict:
    """A verdict's report, in plain JSON values that compare with one read back."""
    if isinstance(verdict, PairedVerdict):
        return record("paired", {
            "order": verdict_to_json(verdict.order),
            "buo": verdict_to_json(verdict.buo),
            "equal": verdict.equal,
            "note": verdict.note,
        })
    policy = verdict.policy
    sampled = isinstance(policy, SampledPolicy)
    doc = record("verdict", {
        "mode": verdict.mode,
        "outcome": verdict.outcome,
        "tolerance": verdict.tolerance,
        "horizon": verdict.horizon,
        "certificate": _typed(verdict.certificate, "certificate"),
        "witness": _typed(verdict.witness, "witness"),
        "limit": element_to_json(verdict.limit),
        "bound": verdict.bound,
        "policy": _policy_to_json(policy),
        "seed": policy.seed if sampled else None,
        "notes": list(verdict.notes),
    })
    if sampled and policy.include:  # the caller-supplied subsequences
        doc["included"] = [list(seq) for seq in policy.include]
    return doc


#: the check --mode whose report records each verdict mode
_REPORT_MODES = {"order": "order", "buo": "buo", "buo_cauchy": "buo-cauchy"}


def recorded_check(doc, family: SequenceFamily, where: str = "report"):
    """(mode, candidate, policy, config) of the check that the report
    ``doc`` records, with mode as its ``check --mode``.  A paired report
    reads its order half; the uo probe seed comes from the provenance,
    because a buo verdict does not record it.  A malformed field is an
    InputError naming it."""
    _check_version(doc, where)  # a non-object fails here, naming the file
    head, at = doc, where
    if doc.get("type") == "paired":
        at = f"{where}.order"
        head, mode = _object(_require(doc, "order", where), at), "buo-equals-order"
    elif doc.get("type") == "verdict":
        recorded = _require(doc, "mode", where)
        mode = _REPORT_MODES.get(recorded) if isinstance(recorded, str) else None
        if mode is None:
            raise InputError(f"{where}.mode: unknown mode {doc['mode']!r}")
    else:
        raise InputError(f"{where}: not a check report")
    candidate = policy = sampled = None
    seed, included = 0, ()
    if mode == "buo-cauchy":
        text = _require(doc, "policy", where)
        sampled = _SAMPLED.fullmatch(text) if isinstance(text, str) else None
        if sampled is not None:
            seed = _parsed(_int, _require(doc, "seed", where), f"{where}.seed")
            if sampled[3] is not None:
                included = _parsed(lambda seqs: tuple(map(_ints, seqs)),
                                   _require(doc, "included", where), f"{where}.included")
                if len(included) != int(sampled[3]):
                    raise InputError(f"{where}.included: {len(included)} subsequences, "
                                     f"but the policy names {sampled[3]}")
        elif text != "certificate":
            raise InputError(f"{where}.policy: malformed value ({text!r})")
    else:
        limit = _object(_require(head, "limit", at), f"{at}.limit")
        candidate = element_from_json(limit, family.carrier, f"{at}.limit")
        if mode != "order":
            prov = _require(doc, "provenance", where)
            seed = _parsed(_int, _require(prov, "seed", f"{where}.provenance"),
                           f"{where}.provenance.seed")
    tolerance = _number(head, "tolerance", at)
    horizon = _parsed(_int, _require(head, "horizon", at), f"{at}.horizon")
    with _naming(where):
        config = CheckConfig(tolerance=tolerance, horizon=horizon, seed=seed)
        if mode == "buo-cauchy":
            policy = CertificatePolicy() if sampled is None else SampledPolicy(
                count=int(sampled[1]), max_len=int(sampled[2]), seed=seed, include=included)
    return mode, candidate, policy, config


_ABSENT = object()


def _brief(value) -> str:
    if value is _ABSENT:
        return "no such field"
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 80 else text[:77] + "..."


def _same(a, b) -> bool:
    """Whether a and b are the same JSON value, with the same type at every
    node, so 0.0 and -0.0 differ too.  A list of scalars of one type is
    compared in one C-level pass, and a list of floats holding a zero by the
    bits of its floats in a second one."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is list:
        if len(a) != len(b):
            return False
        kinds = set(map(type, a))
        if len(kinds) == 1 and kinds <= _SCALARS:
            return (a == b and kinds == set(map(type, b))
                    and (float not in kinds or 0.0 not in a
                         or struct.pack(f"{len(a)}d", *a) == struct.pack(f"{len(b)}d", *b)))
        return all(map(_same, a, b))
    if kind is dict:
        return a.keys() == b.keys() and all(map(_same, a.values(), map(b.__getitem__, a)))
    return a == b and (kind is not float or a != 0.0
                       or math.copysign(1.0, a) == math.copysign(1.0, b))


def first_difference(stored, rerun, path: str = "") -> str | None:
    """'<path>: stored <a>, re-run <b>' at the first field, in sorted key
    order, where two JSON documents differ, or None when they are equal.
    Values compare by JSON type and value, so 1, 1.0 and true all differ.
    Only a differing branch is walked for its path."""
    if _same(stored, rerun):
        return None
    if type(stored) is type(rerun) is dict:
        fields = ((f"{path}.{k}" if path else k, stored.get(k, _ABSENT), rerun.get(k, _ABSENT))
                  for k in sorted(stored.keys() | rerun.keys()))
    elif type(stored) is type(rerun) is list and len(stored) == len(rerun):
        fields = ((f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(stored, rerun)))
    else:
        return f"{path}: stored {_brief(stored)}, re-run {_brief(rerun)}"
    return next(filter(None, (first_difference(a, b, p) for p, a, b in fields)))


# ---------------------------------------------------------------------------
# extraction witnesses


def _ints(values) -> tuple:
    return tuple(map(_int, values))


def _reals(values) -> tuple:
    return tuple(map(_real, values))


def _pairs(values) -> tuple:
    return tuple((_int(a), _int(b)) for a, b in values)


#: a witness record stores every field of its dataclass, under the field's name
_WITNESS_TYPES = {"jump": JumpWitness, "blocks": BlockWitness}

#: how the reader parses each stored witness field
_WITNESS_CASTS = {
    "eps": _real, "factor": _real, "p": _real, "tail_budget": _real, "block_mass": _real,
    "horizon": _int, "index_shift": _int, "caveat": str,
    "indices": _ints, "coordinates": _ints, "blocks": _pairs,
    "jumps": _reals, "values_before": _reals, "values_after": _reals,
    "norms": _reals, "tail_norms": _reals, "limit_norms": _reals, "approx_norms": _reals,
}


def witness_to_json(w) -> dict:
    kind = next((k for k, cls in _WITNESS_TYPES.items() if isinstance(w, cls)), None)
    if kind is None:
        raise InputError(f"cannot serialize witness of type {type(w).__name__}")
    return record(kind, w)


def witness_from_json(obj: dict, where: str = "witness json"):
    """Rebuild a stored witness; construction re-runs every recorded
    inequality.  A record that fails its own arithmetic is an invariant
    breach (a tampered or stale file), not a schema problem."""
    _check_version(obj, where)
    kind = _require(obj, "type", where)
    cls = _WITNESS_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"{where}: unknown witness type {kind!r}")
    fields = {}
    for f in dataclasses.fields(cls):  # a field with a default may be absent
        if f.default is dataclasses.MISSING:
            value = _require(obj, f.name, where)
        else:
            value = obj.get(f.name, f.default)
        fields[f.name] = _parsed(_WITNESS_CASTS[f.name], value, f"{where}.{f.name}")
    try:
        return cls(**fields)
    except InputError as exc:
        raise InternalInvariantError(
            f"{where}: stored record fails its own inequalities: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# reports


def escape_report_to_json(report: EscapeReport) -> dict:
    return record("escape", report)


def refutation_to_json(cert: RefutationCertificate) -> dict:
    return record("refutation", cert)
