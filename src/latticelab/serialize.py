"""Versioned JSON/CSV schemas for spaces, families, witnesses and verdicts.

JSON carries structured records (families, witnesses, certificates,
verdicts); CSV carries curves and trend tables.  Every document gets a
``schema_version`` so stored certificates stay replayable, and every writer
is deterministic: sorted keys, fixed indentation, shortest round-trip float
rendering, LF newlines, UTF-8 bytes.  Ingestion errors always name the
offending line, field or member.

JSON files are read by ``read_json``.  orjson, whose correctly rounded
number parser gives the floats json gives, bit for bit, in a third of the
time, decodes a file of at most ``ORJSON_MAX_BYTES`` unless it holds an
integer literal of 19 or more digits (orjson reads one outside
[-2**63, 2**64) as a float) or orjson refuses the text (so NaN, Infinity,
1e400, lone surrogates and every error message stay json's).  A larger file,
which orjson would decode whole at 1.5 times json's peak memory, takes the
row route: its top-level ``"members"`` list of number rows is decoded by
orjson one row at a time, and the rest of the document with that list
spliced out.  The route applies only where every row holds nothing but
number bytes and no integer literal of 19 or more digits, orjson accepts
every piece, and the list is the value the top-level key reads; any other
file is read by json.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import struct
from json.encoder import encode_basestring

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
from .metric import BLOCK_ENTRIES, FiniteMetricSpace
from .witnesses import BlockWitness, JumpWitness, RefutationCertificate

__all__ = [
    "SCHEMA_VERSION",
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


def _non_finite(x) -> InputError:
    return InputError(f"cannot serialize non-finite number {float(x)!r}")


def _leaf_run(x, sep: str) -> str | None:
    """The elements of list ``x`` joined by ``sep`` in one C-level map when
    all of them are floats, all ints or all strings; else None."""
    kinds = set(map(type, x))
    if kinds == {float}:
        text = sep.join(map(float.__repr__, x))
        if "n" in text:  # only inf and nan render with an n
            raise _non_finite(next(v for v in x if not math.isfinite(v)))
        return text
    if kinds == {int}:
        return sep.join(map(int.__repr__, x))
    if kinds == {str}:
        return sep.join(map(encode_basestring, x))
    return None


def _scalar(x) -> str | None:
    """The text of a JSON scalar (a numpy scalar as its Python value), or
    None for a container."""
    if isinstance(x, str):
        return encode_basestring(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise _non_finite(x)
        return float.__repr__(x)
    if isinstance(x, np.floating):
        return _scalar(float(x))
    if isinstance(x, np.integer):
        return int.__repr__(int(x))
    return None


def _emit(x, pad: str, out: list) -> None:
    """Append to ``out`` the text json.dumps(..., sort_keys=True, indent=2,
    ensure_ascii=False) gives ``x`` at indentation ``pad``.  Dict keys must
    be strings."""
    text = _scalar(x)
    if text is not None:
        out.append(text)
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        lead = "{\n" + inner
        for k in sorted(x):
            out.append(f"{lead}{encode_basestring(k)}: ")
            _emit(x[k], inner, out)
            lead = sep
        out.append("\n" + pad + "}")
    elif isinstance(x, np.ndarray):
        # a matrix goes row by row, so no row's Python floats outlive it
        _emit(list(x) if x.ndim > 1 and x.dtype.kind in "biuf" else x.tolist(), pad, out)
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        run = _leaf_run(x, sep)
        if run is not None:
            out += ("[\n" + inner, run, "\n" + pad + "]")
            return
        lead = "[\n" + inner
        for v in x:
            out.append(lead)
            _emit(v, inner, out)
            lead = sep
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False), numpy values as their Python values, plus a newline,
    written in one walk that joins runs of same-typed leaves in C loops.  A
    non-finite number, numpy scalars included, is an InputError."""
    out: list = []
    _emit(obj, "", out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj) -> None:
    data = canonical_json(obj).encode("utf-8")  # an encoding error leaves the file as it was
    with open(path, "wb") as fh:
        fh.write(data)


def _cell(v) -> str:
    if type(v) is str:
        return v
    if isinstance(v, float):  # np.float64 included
        return float.__repr__(v)
    if isinstance(v, np.floating):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    lines = [",".join(map(str, header))]
    lines += [",".join(map(_cell, row)) for row in rows]
    lines.append("")
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8"))


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
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
    an entry are walked.  The rows are screened in blocks of BLOCK_ENTRIES:
    masks of a whole 300 x 3000 matrix left the heap fragmented enough to
    raise the next large read's peak by 15 MB."""
    if arr.ndim == 1:
        value, arr = [value], arr[None]
    elif arr.ndim != 2:  # not a shape any caller accepts
        return None
    step = max(1, BLOCK_ENTRIES // max(1, arr.shape[1]))
    for start in range(0, len(arr), step):
        block = arr[start:start + step]
        for i in np.flatnonzero(((block == 0.0) | (block == 1.0)).any(axis=1)):
            if bool in set(map(type, value[start + i])):
                return value[start + i]
    return None


def _array(value) -> np.ndarray:
    """A JSON list of numbers, or of rows of numbers, as a float64 array;
    true and false raise rather than being read as 1.0 and 0.0."""
    out = np.asarray(value, dtype=np.float64)
    row = _bool_row(value, out)
    if row is not None:
        flag = next(v for v in row if type(v) is bool)
        raise TypeError(f"expected a number, got {json.dumps(flag)}")
    return out


def _floats(value) -> np.ndarray:
    """A JSON list of numbers as a 1-d array; other shapes, true and false
    raise."""
    return _array(value).reshape(len(value))


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
        return FiniteMetricSpace.from_coords(coords, labels)
    if "matrix" in obj:
        return FiniteMetricSpace.from_matrix(
            _parsed(_array, obj["matrix"], f"{where}.matrix"), labels)
    raise InputError(f"{where}: needs either coords or matrix")


def _parse_float(text: str, line: int, field: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(
            f"line {line}, field {field}: could not parse {text!r} as a number"
        ) from None


def _csv_rows(path) -> list:
    """The non-blank rows of a UTF-8 CSV file; other bytes are an InputError
    naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return [row for row in csv.reader(fh) if row and any(f.strip() for f in row)]
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_distance_csv(path) -> FiniteMetricSpace:
    """Header row of labels, then a symmetric numeric body (an optional
    leading label column is accepted and checked against the header)."""
    rows = _csv_rows(path)
    if len(rows) < 2:
        raise InputError(f"{path}: a distance csv needs a header and at least one row")
    header = [f.strip() for f in rows[0]]
    labeled = len(rows[1]) == len(header) + 1
    labels = header
    body = np.empty((len(rows) - 1, len(labels)))
    if len(rows) - 1 != len(labels):
        raise InputError(
            f"{path}: {len(labels)} labels in the header but {len(rows) - 1} body rows"
        )
    for r, row in enumerate(rows[1:], start=2):
        row = [f.strip() for f in row]
        if labeled:
            if row[0] != labels[r - 2]:
                raise InputError(
                    f"line {r}, field 1: row label {row[0]!r} does not match "
                    f"header label {labels[r - 2]!r}"
                )
            row = row[1:]
        if len(row) != len(labels):
            raise InputError(
                f"line {r}: expected {len(labels)} numeric fields, got {len(row)}"
            )
        try:
            body[r - 2] = [float(cell) for cell in row]
        except ValueError:  # parse cell by cell, for the message naming it
            for c, cell in enumerate(row):
                body[r - 2, c] = _parse_float(cell, r, c + (2 if labeled else 1))
    return FiniteMetricSpace.from_matrix(body, labels)


def read_coords_csv(path) -> FiniteMetricSpace:
    """Header ``label,x1,...``, then one labeled coordinate row per point."""
    rows = _csv_rows(path)
    if len(rows) < 2:
        raise InputError(f"{path}: a coords csv needs a header and at least one row")
    width = len(rows[0]) - 1
    if width < 1:
        raise InputError(f"{path}: header must name a label column and >= 1 coordinate")
    labels, coords = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width + 1:
            raise InputError(f"line {r}: expected {width + 1} fields, got {len(row)}")
        labels.append(row[0].strip())
        try:  # float() ignores the whitespace that strip() removes
            coords.append(list(map(float, row[1:])))
        except ValueError:  # parse cell by cell, for the message naming it
            for c, cell in enumerate(row[1:]):
                _parse_float(cell.strip(), r, c + 2)
    return FiniteMetricSpace.from_coords(np.asarray(coords), labels)


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
    return getattr(Tail, kind)(*(_number(obj, f, where) for f in _TAIL_FIELDS[kind]))


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
    return LatticeElement(carrier, values, tail_from_json(obj.get("tail"), where))


def tag_to_json(tag: SpaceTag | None):
    if tag is None:
        return None
    return {"kind": tag.kind, "p": tag.p}


def tag_from_json(obj, where: str) -> SpaceTag | None:
    if obj is None:
        return None
    kind = _require(obj, "kind", where)
    p = obj.get("p")
    p = None if p is None else _parsed(_real, p, f"{where}.p")
    try:
        return SpaceTag(kind, p)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


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
    doc["metadata"] = _metadata_to_json(family.metadata)
    return doc


def _metadata_to_json(meta: FamilyMetadata) -> dict:
    return {
        "monotone_decreasing": meta.monotone_decreasing,
        "common_bound": element_to_json(meta.common_bound),
        "uniformly_cauchy_norms": (None if meta.uniformly_cauchy_norms is None
                                   else list(meta.uniformly_cauchy_norms)),
        "space_tag": tag_to_json(meta.space_tag),
        "limit": element_to_json(meta.limit),
        "growth": meta.growth,
        "notes": list(meta.notes),
    }


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
    try:
        return FamilyMetadata(**fields)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def family_from_json(obj: dict, where: str = "family json") -> SequenceFamily:
    _check_version(obj, where)
    car_doc = _require(obj, "carrier", where)
    kind = _require(car_doc, "kind", f"{where}.carrier")
    if kind == "index_set":
        size = _require(car_doc, "size", f"{where}.carrier")
        carrier = Carrier.index_set(_parsed(_int, size, f"{where}.carrier.size"))
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
        p = gen.get("p")
        return truncation_family(
            _number(gen, "exponent", w),
            _parsed(_real, gen.get("coeff", 1.0), f"{w}.coeff"),
            size=_parsed(_int, _require(gen, "size", w), f"{w}.size"),
            horizon=_parsed(_int, _require(gen, "horizon", w), f"{w}.horizon"),
            p=None if p is None else _parsed(_real, p, f"{w}.p"),
        )

    rows = _parsed(_list, _require(obj, "members", where), f"{where}.members")
    if not rows:
        raise InputError(f"{where}: members is empty")
    tails = obj.get("tails")
    if tails is not None:
        tails = _parsed(_list, tails, f"{where}.tails")
        if len(tails) != len(rows):
            raise InputError(f"{where}: {len(tails)} tails for {len(rows)} members")
    try:
        values = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError):
        values = None
    if (values is None or values.shape != (len(rows), carrier.size)
            or not np.isfinite(values).all() or _bool_row(rows, values) is not None):
        # walk the rows in order to name the first bad member: its length, its tail,
        # then its values
        for i, row in enumerate(rows, start=1):
            row = _parsed(_floats, row, f"{where}.members[{i}]")
            if row.shape[0] != carrier.size:
                raise InputError(f"{where}: member {i} has {row.shape[0]} values "
                                 f"for a carrier of size {carrier.size}")
            LatticeElement(carrier, row, tail_from_json(tails[i - 1], f"{where}.tails[{i}]")
                           if tails else None)
    if tails:  # a tail document equal to the one before it reuses that one's Tail
        docs, tails = tails, []
        for i, doc in enumerate(docs, start=1):
            tails.append(tails[-1] if i > 1 and doc == docs[i - 2]
                         else tail_from_json(doc, f"{where}.tails[{i}]"))
    meta = _metadata_from_json(obj.get("metadata"), carrier, f"{where}.metadata")
    return SequenceFamily(values=values, tails=tails or None, carrier=carrier, metadata=meta)


#: the largest file read_json decodes whole with orjson.  orjson holds the
#: input and its own tree while it builds the objects, so on a 24 MB family
#: its peak is 1.5 times that of json; a larger file takes the row route.
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


def _with_member_rows(data: bytes):
    """The document ``data`` read by the row route: its top-level "members"
    list of number rows decoded one row at a time, the rest (the skeleton)
    with the list spliced out.  None where the route does not apply; orjson
    refusing a piece raises its JSONDecodeError."""
    key = _MEMBERS.search(data)
    if key is None:
        return None
    rows, pos = [], key.end()
    while True:
        start, end = data.find(b"[", pos), data.find(b"]", pos)
        if not 0 <= start < end or data[pos:start].strip(_WHITESPACE) != (b"," if rows else b""):
            break
        row = data[start:end + 1]
        if row.translate(None, _ROW_BYTES) != b"[]" or _has_wide_int(row):
            return None
        rows.append(orjson.loads(row))
        pos = end + 1
    if end < 0 or data[pos:end].strip(_WHITESPACE):
        return None
    parts = data[:key.end() - 1], data[end + 1:]
    skeleton = b"0".join(parts)
    if _has_wide_int(skeleton):
        return None
    # the list is the value the top-level key reads (the last "members", not
    # one in a string or a nested object) when splicing in 0 and null both show
    found = orjson.loads(skeleton)
    if type(found) is not dict or found.get("members") != 0:
        return None
    del found, skeleton  # one skeleton tree at a time
    doc = orjson.loads(b"null".join(parts))
    if doc["members"] is not None:
        return None
    doc["members"] = rows
    return doc


def read_json(path):
    """Parse a JSON file, with orjson or json as the module docstring says;
    malformed JSON is an InputError naming the file and the position of the
    damage."""
    with open(path, "rb") as fh:
        data = fh.read()
        try:
            if len(data) > ORJSON_MAX_BYTES:
                doc = _with_member_rows(data)
                if doc is not None:
                    return doc
            elif not _has_wide_int(data):
                return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
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
    return family_from_json(read_json(path), where=str(path))


# ---------------------------------------------------------------------------
# verdicts and certificates


def _certificate_to_json(cert):
    if cert is None:
        return None
    if isinstance(cert, OrderCertificate):
        return {
            "type": "order",
            "regulator_values": cert.regulator_values.tolist(),
            "regulator_tails": (None if cert.regulator_tails is None
                                else [tail_to_json(t) for t in cert.regulator_tails]),
            "thresholds": list(cert.thresholds),
            "final_sup": cert.final_sup,
        }
    if isinstance(cert, MonotoneCertificate):
        return {"type": "monotone", "bound": element_to_json(cert.bound), "note": cert.note}
    if isinstance(cert, UniformCauchyCertificate):
        return {"type": "uniform_cauchy", "eps": list(cert.eps)}
    if isinstance(cert, BuoCertificate):
        return {
            "type": "buo",
            "dominator": element_to_json(cert.dominator),
            "membership_reason": cert.membership_reason,
            "probe_sups": [list(pair) for pair in cert.probe_sups],
        }
    raise InternalInvariantError(f"no report record for certificate type {type(cert).__name__}")


#: the type a check report records for each verdict witness, stored field by field
_VERDICT_WITNESS_TYPES = {
    SubsequenceWitness: "subsequence", StuckCoordinate: "stuck_coordinate",
    UnboundedGrowth: "unbounded_growth", DominationFailure: "domination_failure",
}


def _plain(v):
    """``v`` with each dataclass as an object of its fields, under their own
    names, and each tuple as a list."""
    if dataclasses.is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in dataclasses.fields(v)}
    return [_plain(e) for e in v] if isinstance(v, tuple) else v


def _witness_obj_to_json(w):
    if w is None:
        return None
    kind = _VERDICT_WITNESS_TYPES.get(type(w))
    if kind is None:
        raise InternalInvariantError(f"no report record for witness type {type(w).__name__}")
    return {"type": kind, **_plain(w)}


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
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "paired",
            "order": verdict_to_json(verdict.order),
            "buo": verdict_to_json(verdict.buo),
            "equal": verdict.equal,
            "note": verdict.note,
        }
    policy = verdict.policy
    sampled = isinstance(policy, SampledPolicy)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": "verdict",
        "mode": verdict.mode,
        "outcome": verdict.outcome,
        "tolerance": verdict.tolerance,
        "horizon": verdict.horizon,
        "certificate": _certificate_to_json(verdict.certificate),
        "witness": _witness_obj_to_json(verdict.witness),
        "limit": element_to_json(verdict.limit),
        "bound": verdict.bound,
        "policy": _policy_to_json(policy),
        "seed": policy.seed if sampled else None,
        "notes": list(verdict.notes),
    }
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
    try:
        config = CheckConfig(tolerance=tolerance, horizon=horizon, seed=seed)
        if mode == "buo-cauchy":
            policy = CertificatePolicy() if sampled is None else SampledPolicy(
                count=int(sampled[1]), max_len=int(sampled[2]), seed=seed, include=included)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    return mode, candidate, policy, config


_ABSENT = object()

#: the types of the JSON scalars read_json returns
_SCALARS = frozenset({str, int, float, bool, type(None)})


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


def _record(kind: str, obj) -> dict:
    """A versioned document of dataclass ``obj``, field by field."""
    return {"schema_version": SCHEMA_VERSION, "type": kind, **_plain(obj)}


def witness_to_json(w) -> dict:
    kind = next((k for k, cls in _WITNESS_TYPES.items() if isinstance(w, cls)), None)
    if kind is None:
        raise InputError(f"cannot serialize witness of type {type(w).__name__}")
    return _record(kind, w)


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
    return _record("escape", report)


def refutation_to_json(cert: RefutationCertificate) -> dict:
    return _record("refutation", cert)
