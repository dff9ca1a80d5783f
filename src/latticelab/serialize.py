"""Versioned JSON/CSV schemas for spaces, families, witnesses and verdicts.

JSON carries structured records (families, witnesses, certificates,
verdicts); CSV carries curves and trend tables.  Every document gets a
``schema_version`` so stored certificates stay replayable, and every writer
is deterministic: sorted keys, fixed indentation, shortest round-trip float
rendering, LF newlines, UTF-8 bytes.  Ingestion errors always name the
offending line, field or member.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from json.encoder import encode_basestring

import numpy as np

from .convergence import (
    BuoCertificate,
    FamilyMetadata,
    MonotoneCertificate,
    OrderCertificate,
    PairedVerdict,
    SequenceFamily,
    StuckCoordinate,
    SubsequenceWitness,
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
    "first_difference",
    "witness_to_json",
    "witness_from_json",
    "escape_report_to_json",
    "refutation_to_json",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic writers


#: element types a list passes through _py unchanged
_PLAIN = frozenset({int, str, bool, type(None)})


def _non_finite(x) -> InputError:
    return InputError(f"cannot serialize non-finite number {float(x)!r}")


def _py(x):
    """Recursively convert numpy scalars/arrays so json can render them.  A
    list of plain values, or of finite floats, is copied in one C pass."""
    if type(x) in _PLAIN:
        return x
    if isinstance(x, dict):
        return {k: _py(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        kinds = set(map(type, x))
        if kinds <= _PLAIN or (kinds == {float} and all(map(math.isfinite, x))):
            return list(x)
        return [_py(v) for v in x]
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "biuf" and np.isfinite(x).all():
            return x.tolist()
        return [_py(v) for v in x.tolist()]  # names the first non-finite entry
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, float) and not math.isfinite(x):
        raise _non_finite(x)
    return x


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
    """The text of a JSON scalar (numpy scalars as _py converts them), or
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
    """The document's canonical text: the bytes of json.dumps(_py(obj),
    sort_keys=True, indent=2, ensure_ascii=False) plus a newline, written
    in one walk that joins runs of same-typed leaves in C loops.  A
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


def _number(obj: dict, key: str, where: str) -> float:
    """obj[key] as a finite float, else an InputError naming the field."""
    out = _parsed(float, _require(obj, key, where), f"{where}.{key}")
    if not math.isfinite(out):
        raise InputError(f"{where}.{key}: {out!r} is not a finite number")
    return out


def _floats(value) -> np.ndarray:
    """A JSON list of numbers as a 1-d array; other shapes raise."""
    return np.asarray(value, dtype=np.float64).reshape(len(value))


def _check_version(obj: dict, where: str) -> None:
    v = _require(obj, "schema_version", where)
    if v != SCHEMA_VERSION:
        raise InputError(f"{where}: schema_version {v} unsupported (tool writes {SCHEMA_VERSION})")


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
    labels = _parsed(list, _require(obj, "labels", where), f"{where}.labels")
    if "coords" in obj:
        coords = np.asarray(obj["coords"], dtype=np.float64)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        return FiniteMetricSpace.from_coords(coords, labels)
    if "matrix" in obj:
        return FiniteMetricSpace.from_matrix(np.asarray(obj["matrix"], dtype=np.float64), labels)
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


def tail_to_json(tail: Tail | None):
    if tail is None:
        return None
    doc = {"kind": tail.kind}
    if tail.kind == "constant":
        doc["value"] = tail.value
    elif tail.kind == "power":
        doc["exponent"] = tail.exponent
        doc["scale"] = tail.scale
    return doc


def tail_from_json(obj, where: str) -> Tail | None:
    if obj is None:
        return None
    kind = _require(obj, "kind", where)
    if kind == "zero":
        return Tail.zero()
    if kind == "none":
        return Tail.none()
    if kind == "constant":
        return Tail.constant(_number(obj, "value", where))
    if kind == "power":
        return Tail.power(_number(obj, "exponent", where), _number(obj, "scale", where))
    raise InputError(f"{where}: unknown tail kind {kind!r}")


def element_to_json(x: LatticeElement | None):
    if x is None:
        return None
    return {"values": x.values, "tail": tail_to_json(x.tail)}


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
    return SpaceTag(kind, None if p is None else _parsed(float, p, f"{where}.p"))


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
    return FamilyMetadata(
        monotone_decreasing=bool(obj.get("monotone_decreasing", False)),
        common_bound=element_from_json(obj.get("common_bound"), carrier,
                                       f"{where}.common_bound"),
        uniformly_cauchy_norms=None if ucn is None else tuple(
            float(e) for e in _parsed(_floats, ucn, f"{where}.uniformly_cauchy_norms")),
        space_tag=tag_from_json(obj.get("space_tag"), f"{where}.space_tag"),
        limit=element_from_json(obj.get("limit"), carrier, f"{where}.limit"),
        growth=obj.get("growth"),
        notes=tuple(str(n) for n in _parsed(list, obj.get("notes", ()), f"{where}.notes")),
    )


def family_from_json(obj: dict, where: str = "family json") -> SequenceFamily:
    _check_version(obj, where)
    car_doc = _require(obj, "carrier", where)
    kind = _require(car_doc, "kind", f"{where}.carrier")
    if kind == "index_set":
        size = _require(car_doc, "size", f"{where}.carrier")
        carrier = Carrier.index_set(_parsed(int, size, f"{where}.carrier.size"))
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
            _parsed(float, gen.get("coeff", 1.0), f"{w}.coeff"),
            size=_parsed(int, _require(gen, "size", w), f"{w}.size"),
            horizon=_parsed(int, _require(gen, "horizon", w), f"{w}.horizon"),
            p=None if p is None else _parsed(float, p, f"{w}.p"),
        )

    rows = _parsed(list, _require(obj, "members", where), f"{where}.members")
    if not rows:
        raise InputError(f"{where}: members is empty")
    tails = obj.get("tails")
    if tails is None and "tail" in obj:
        tails = [obj["tail"]] * len(rows)
    if tails is not None:
        tails = _parsed(list, tails, f"{where}.tails")
        if len(tails) != len(rows):
            raise InputError(f"{where}: {len(tails)} tails for {len(rows)} members")
    try:
        values = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError):
        values = None
    if (values is None or values.shape != (len(rows), carrier.size)
            or not np.isfinite(values).all()):
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


def read_json(path):
    """Parse a JSON file; malformed JSON is an InputError naming the file
    and the position of the damage."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
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
            "regulator_values": cert.regulator_values,
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
    return {"type": type(cert).__name__, "repr": repr(cert)}


#: the type a check report records for each verdict witness stored field by field
_VERDICT_WITNESS_TYPES = {SubsequenceWitness: "subsequence", StuckCoordinate: "stuck_coordinate"}


def _witness_obj_to_json(w):
    if w is None:
        return None
    if isinstance(w, (JumpWitness, BlockWitness)):
        return witness_to_json(w)
    if type(w) in _VERDICT_WITNESS_TYPES:  # a nested stuck coordinate becomes an object too
        return {"type": _VERDICT_WITNESS_TYPES[type(w)], **dataclasses.asdict(w)}
    return {"type": type(w).__name__, "repr": repr(w)}


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, PairedVerdict):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "paired",
            "order": verdict_to_json(verdict.order),
            "buo": verdict_to_json(verdict.buo),
            "equal": verdict.equal,
            "note": verdict.note,
        }
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
        "policy": verdict.policy,
        "seed": verdict.seed,
        "notes": list(verdict.notes),
    }
    if verdict.included:  # only a sampled policy with included subsequences
        doc["included"] = [list(seq) for seq in verdict.included]
    return doc


_ABSENT = object()


def _brief(value) -> str:
    if value is _ABSENT:
        return "no such field"
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 80 else text[:77] + "..."


def first_difference(stored, rerun, path: str = "") -> str | None:
    """'<path>: stored <a>, re-run <b>' at the first field, in sorted key
    order, where two JSON documents differ, or None when they are equal.
    Values compare as Python values: numbers by value, so 1 and 1.0 agree
    (and so do true and 1).  Equal subtrees are passed over in one C-level
    comparison; only a differing branch is walked."""
    if stored == rerun:
        return None
    if isinstance(stored, dict) and isinstance(rerun, dict):
        fields = ((f"{path}.{k}" if path else k, stored.get(k, _ABSENT), rerun.get(k, _ABSENT))
                  for k in sorted(stored.keys() | rerun.keys()))
    elif isinstance(stored, list) and isinstance(rerun, list) and len(stored) == len(rerun):
        fields = ((f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(stored, rerun)))
    else:
        return f"{path}: stored {_brief(stored)}, re-run {_brief(rerun)}"
    return next(filter(None, (first_difference(a, b, p) for p, a, b in fields)))


# ---------------------------------------------------------------------------
# extraction witnesses


def _ints(values) -> tuple:
    return tuple(int(v) for v in values)


def _reals(values) -> tuple:
    return tuple(float(v) for v in values)


def _pairs(values) -> tuple:
    return tuple((int(a), int(b)) for a, b in values)


#: a witness record stores every field of its dataclass, under the field's name
_WITNESS_TYPES = {"jump": JumpWitness, "blocks": BlockWitness}

#: how the reader parses each stored witness field
_WITNESS_CASTS = {
    "eps": float, "factor": float, "p": float, "tail_budget": float, "block_mass": float,
    "horizon": int, "index_shift": int, "caveat": str,
    "indices": _ints, "coordinates": _ints, "blocks": _pairs,
    "jumps": _reals, "values_before": _reals, "values_after": _reals,
    "norms": _reals, "tail_norms": _reals, "limit_norms": _reals, "approx_norms": _reals,
}


def _record(kind: str, obj) -> dict:
    """A versioned document of dataclass ``obj``: every field under its own
    name, nested dataclasses (space tags, rows) as objects."""
    return {"schema_version": SCHEMA_VERSION, "type": kind, **dataclasses.asdict(obj)}


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
