"""Versioned JSON schema for anyon systems, branchings and states.

Documents are strict: unknown fields are rejected, not ignored, and every
rejection names the first offending field.  Numbers round-trip bit-exactly
(integers as JSON integers, reals as JSON doubles, twists as fraction
strings such as "1/2").

Every input number, in a file or on the command line, passes one of three
rules (:func:`reals`, :func:`_fractions`, :func:`_counts`), which reject
booleans, non-finite and out-of-range values with a :class:`SchemaError`.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from reprlib import repr as _show
from typing import Union

from .branching import BranchingData
from .channels import SectorState
from .systems import AnyonSystem

SCHEMA_VERSION = 1

Document = Union[AnyonSystem, BranchingData]


class SchemaError(ValueError):
    """Malformed document; ``field`` is the path of the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


_FLOAT_MAX = int(sys.float_info.max)


def _counts(values: list, field: str) -> list[int]:
    """The count rule on each entry, named ``field[j]``: an int in [0, 2**63),
    the range of an int64 matrix."""
    for j, x in enumerate(values):
        if type(x) is not int:
            raise SchemaError(f"{field}[{j}]", f"expected an integer, got {_show(x)}")
        if not 0 <= x < 2**63:
            problem = f"negative coefficient {x}" if x < 0 else "too large for int64"
            raise SchemaError(f"{field}[{j}]", problem)
    return values


def _exact(x):
    """A finite int or float as it is, a fraction string as a Fraction, else None."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            return None
    if isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and math.isfinite(x):
        return x
    return None


def reals(values: list, field: str, name_entries: bool = True) -> list[float]:
    """The real rule on each entry of a list: a JSON number or a fraction
    string, as a finite float.  Each distinct string is parsed once.  An
    error names the entry ``field[i]``, or the list without ``name_entries``."""
    if not isinstance(values, list):
        raise SchemaError(field, "expected a list of numbers")
    parsed: dict[str, float] = {}
    out = []
    for i, x in enumerate(values):
        if isinstance(x, float) and math.isfinite(x):
            out.append(x)
        elif isinstance(x, str) and x in parsed:
            out.append(parsed[x])
        else:
            value = _exact(x)
            # An exact value is range-checked by integer comparison, so float() cannot overflow.
            if value is None or abs(value.numerator) > _FLOAT_MAX * value.denominator:
                problem = f"not a number: {_show(x)}" if value is None else "too large for a float"
                if name_entries:
                    raise SchemaError(f"{field}[{i}]", problem)
                raise SchemaError(field, f"an entry is {problem}")
            out.append(float(value))
            if isinstance(x, str):
                parsed[x] = out[-1]
    return out


def _fractions(mapping: dict, field: str) -> dict:
    """The fraction rule on each value of an object: a finite JSON number or
    a fraction string, as an exact Fraction.  Each distinct string is parsed
    once.  An error names the entry ``field.key``."""
    if not isinstance(mapping, dict):
        raise SchemaError(field, "expected an object mapping labels to fractions")
    parsed: dict[str, Fraction] = {}
    out = {}
    for key, x in mapping.items():
        if isinstance(x, str) and x in parsed:
            out[key] = parsed[x]
            continue
        value = _exact(x)
        if value is None:
            raise SchemaError(f"{field}.{key}", f"not a fraction: {_show(x)}")
        out[key] = value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(x, str):
            parsed[x] = out[key]
    return out


def counts_from_text(text: str, field: str) -> list[int]:
    """The count rule on comma-separated decimal entries, named ``field[j]``."""
    values = text.split(",")
    for j, x in enumerate(values):
        try:
            values[j] = int(x)
        except ValueError:
            pass  # the rule names the entry
    return _counts(values, field)


def _check_version(data: dict, path: str):
    key = f"{path}schema_version"
    if "schema_version" not in data:
        raise SchemaError(key, "missing")
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(
            key, f"unsupported schema version {_show(version)}, expected {SCHEMA_VERSION}"
        )


def _reject_unknown(data: dict, allowed: set[str], path: str):
    for key in data:
        if key not in allowed:
            raise SchemaError(f"{path}{key}", "unknown field")


def system_to_dict(system: AnyonSystem) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "labels": list(system.labels),
        "dims": list(system.dims),
        "vacuum": system.vacuum,
    }
    if system.dual is not None:
        doc["dual"] = dict(system.dual)
    if system.twist is not None:
        doc["twist"] = {k: str(v) for k, v in system.twist.items()}
    return doc


def system_from_dict(data, path: str = "") -> AnyonSystem:
    if not isinstance(data, dict):
        raise SchemaError(path.rstrip("."), "expected an object")
    _check_version(data, path)
    _reject_unknown(data, {"schema_version", "labels", "dims", "vacuum", "dual", "twist"}, path)
    for field in ("labels", "dims", "vacuum"):
        if field not in data:
            raise SchemaError(f"{path}{field}", "missing")
    labels = data["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError(f"{path}labels", "expected a list of strings")
    field = f"{path}dims"
    dims = reals(data["dims"], field, name_entries=False)
    if len(dims) != len(labels):
        raise SchemaError(field, f"{len(dims)} entries for {len(labels)} labels")
    if not math.isfinite(sum(d * d for d in dims)):
        raise SchemaError(field, "the squares of the entries do not sum to a finite float")
    if not isinstance(data["vacuum"], str):
        raise SchemaError(f"{path}vacuum", "expected a string")

    dual = None
    if "dual" in data:
        raw = data["dual"]
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
        ):
            raise SchemaError(f"{path}dual", "expected an object mapping labels to labels")
        dual = raw
    twist = _fractions(data["twist"], f"{path}twist") if "twist" in data else None
    try:
        return AnyonSystem(tuple(labels), tuple(dims), data["vacuum"], dual, twist)
    except ValueError as exc:
        raise SchemaError(path.rstrip(".") or "system", str(exc)) from None


def branching_to_dict(b: BranchingData) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "source": system_to_dict(b.source),
        "condensed": system_to_dict(b.condensed),
        "n": b.n.tolist(),
    }


def _branchings_chunks(results: list[BranchingData]):
    # The text of json.dumps({"count", "branchings"}, indent=2), one result
    # at a time.  The results share a few system objects; each is encoded
    # once and re-indented to its depth: JSON escapes every newline inside
    # a string, so a literal one is layout.
    systems: dict[int, str] = {}

    def system_text(system: AnyonSystem) -> str:
        key = id(system)  # results keeps every system alive
        if key not in systems:
            text = json.dumps(system_to_dict(system), indent=2)
            systems[key] = text.replace("\n", "\n      ")
        return systems[key]

    yield f'{{\n  "count": {len(results)},\n  "branchings": ['
    separator = "\n"
    for b in results:
        rows = ",\n        ".join(
            "[\n          " + ",\n          ".join(map(str, row)) + "\n        ]"
            for row in b.n.tolist()
        )
        yield (
            f'{separator}    {{\n      "schema_version": {SCHEMA_VERSION},'
            f'\n      "source": {system_text(b.source)},'
            f'\n      "condensed": {system_text(b.condensed)},'
            f'\n      "n": [\n        {rows}\n      ]\n    }}'
        )
        separator = ",\n"
    yield "\n  ]\n}" if results else "]\n}"


def dumps_branchings(results: list[BranchingData]) -> str:
    """``json.dumps({"count": ..., "branchings": [...]}, indent=2)`` of the
    results, byte for byte, without building their dicts."""
    return "".join(_branchings_chunks(results))


def dump_branchings(results: list[BranchingData], fh):
    """Write :func:`dumps_branchings` to ``fh`` as it is produced."""
    fh.writelines(_branchings_chunks(results))


def branching_from_dict(data, path: str = "") -> BranchingData:
    if not isinstance(data, dict):
        raise SchemaError(path.rstrip("."), "expected an object")
    _check_version(data, path)
    _reject_unknown(data, {"schema_version", "source", "condensed", "n"}, path)
    for field in ("source", "condensed", "n"):
        if field not in data:
            raise SchemaError(f"{path}{field}", "missing")
    source = system_from_dict(data["source"], f"{path}source.")
    condensed = system_from_dict(data["condensed"], f"{path}condensed.")
    rows = data["n"]
    if not isinstance(rows, list) or len(rows) != len(source):
        raise SchemaError(f"{path}n", f"expected {len(source)} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(condensed):
            raise SchemaError(f"{path}n[{i}]", f"expected {len(condensed)} entries")
        _counts(row, f"{path}n[{i}]")
    return BranchingData(source, condensed, rows)  # shape and entries are checked


def state_from_dict(data, system: AnyonSystem, path: str = "") -> SectorState:
    if not isinstance(data, dict):
        raise SchemaError(path.rstrip("."), "expected an object")
    _reject_unknown(data, {"probs"}, path)
    if "probs" not in data:
        raise SchemaError(f"{path}probs", "missing")
    probs = reals(data["probs"], f"{path}probs")
    try:
        return SectorState(system, probs)
    except ValueError as exc:
        raise SchemaError(f"{path}probs", str(exc)) from None


def to_dict(value: Document) -> dict:
    if isinstance(value, BranchingData):
        return branching_to_dict(value)
    if isinstance(value, AnyonSystem):
        return system_to_dict(value)
    raise TypeError(f"cannot serialise {type(value).__name__}")


def from_dict(data) -> Document:
    if isinstance(data, dict) and "n" in data:
        return branching_from_dict(data)
    if isinstance(data, dict) and "labels" in data:
        return system_from_dict(data)
    raise SchemaError("", "document is neither an anyon system nor branching data")


def dumps(value: Document) -> str:
    return json.dumps(to_dict(value), indent=2)


def _parse(text: str):
    # Bad JSON, an integer of over 4,300 digits (ValueError) or too deep nesting.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from None


def loads(text: str) -> Document:
    return from_dict(_parse(text))


def save(value: Document, path: str | Path):
    Path(path).write_text(dumps(value) + "\n", encoding="utf-8")


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("", f"not UTF-8 text: {exc}") from None


def load(path: str | Path) -> Document:
    return loads(_read(path))


def load_state(path: str | Path, system: AnyonSystem) -> SectorState:
    return state_from_dict(_parse(_read(path)), system)
