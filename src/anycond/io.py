"""Versioned JSON schema for anyon systems, branchings and states.

Documents are strict: unknown fields are rejected, not ignored, and every
rejection names the first offending field.  Numbers round-trip bit-exactly
(integers as JSON integers, reals as JSON doubles, twists as fraction
strings such as "1/2").
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    return _is_number(x) and (isinstance(x, int) or math.isfinite(x))


def _check_version(data: dict, path: str):
    key = f"{path}schema_version"
    if "schema_version" not in data:
        raise SchemaError(key, "missing")
    version = data["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise SchemaError(
            key, f"unsupported schema version {version!r}, expected {SCHEMA_VERSION}"
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
    _reject_unknown(
        data, {"schema_version", "labels", "dims", "vacuum", "dual", "twist"}, path
    )
    for field in ("labels", "dims", "vacuum"):
        if field not in data:
            raise SchemaError(f"{path}{field}", "missing")
    labels = data["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError(f"{path}labels", "expected a list of strings")
    dims = data["dims"]
    if not isinstance(dims, list) or not all(_is_number(x) for x in dims):
        raise SchemaError(f"{path}dims", "expected a list of numbers")
    if len(dims) != len(labels):
        raise SchemaError(f"{path}dims", f"{len(dims)} entries for {len(labels)} labels")
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
    twist = None
    if "twist" in data:
        raw = data["twist"]
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}twist", "expected an object mapping labels to fractions")
        twist = {}
        parsed = {}  # each distinct value is parsed once
        for k, v in raw.items():
            if not (isinstance(v, str) or _is_finite_number(v)):
                raise SchemaError(f"{path}twist.{k}", f"not a fraction: {v!r}")
            if v not in parsed:
                try:
                    parsed[v] = Fraction(v)
                except (ValueError, ZeroDivisionError):
                    raise SchemaError(f"{path}twist.{k}", f"not a fraction: {v!r}") from None
            twist[k] = parsed[v]
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
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise SchemaError(f"{path}n[{i}][{j}]", f"expected an integer, got {x!r}")
            if x < 0:
                raise SchemaError(f"{path}n[{i}][{j}]", f"negative coefficient {x}")
    try:
        return BranchingData(source, condensed, rows)
    except ValueError as exc:
        raise SchemaError(f"{path}n", str(exc)) from None


def state_to_dict(state: SectorState) -> dict:
    return {"probs": [float(x) for x in state.probs]}


def state_from_dict(data, system: AnyonSystem, path: str = "") -> SectorState:
    if not isinstance(data, dict):
        raise SchemaError(path.rstrip("."), "expected an object")
    _reject_unknown(data, {"probs"}, path)
    if "probs" not in data:
        raise SchemaError(f"{path}probs", "missing")
    raw = data["probs"]
    if not isinstance(raw, list):
        raise SchemaError(f"{path}probs", "expected a list")
    probs = []
    parsed = {}  # each distinct string is parsed once
    for i, x in enumerate(raw):
        if isinstance(x, str):
            if x not in parsed:
                try:
                    parsed[x] = float(Fraction(x))
                except (ValueError, ZeroDivisionError):
                    raise SchemaError(f"{path}probs[{i}]", f"not a number: {x!r}") from None
            probs.append(parsed[x])
        elif _is_number(x):
            probs.append(float(x))
        else:
            raise SchemaError(f"{path}probs[{i}]", f"not a number: {x!r}")
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
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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
