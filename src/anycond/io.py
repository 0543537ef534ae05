"""Versioned JSON schema for anyon systems, branchings and states.

Documents are strict: unknown fields are rejected, not ignored, and every
rejection names the first offending field.  Numbers round-trip bit-exactly
(integers as JSON integers, reals as JSON doubles, twists as fraction
strings such as "1/2").

Every input number, in a file or on the command line, passes one of three
rules (:func:`reals`, :func:`_fractions`, :func:`_counts`), which reject
booleans, non-finite and out-of-range values with a :class:`SchemaError`.

:func:`load` reads and parses its file on every call and returns a new
document, which is validated and compiled again where a command needs it.
Every reader starts with one shape check.  :func:`dump_blocks` is the fast
branchings writer; :func:`dumps_branchings`, through dicts, its reference.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import sys
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from reprlib import repr as _show
from typing import Union

import numpy as np

from .branching import BranchingData
from .channels import SectorState
from .search import FILL_CHUNK, Block
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


# A larger decimal exponent is refused before ``Fraction`` expands it digit
# by digit.  A mantissa has at most 4,300 digits (the int parsing limit), so
# a real beyond it would overflow a float or round to zero.
_MAX_EXPONENT = 10_000


def _exact(x, kind: str):
    """A finite int or float as it is, or a fraction string as a Fraction.
    Anything else raises ValueError saying it is not ``kind``."""
    if isinstance(x, str):
        _, e, exponent = x.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (
            len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT
        ):
            raise ValueError(
                f"not {kind}: {_show(x)} (decimal exponent beyond ±{_MAX_EXPONENT})"
            )
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return x
    elif isinstance(x, float) and math.isfinite(x):
        return x
    raise ValueError(f"not {kind}: {_show(x)}")


def _real(x) -> float:
    # The real rule on one entry; raises ValueError.
    value = _exact(x, "a number")
    # Range-checked by integer comparison, so float() cannot overflow.
    if abs(value.numerator) > _FLOAT_MAX * value.denominator:
        raise ValueError("too large for a float")
    return float(value)


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
            try:
                out.append(_real(x))
            except ValueError as exc:
                if name_entries:
                    raise SchemaError(f"{field}[{i}]", str(exc)) from None
                raise SchemaError(field, f"an entry is {exc}") from None
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
        try:
            value = _exact(x, "a fraction")
        except ValueError as exc:
            raise SchemaError(f"{field}.{key}", str(exc)) from None
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


def _check_shape(data, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    # The shape check of every reader, in order: ``data`` is an object, its
    # schema version is supported (where ``required`` names one), and no
    # field is unknown or missing.
    if not isinstance(data, dict):
        raise SchemaError(path.rstrip("."), "expected an object")
    if "schema_version" in required:
        key = f"{path}schema_version"
        if "schema_version" not in data:
            raise SchemaError(key, "missing")
        version = data["schema_version"]
        if type(version) is not int or version != SCHEMA_VERSION:
            raise SchemaError(
                key, f"unsupported schema version {_show(version)}, expected {SCHEMA_VERSION}"
            )
    for key in data:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}{key}", "unknown field")
    for field in required:
        if field not in data:
            raise SchemaError(f"{path}{field}", "missing")


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
    _check_shape(data, path, ("schema_version", "labels", "dims", "vacuum"), ("dual", "twist"))
    labels = data["labels"]
    if not isinstance(labels, list) or not all(map(isinstance, labels, repeat(str))):
        raise SchemaError(f"{path}labels", "expected a list of strings")
    field = f"{path}dims"
    dims = reals(data["dims"], field, name_entries=False)
    if len(dims) != len(labels):
        raise SchemaError(field, f"{len(dims)} entries for {len(labels)} labels")
    if not math.isfinite(sum(map(operator.mul, dims, dims))):
        raise SchemaError(field, "the squares of the entries do not sum to a finite float")
    if not isinstance(data["vacuum"], str):
        raise SchemaError(f"{path}vacuum", "expected a string")

    dual = None
    if "dual" in data:
        raw = data["dual"]
        if not (
            isinstance(raw, dict)
            and all(map(isinstance, raw, repeat(str)))
            and all(map(isinstance, raw.values(), repeat(str)))
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


@functools.cache
def _flat_encoder(depth: int):
    # Built once per depth; json.dumps would build a new encoder per call.
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def dumps_indented(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, as it stands ``depth``
    levels deep in a document.  Each dict or list of scalars is one call of
    the C encoder (``indent`` keeps the stdlib on its Python one), whose
    separator carries the newline and indent.  Raises ``TypeError`` where
    ``json.dumps`` does."""
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    pad = "\n" + "  " * (depth + 1)
    for x in value.values() if isinstance(value, dict) else value:
        if isinstance(x, (dict, list, tuple)):
            break
    else:
        text = _flat_encoder(depth)(value)
        return text if len(text) == 2 else text[0] + pad + text[1:-1] + pad[:-2] + text[-1]
    if isinstance(value, dict):
        items = (
            (json.dumps(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4])
            + ": " + dumps_indented(x, depth + 1)
            for k, x in value.items()
        )
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    items = (dumps_indented(x, depth + 1) for x in value)
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def _row_text(row: list[int]) -> str:
    return "[\n          " + ",\n          ".join(map(str, row)) + "\n        ]"


def dumps_branchings(results: list[BranchingData]) -> str:
    """``json.dumps({"count": ..., "branchings": [...]}, indent=2)`` of the
    results: the plain reference for :func:`dump_blocks`."""
    branchings = list(map(branching_to_dict, results))
    return dumps_indented({"count": len(results), "branchings": branchings})


def dump_branchings(results: list[BranchingData], fh):
    """Write :func:`dumps_branchings` to ``fh``."""
    fh.write(dumps_branchings(results))


def dump_blocks(blocks: list[Block], fh):
    """Write the text of :func:`dumps_branchings` of the results of the
    search's ``blocks`` to ``fh``, without a ``BranchingData`` per result.
    The text of each row of a block's table and of each of its systems is
    made once, and each slice of the block is gathered from them and joined."""

    def system_text(system: AnyonSystem) -> str:
        return dumps_indented(system_to_dict(system), depth=3)

    count = sum(len(b.which) for b in blocks)
    fh.write(f'{{\n  "count": {count},\n  "branchings": [')
    first = True
    for block in blocks:
        texts = np.array(list(map(_row_text, block.rows.tolist())), dtype=object)
        head = (f',\n    {{\n      "schema_version": {SCHEMA_VERSION},'
                f'\n      "source": {system_text(block.source)},\n      "condensed": ')
        heads = np.array([f'{head}{system_text(c)},\n      "n": [\n        '
                          for c in block.condensed], dtype=object)
        # Results per slice: about FILL_CHUNK characters of text.  One string
        # per block was slower and raised peak memory by its size.
        width = block.chosen.shape[1]
        per = max(1, FILL_CHUNK // (len(heads[0]) + width * (len(texts[0]) + 9)))
        cells = np.empty((min(per, len(block.chosen)), 2 * width + 1), dtype=object)
        cells[:, 2::2] = ",\n        "
        cells[:, -1] = "\n      ]\n    }"
        for start in range(0, len(block.chosen), per):
            which, chosen = block.which[start : start + per], block.chosen[start : start + per]
            part = cells[: len(which)]
            part[:, 0] = heads[which]
            part[:, 1::2] = texts[chosen]
            if first:
                part[0, 0], first = part[0, 0][1:], False
            fh.write("".join(part.ravel().tolist()))
    fh.write("\n  ]\n}" if count else "]\n}")


def branching_from_dict(data, path: str = "") -> BranchingData:
    _check_shape(data, path, ("schema_version", "source", "condensed", "n"))
    source = system_from_dict(data["source"], f"{path}source.")
    condensed = system_from_dict(data["condensed"], f"{path}condensed.")
    rows = data["n"]
    if not isinstance(rows, list) or len(rows) != len(source):
        raise SchemaError(f"{path}n", f"expected {len(source)} rows")
    matrix = _count_matrix(rows, len(condensed))
    if matrix is None:
        # The error path: row by row, which names the first bad row or entry.
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(condensed):
                raise SchemaError(f"{path}n[{i}]", f"expected {len(condensed)} entries")
            _counts(row, f"{path}n[{i}]")
    return BranchingData(source, condensed, matrix)  # shape and entries are checked


def _count_matrix(rows: list, width: int) -> np.ndarray | None:
    # The rows as an int64 array when each is a list of ``width`` ints in
    # [0, 2**63), checked in a few passes at C speed; else None, for rows that
    # the walk in :func:`branching_from_dict` refuses, naming the bad entry.
    if not all(map(isinstance, rows, repeat(list))) or set(map(len, rows)) != {width}:
        return None
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) != {int} or min(entries) < 0 or max(entries) >= 2**63:
        return None
    return np.array(entries, dtype=np.int64).reshape(len(rows), width)


def state_from_dict(data, system: AnyonSystem, path: str = "") -> SectorState:
    _check_shape(data, path, ("probs",))
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
    return dumps_indented(to_dict(value))


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
