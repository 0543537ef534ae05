"""JSON schema: round trips and strict rejection of malformed documents."""

import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import run_clean
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond import io as cio
from anycond.catalog import rep_s3_system, toric_system, zn_system
from anycond.cli import main


def test_round_trip_catalog_branchings(catalog_entry, tmp_path):
    path = tmp_path / "branching.json"
    cio.save(catalog_entry.branching, path)
    loaded = cio.load(path)
    assert loaded == catalog_entry.branching


def test_round_trip_system_with_optional_data(tmp_path):
    system = toric_system()
    path = tmp_path / "system.json"
    cio.save(system, path)
    loaded = cio.load(path)
    assert loaded == system
    assert loaded.twist == system.twist


def test_round_trip_system_without_optional_data(tmp_path):
    system = ac.AnyonSystem(("1", "a"), (1.0, 1.5), "1")
    path = tmp_path / "system.json"
    cio.save(system, path)
    assert cio.load(path) == system


def _toric_doc():
    return cio.branching_to_dict(ac.entry("toric-1Y").branching)


def test_negative_entry_is_rejected_with_field_path():
    doc = _toric_doc()
    doc["n"][3][1] = -1
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(doc)
    assert err.value.field == "n[3][1]"


def test_non_integer_entry_is_rejected():
    doc = _toric_doc()
    doc["n"][0][0] = 1.25
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(doc)
    assert err.value.field == "n[0][0]"


def test_missing_vacuum_is_rejected():
    doc = _toric_doc()
    del doc["source"]["vacuum"]
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(doc)
    assert err.value.field == "source.vacuum"


def test_unknown_field_is_rejected_not_ignored():
    doc = _toric_doc()
    doc["comment"] = "hello"
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(doc)
    assert err.value.field == "comment"

    doc = cio.system_to_dict(toric_system())
    doc["extra"] = 1
    with pytest.raises(cio.SchemaError):
        cio.system_from_dict(doc)


def test_schema_version_mismatch_is_rejected():
    doc = _toric_doc()
    doc["schema_version"] = 2
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(doc)
    assert "schema_version" in err.value.field

    doc = _toric_doc()
    del doc["schema_version"]
    with pytest.raises(cio.SchemaError):
        cio.branching_from_dict(doc)


def test_wrong_row_shape_is_rejected():
    doc = _toric_doc()
    doc["n"][2] = [0]
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(doc)
    assert err.value.field == "n[2]"


def test_dims_length_mismatch_is_rejected():
    doc = cio.system_to_dict(toric_system())
    doc["dims"] = [1.0, 1.0]
    with pytest.raises(cio.SchemaError) as err:
        cio.system_from_dict(doc)
    assert err.value.field == "dims"


def test_bad_twist_fraction_is_rejected():
    doc = cio.system_to_dict(toric_system())
    doc["twist"]["X"] = "one half"
    with pytest.raises(cio.SchemaError) as err:
        cio.system_from_dict(doc)
    assert err.value.field == "twist.X"


def test_unrecognised_document_is_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"schema_version": 1, "what": 1}))
    with pytest.raises(cio.SchemaError):
        cio.load(path)


def test_invalid_json_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(cio.SchemaError):
        cio.load(path)


def test_state_from_dict_accepts_rationals():
    system = toric_system()
    state = cio.state_from_dict({"probs": ["1/3", "1/3", "1/3", 0]}, system)
    assert state.probs[0] == pytest.approx(1 / 3)
    with pytest.raises(cio.SchemaError) as err:
        cio.state_from_dict({"probs": ["1/3", "x", "1/3", 0]}, system)
    assert err.value.field == "probs[1]"
    with pytest.raises(cio.SchemaError):
        cio.state_from_dict({"probs": [0.5, 0.5], "junk": 1}, system)


def test_twists_round_trip_exactly(tmp_path):
    system = toric_system()
    path = tmp_path / "sys.json"
    cio.save(system, path)
    raw = json.loads(path.read_text())
    assert raw["twist"]["X"] == "1/2"
    assert cio.load(path).twist["X"] == system.twist["X"]


# --- the streamed enumerate output --------------------------------------------


def _reference_text(results):
    payload = {"count": len(results), "branchings": [cio.branching_to_dict(b) for b in results]}
    return json.dumps(payload, indent=2)


def _assert_dumps_like_json(results):
    want = _reference_text(results)
    assert cio.dumps_branchings(results) == want
    out = io.StringIO()
    cio.dump_branchings(results, out)
    assert out.getvalue() == want


def _plain(n, picked):
    source = ac.AnyonSystem(tuple(str(i) for i in range(n)), (1.0,) * n, "0")
    return source, ac.CondensableAlgebra(source, tuple(int(i in picked) for i in range(n)))


@pytest.mark.parametrize(
    "make, coefficients, max_sectors, count",
    [
        (toric_system, (1, 0, 0, 0), 1, 0),
        (toric_system, (1, 1, 0, 0), 4, 1),
        (rep_s3_system, (1, 1, 0), 4, 1),
        (rep_s3_system, (1, 0, 0), 4, 1),
    ],
)
def test_dumps_branchings_matches_json_on_catalog_sources(make, coefficients, max_sectors, count):
    # Both sources carry dual and twist data.
    source = make()
    algebra = ac.CondensableAlgebra(source, coefficients)
    results = ac.enumerate_branchings(source, algebra, max_sectors, 2)
    assert len(results) == count
    _assert_dumps_like_json(results)


@pytest.mark.parametrize("n, m, count", [(6, 2, 3), (8, 2, 15), (9, 3, 10)])
def test_dumps_branchings_matches_json_on_plain_sources(n, m, count):
    source, algebra = _plain(n, {0, *range(n - 1, n - m, -1)})
    results = ac.enumerate_branchings(source, algebra, n // m, 2)
    assert len(results) == count
    _assert_dumps_like_json(results)


def test_dumps_branchings_matches_json_on_unshared_systems():
    # Equal systems held by distinct objects, and distinct sources in one list.
    results = [e.branching for e in ac.catalog()] + [ac.entry("toric-1Y").branching]
    _assert_dumps_like_json(results)


def test_dumps_branchings_of_nothing():
    assert cio.dumps_branchings([]) == '{\n  "count": 0,\n  "branchings": []\n}'
    _assert_dumps_like_json([])


AWKWARD = '"\\\n\té∞😀a'


@st.composite
def awkward_sources(draw):
    labels = tuple(
        draw(
            st.lists(
                st.text(alphabet=AWKWARD, min_size=1, max_size=4),
                min_size=4,
                max_size=6,
                unique=True,
            )
        )
    )
    dims = [1.0] + [float(draw(st.sampled_from([1, 1, 1, 2]))) for _ in labels[1:]]
    twist = dual = None
    if draw(st.booleans()):
        twist = {a: Fraction(0) for a in labels}
    if draw(st.booleans()):
        dual = {a: a for a in labels}
    source = ac.AnyonSystem(labels, tuple(dims), labels[0], dual, twist)
    picked = draw(st.sets(st.integers(1, len(labels) - 1), max_size=2))
    coeffs = tuple(int(i == 0 or i in picked) for i in range(len(labels)))
    return source, ac.CondensableAlgebra(source, coeffs)


def test_dumps_branchings_escapes_awkward_labels():
    labels = ("1", '"', "\\", "a\nb", "\t", "é😀")
    source = ac.AnyonSystem(labels, (1.0,) * 6, "1", {a: a for a in labels}, None)
    algebra = ac.CondensableAlgebra(source, (1, 1, 0, 0, 0, 0))
    results = ac.enumerate_branchings(source, algebra, 3, 2)
    assert len(results) == 3
    _assert_dumps_like_json(results)


@given(case=awkward_sources(), max_sectors=st.integers(3, 6))
@settings(max_examples=60, deadline=None)
def test_dumps_branchings_matches_json_on_awkward_labels(case, max_sectors):
    source, algebra = case
    _assert_dumps_like_json(ac.enumerate_branchings(source, algebra, max_sectors, 2))


@pytest.mark.parametrize(
    "argv",
    [
        ["--catalog", "toric-1Y", "--algebra", "1,1,0,0"],
        ["--catalog", "toric-1Y", "--algebra", "1,0,0,0", "--max-sectors", "1"],
        ["--catalog", "repS3-1X", "--algebra", "1,0,0", "--max-sectors", "3"],
    ],
)
def test_enumerate_cli_prints_json_dumps_text(capsys, tmp_path, argv):
    entry_id, coefficients = argv[1], argv[3]
    source = ac.entry(entry_id).branching.source
    max_sectors = int(argv[5]) if len(argv) > 4 else 4
    algebra = ac.CondensableAlgebra(source, tuple(map(int, coefficients.split(","))))
    want = _reference_text(ac.enumerate_branchings(source, algebra, max_sectors, 2)) + "\n"

    assert main(["enumerate", *argv]) == 0
    assert capsys.readouterr().out == want
    path = tmp_path / "out.json"
    assert main(["--output", str(path), "enumerate", *argv]) == 0
    assert path.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("value", [True, False, float("inf"), float("-inf"), float("nan")])
def test_twist_that_is_a_bool_or_not_finite_is_rejected(value):
    # A bool would read as twist 1 or 0, and an infinite one ended in an
    # OverflowError, not a SchemaError.
    doc = cio.system_to_dict(toric_system())
    doc["twist"]["X"] = value
    with pytest.raises(cio.SchemaError) as err:
        cio.system_from_dict(doc)
    assert err.value.field == "twist.X"
    branching = cio.branching_to_dict(ac.entry("toric-1Y").branching)
    branching["source"] = doc
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(branching)
    assert err.value.field == "source.twist.X"


def test_twist_values_may_be_integers_or_fraction_strings():
    doc = cio.system_to_dict(toric_system())
    doc["twist"] = {"1": 0, "Y": "3/2", "X": "1/2", "Z": -1}
    system = cio.system_from_dict(doc)
    assert system.twist == {"1": 0, "Y": Fraction(1, 2), "X": Fraction(1, 2), "Z": 0}


def test_state_from_dict_parses_repeated_strings_alike():
    system = zn_system(6)
    raw = ["1/6", "0", "1/6", "1/3", "0", "1/3"]
    state = cio.state_from_dict({"probs": raw}, system)
    assert state.probs.tolist() == [float(Fraction(x)) for x in raw]
    with pytest.raises(cio.SchemaError) as err:
        cio.state_from_dict({"probs": ["1/2", "x", "1/2", "x", 0, 0]}, system)
    assert err.value.field == "probs[1]"



# ---------------------------------------------------------------------------
# Mutation fuzzer for the input boundary: one valid document of each kind the
# CLI reads (a system file, a branching file, a state file and --state text),
# changed at one place, must make every command that reads it exit 0, 1 or 2
# without a traceback or a RuntimeWarning, and an exit 2 must name a field
# that exists in the mutant, or the whole input.
# ---------------------------------------------------------------------------

FUZZ_ENTRIES = ["toric-1Y", "repS3-1Y", "repS3-1X"]
FUZZ_STATES = {"toric-1Y": "1/2,0,0,1/2", "repS3-1Y": "1/3,1/3,1/3", "repS3-1X": "0,1/2,1/2"}


class Raw(str):
    """JSON text put in place of a value after encoding: what json.dumps
    cannot write."""


NESTED = Raw("[" * 100_000 + "]" * 100_000)
LONG_INT = Raw("1" * 5000)  # past int()'s 4,300-digit limit
MUTANTS = st.one_of(
    st.sampled_from(["1/2", "text", [], [1], {}, {"a": 1}, None, 0.5, 7]),  # type swaps
    st.booleans(),
    st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**30, 10**400]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.sampled_from([NESTED, LONG_INT]),
    st.just("zz"),  # an unknown label wherever a label is referenced
)
TEXT_MUTANTS = st.sampled_from(
    ["true", "1e400", str(10**400), "1" * 5000, "Infinity", "-inf", "nan", "NaN", "[", "zz",
     "", "1/0", "-1", "\udcff", "[" * 1000]
)
# Messages about the input as a whole.
WHOLE_INPUT = ("invalid JSON", "not UTF-8 text", "document is neither", "expected an object")


def _paths(node, path=()):
    yield path
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))


def _mutate(doc, path, how, value):
    """The document with ``value`` at ``path``, or with the key at ``path``
    renamed to an unknown label; raw text stays a placeholder string."""
    if not path:
        return "\x00raw" if isinstance(value, Raw) else value
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if how == "rename" and isinstance(target, dict):
        target["zz"] = target.pop(last)
    else:
        target[last] = "\x00raw" if isinstance(value, Raw) else value
    return doc


def _names_a_field(err: str, doc) -> bool:
    assert err.startswith("error: ")
    message = err[len("error: "):].rstrip("\n")
    if message.startswith(WHOLE_INPUT) or "does not contain branching data" in message:
        return True
    field = message.split(": ")[0]
    tokens = re.findall(r"\[(\d+)\]|([^.\[\]]+)", field)
    if message.endswith(": missing"):  # a missing field's parent exists
        tokens = tokens[:-1]
    node = doc
    for index, key in tokens:
        if index:
            if not isinstance(node, list) or int(index) >= len(node):
                return False
            node = node[int(index)]
        elif isinstance(node, dict) and key in node:
            node = node[key]
        elif not (key == "system" and node is doc):  # a system document's root
            return False
    return True


@st.composite
def _file_mutants(draw):
    kind = draw(st.sampled_from(["system", "branching", "state"]))
    entry_id = draw(st.sampled_from(FUZZ_ENTRIES))
    b = ac.entry(entry_id).branching
    doc = {
        "system": lambda: cio.system_to_dict(b.source),
        "branching": lambda: cio.branching_to_dict(b),
        "state": lambda: {"probs": FUZZ_STATES[entry_id].split(",")},
    }[kind]()
    path = draw(st.sampled_from(list(_paths(doc))))
    how = draw(st.sampled_from(["replace", "rename", "bytes"]))
    value = draw(MUTANTS)
    mutant = _mutate(doc, path, how, value)
    text = json.dumps(mutant)
    if isinstance(value, Raw) and how != "rename":
        text = text.replace(json.dumps("\x00raw"), value)
    data = text.encode()
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return kind, entry_id, mutant, data


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_file_mutants())
def test_mutated_files_are_rejected_at_the_boundary(case):
    kind, entry_id, mutant, data = case
    state = FUZZ_STATES[entry_id]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutant.json")
        Path(path).write_bytes(data)
        if kind == "state":
            runs = [
                [cmd, "--catalog", entry_id, "--state-file", path] for cmd in ("condense", "entropy")
            ]
        else:
            runs = [
                ["validate", path],
                ["condense", "--branching", path, f"--state={state}"],
                ["entropy", "--branching", path, f"--state={state}"],
                ["--grid-resolution", "2", "sweep", "--branching", path],
            ]
        for argv in runs:
            code, out, err = run_clean(*argv)
            if code == 2:
                assert out == "" and _names_a_field(err, mutant), (argv, err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(FUZZ_ENTRIES),
    st.sampled_from(["replace", "drop", "add"]),
    st.integers(0, 3),
    TEXT_MUTANTS,
)
def test_mutated_state_text_is_rejected_at_the_boundary(entry_id, how, at, value):
    entries = FUZZ_STATES[entry_id].split(",")
    at %= len(entries)
    if how == "drop":
        del entries[at]
    else:
        entries[at : at + (how == "replace")] = [value]
    text = ",".join(entries)
    for cmd in ("condense", "entropy"):
        code, out, err = run_clean(cmd, "--catalog", entry_id, f"--state={text}")
        if code == 2:
            assert out == ""
            assert err.startswith(
                (f"error: cannot parse state {text!r}: --state[", "error: expected",
                 "error: probabilities", "error: negative probability")
            ), err
            index = re.search(r"--state\[(\d+)\]", err)
            assert index is None or int(index.group(1)) < len(entries)
