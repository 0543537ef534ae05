"""JSON schema: round trips and strict rejection of malformed documents."""

import io
import json
import math
import os
import re
import tempfile
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from conftest import run_clean
from test_search import _near_integer_source, integral_sources
from hypothesis import example, given, settings, strategies as st

import anycond as ac
from anycond import cli
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("source", ["1", "X", "Y", "Z"], "source: expected an object"),
        ("source", "toric", "source: expected an object"),
        ("source", None, "source: missing"),
        ("n", [[1, 0], [0, 1], [0, 1]], "n: expected 4 rows"),
        ("n", {"1": [1, 0]}, "n: expected 4 rows"),
    ],
    ids=["source-list", "source-string", "no-source", "three-rows", "n-object"],
)
def test_branching_shape_refusals_name_their_field(key, value, message):
    doc = _toric_doc()
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(doc)
    assert (err.value.field, str(err.value)) == (key, message)


@pytest.mark.parametrize("data", [[{"schema_version": 1}], "toric-1Y", None])
def test_a_branching_that_is_not_an_object_is_refused(data):
    with pytest.raises(cio.SchemaError) as err:
        cio.branching_from_dict(data)
    assert (err.value.field, str(err.value)) == ("", "expected an object")


@pytest.mark.parametrize(
    "data, field, message",
    [
        ({}, "probs", "probs: missing"),
        ({"probs": [1, 0, 0, 0], "extra": 1}, "extra", "extra: unknown field"),
        ({"extra": 1}, "extra", "extra: unknown field"),
        ({"probs": [0.5, 0.4, 0, 0]}, "probs", "probs: probabilities sum to np.float64(0.9), not 1"),
        ({"probs": [0.5, 0.5, 0, 0, 0]}, "probs", "probs: expected 4 probabilities, got shape (5,)"),
        ([0.5, 0.5, 0, 0], "", "expected an object"),
    ],
    ids=["no-probs", "unknown-field", "unknown-before-missing", "sum-0.9", "too-many", "list"],
)
def test_state_refusals_name_their_field(data, field, message):
    with pytest.raises(cio.SchemaError) as err:
        cio.state_from_dict(data, toric_system())
    assert (err.value.field, str(err.value)) == (field, message)


def test_twists_round_trip_exactly(tmp_path):
    system = toric_system()
    path = tmp_path / "sys.json"
    cio.save(system, path)
    raw = json.loads(path.read_text())
    assert raw["twist"]["X"] == "1/2"
    assert cio.load(path).twist["X"] == system.twist["X"]


# --- loading a file ------------------------------------------------------------

TORIC_STATE = "0.1,0.2,0.3,0.4"


def test_a_file_rewritten_in_place_is_read_again(tmp_path):
    path = tmp_path / "branching.json"
    cio.save(ac.entry("toric-1Y").branching, path)
    argv = ["entropy", "--branching", str(path), "--state", TORIC_STATE]
    before = run_clean(*argv)
    # The same size and modification time: only the text tells them apart.
    stat = path.stat()
    cio.save(ac.entry("toric-1Z").branching, path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    after = run_clean(*argv)
    assert before == run_clean("entropy", "--catalog", "toric-1Y", "--state", TORIC_STATE)
    assert after == run_clean("entropy", "--catalog", "toric-1Z", "--state", TORIC_STATE)
    assert after != before


def test_each_load_builds_a_new_document(tmp_path):
    path = tmp_path / "branching.json"
    cio.save(ac.entry("toric-1Y").branching, path)
    first, second = cio.load(path), cio.load(path)
    assert first is not second and first == second


def test_a_rejected_file_raises_on_every_load_until_it_is_fixed(tmp_path):
    path = tmp_path / "branching.json"
    doc = _toric_doc()
    doc["n"][0][0] = -1
    path.write_text(json.dumps(doc))
    for _ in range(3):
        with pytest.raises(cio.SchemaError) as err:
            cio.load(path)
        assert err.value.field == "n[0][0]"
    doc["n"][0][0] = 1
    path.write_text(json.dumps(doc))
    assert cio.load(path) == ac.entry("toric-1Y").branching


def _file_commands(tmp_path):
    toric_1y, toric_1z = tmp_path / "toric-1Y.json", tmp_path / "toric-1Z.json"
    cio.save(ac.entry("toric-1Y").branching, toric_1y)
    cio.save(ac.entry("toric-1Z").branching, toric_1z)
    broken = _toric_doc()
    broken["n"][1] = [1, 1]  # breaks the weighted row sum for sector Y
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken))
    system = tmp_path / "system.json"
    cio.save(rep_s3_system(), system)
    toric_1y, toric_1z, broken_path, system = map(str, (toric_1y, toric_1z, broken_path, system))
    return [
        ["validate", toric_1y, system, broken_path],
        ["condense", "--branching", toric_1y, "--state", TORIC_STATE],
        ["--bits", "entropy", "--branching", toric_1z, "--state", TORIC_STATE],
        ["entropy", "--branching", broken_path, "--state", TORIC_STATE],
        ["--grid-resolution", "4", "sweep", "--branching", toric_1y],
        ["duality", "--a", toric_1y, "--b", toric_1z, "--trials", "5"],
        ["enumerate", "--source", system, "--algebra", "1,0,1"],
        ["enumerate", "--source", toric_1y, "--algebra", "1,1,0,0"],
    ]


def test_file_commands_print_the_same_on_every_run_in_one_process(tmp_path):
    commands = _file_commands(tmp_path)
    first = [run_clean(*argv) for argv in commands]
    assert {code for code, *_ in first} == {0, 1}
    assert [run_clean(*argv) for argv in commands] == first


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
AWKWARD_LABELS = ("1", '"', "\\", "a\nb", "\t", "é😀")


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
    labels = AWKWARD_LABELS
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


def _assert_cli_enumerate_text(source, coefficients, max_sectors, max_dim, directory):
    # enumerate --source, to stdout and to --output, prints json.dumps of
    # the library's results byte for byte, as the plain list writer does;
    # returns that text.
    algebra = ac.CondensableAlgebra(source, tuple(coefficients))
    results = ac.enumerate_branchings(source, algebra, max_sectors, max_dim)
    want = _reference_text(results) + "\n"
    assert cio.dumps_branchings(results) + "\n" == want
    path, out = Path(directory) / "source.json", Path(directory) / "out.json"
    cio.save(source, path)
    argv = ["enumerate", "--source", str(path), "--algebra", ",".join(map(str, coefficients)),
            "--max-sectors", str(max_sectors), "--max-dim", str(max_dim)]
    assert run_clean(*argv) == (0, want, "")
    assert run_clean("--output", str(out), *argv) == (0, "", "")
    assert out.read_text(encoding="utf-8") == want
    return want


@pytest.mark.parametrize(
    "source, coefficients, max_sectors, count",
    [
        (_plain(4, {0})[0], (1, 1, 1, 1), 4, 1),  # full condensation: no sector but the vacuum
        (_plain(12, {0})[0], (1,) + (0,) * 10 + (1,), 3, 0),  # nothing found
        (_near_integer_source(1e-10), (1, 1, 0, 0, 0), 4, 3),  # each result validated, all kept
        (_near_integer_source(6e-10), (1, 1, 0, 0, 0), 4, 0),  # each result validated, none kept
        (
            ac.AnyonSystem(AWKWARD_LABELS, (1.0,) * 6, "1", {a: a for a in AWKWARD_LABELS}),
            (1, 1, 0, 0, 0, 0),
            3,
            3,
        ),
    ],
    ids=["full", "empty", "near-integer-kept", "near-integer-refused", "awkward"],
)
def test_enumerate_cli_prints_json_dumps_branchings(tmp_path, source, coefficients, max_sectors, count):
    text = _assert_cli_enumerate_text(source, coefficients, max_sectors, 2, tmp_path)
    assert json.loads(text)["count"] == count


def test_enumerate_cli_prints_interleaved_branchings_with_their_own_condensed_system(tmp_path):
    # The 9-sector results of two dim multisets alternate six times in the
    # sort order, so consecutive results name different condensed systems.
    dims = (1.0, 1.0, 4.0, 4.0) + (2.0,) * 5
    source = ac.AnyonSystem(tuple(f"s{i}" for i in range(9)), dims, "s0")
    text = _assert_cli_enumerate_text(source, (1, 1) + (0,) * 7, 9, 4, tmp_path)
    condensed = [doc["condensed"]["dims"] for doc in json.loads(text)["branchings"]]
    runs = [len(list(run)) for _, run in groupby(dims for dims in condensed if len(dims) == 9)]
    assert runs == [6, 3, 3, 3, 1, 9]


@given(case=integral_sources(), max_sectors=st.integers(1, 5), max_dim=st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_enumerate_cli_prints_json_dumps_branchings_on_integral_sources(case, max_sectors, max_dim):
    source, algebra = case
    with tempfile.TemporaryDirectory() as directory:
        _assert_cli_enumerate_text(source, algebra.coefficients, max_sectors, max_dim, directory)


@given(case=awkward_sources(), max_sectors=st.integers(3, 6))
@settings(max_examples=30, deadline=None)
def test_enumerate_cli_prints_json_dumps_branchings_on_awkward_labels(case, max_sectors):
    source, algebra = case
    with tempfile.TemporaryDirectory() as directory:
        _assert_cli_enumerate_text(source, algebra.coefficients, max_sectors, 2, directory)


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


def test_integer_dims_and_twists_load_equal_to_their_float_and_fraction_twin():
    whole = cio.system_to_dict(zn_system(3))
    whole.update(dims=[1, 1, 1], twist={"0": 0, "1": 1, "2": -2})
    twin = cio.system_to_dict(zn_system(3))
    twin.update(dims=[1.0, 1.0, 1.0], twist={"0": 0.0, "1": 1.0, "2": "-2"})
    loaded = cio.loads(json.dumps(whole))
    assert loaded == cio.loads(json.dumps(twin)) == zn_system(3)
    assert loaded.twist == {"0": 0, "1": 0, "2": 0}


def test_to_dict_refuses_what_is_not_a_document():
    with pytest.raises(TypeError, match="^cannot serialise object$"):
        cio.to_dict(object())


def test_state_from_dict_parses_repeated_strings_alike():
    system = zn_system(6)
    raw = ["1/6", "0", "1/6", "1/3", "0", "1/3"]
    state = cio.state_from_dict({"probs": raw}, system)
    assert state.probs.tolist() == [float(Fraction(x)) for x in raw]
    with pytest.raises(cio.SchemaError) as err:
        cio.state_from_dict({"probs": ["1/2", "x", "1/2", "x", 0, 0]}, system)
    assert err.value.field == "probs[1]"


# Decimal exponents up to the bound parse as Fraction parses them; beyond it
# they are refused by their field before Fraction is called.
EXPONENT_TEXTS = ["1e-10000", "-7.5E-10000", "2.5e3", " 3E+2 ", "1_0e1_0", "1e0_000_1", "0e10000"]


def test_decimal_exponents_within_the_bound_parse_as_before():
    assert cio.reals(EXPONENT_TEXTS, "x") == [float(Fraction(x)) for x in EXPONENT_TEXTS]
    twists = {str(i): x for i, x in enumerate(EXPONENT_TEXTS + ["9e10000"])}
    assert cio._fractions(twists, "twist") == {k: Fraction(x) for k, x in twists.items()}


@pytest.mark.parametrize("text", ["1e10001", "1e-10001", "0e999999999", "1E+0999999999", "1e1_0000_0"])
def test_decimal_exponents_beyond_the_bound_name_their_field(text):
    with pytest.raises(cio.SchemaError) as err:
        cio.reals(["1/2", text], "probs")
    assert err.value.field == "probs[1]"
    assert "decimal exponent beyond" in str(err.value)
    with pytest.raises(cio.SchemaError) as err:
        cio._fractions({"X": text}, "twist")
    assert err.value.field == "twist.X"



# ---------------------------------------------------------------------------
# Mutation fuzzer for the input boundary: one valid document of each kind the
# CLI reads (a system file, a branching file, a state file, --state text and
# --algebra text), changed at one place, must make every command that reads
# it exit 0, 1 or 2 without a traceback or a RuntimeWarning, and an exit 2
# must name a field that exists in the mutant, or the whole input.
# ---------------------------------------------------------------------------

FUZZ_ENTRIES = ["toric-1Y", "repS3-1Y", "repS3-1X"]
FUZZ_STATES = {"toric-1Y": "1/2,0,0,1/2", "repS3-1Y": "1/3,1/3,1/3", "repS3-1X": "0,1/2,1/2"}
FUZZ_ALGEBRAS = {"toric-1Y": "1,1,0,0", "repS3-1Y": "1,0,1", "repS3-1X": "1,1,0"}


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
# Messages about the input as a whole, and those of one command.
WHOLE_INPUT = ("invalid JSON", "not UTF-8 text", "document is neither", "expected an object")
COMMAND_REFUSALS = {
    "duality": ("duality inputs must be branching files",),
}


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


def _names_a_field(err: str, doc, refusals=()) -> bool:
    assert err.startswith("error: ")
    message = err[len("error: "):].rstrip("\n")
    if message.startswith(WHOLE_INPUT + refusals) or "does not contain branching data" in message:
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


def _system_case(entry_id, path=(), value=None):
    doc = cio.system_to_dict(ac.entry(entry_id).branching.source)
    doc = _mutate(doc, path, "replace", value) if path else doc
    return "system", entry_id, doc, json.dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(_file_mutants())
@example(_system_case("toric-1Y"))  # not branching data: duality refuses it
@example(_system_case("repS3-1Y", ("dims", 2), 0.5))  # enumerate refuses non-integer dims
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
                ["duality", "--a", path, "--b", path, "--trials", "3"],
                ["enumerate", "--source", path, "--algebra", FUZZ_ALGEBRAS[entry_id]],
            ]
        for argv in runs:
            code, out, err = run_clean(*argv)
            if code == 2:
                refusals = COMMAND_REFUSALS.get(argv[0], ())
                assert out == "" and _names_a_field(err, mutant, refusals), (argv, err)


@settings(max_examples=60, deadline=None)
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


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FUZZ_ENTRIES),
    st.sampled_from(["replace", "drop", "add"]),
    st.integers(0, 3),
    TEXT_MUTANTS,
)
def test_mutated_algebra_text_is_rejected_at_the_boundary(entry_id, how, at, value):
    entries = FUZZ_ALGEBRAS[entry_id].split(",")
    at %= len(entries)
    if how == "drop":
        del entries[at]
    else:
        entries[at : at + (how == "replace")] = [value]
    text = ",".join(entries)
    code, out, err = run_clean("enumerate", "--catalog", entry_id, f"--algebra={text}")
    if code == 2:
        assert out == ""
        assert err.startswith(("error: --algebra[", "error: one coefficient per source sector")), err
        index = re.search(r"--algebra\[(\d+)\]", err)
        assert index is None or int(index.group(1)) < len(entries)


# --- the indented writer against json.dumps(indent=2) -------------------------

AWKWARD_TEXT = ["", "plain", 'quote " and \\ back', "line\nbreak\r\t", "\x00\x1f\x7f", "é ñ 日本 🙂",
                "\ud800", "[{,:}]", '"},\n  {']
AWKWARD_NUMBERS = [0, -0.0, 2**63, -(2**64) - 1, 10**40, math.nan, math.inf, -math.inf, 1e300,
                   5e-324, True, False, None, np.float64(0.1), np.float64(-0.0), np.float64("nan")]
_texts = st.text(max_size=6) | st.sampled_from(AWKWARD_TEXT)
_keys = _texts | st.integers(-3, 3) | st.floats(allow_nan=False, width=16) | st.booleans() | st.none()
_scalars = (
    st.sampled_from(AWKWARD_NUMBERS)
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.floats().map(np.float64)
    | _texts
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_keys, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_values, st.integers(0, 3))
def test_dumps_indented_is_json_dumps_with_indent(value, depth):
    want = json.dumps(value, indent=2)
    assert cio.dumps_indented(value) == want
    assert cio.dumps_indented(value, depth) == want.replace("\n", "\n" + "  " * depth)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[[]]], {"b": {"c": {}}}],
    {"x": [1, [], {"y": []}], "": {}}, [[[[[[]]]]]], ["", []], {1: [], None: {}, 2.5: [1]},
])
def test_dumps_indented_keeps_empty_containers_at_every_depth(value):
    assert cio.dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    np.int64(1), [np.int64(1)], {1, 2}, [{1}], {"a": [set()]}, {(1, 2): 0}, {"a": {(1,): [0]}},
    {"a": [1], (2,): [3]}, object(), [1, [2, object()]],
])
def test_dumps_indented_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cio.dumps_indented(value)


def _json_commands(tmp_path):
    path = tmp_path / "z256.json"
    cio.save(ac.entry("z256-full").branching, path)
    broken = cio.branching_to_dict(ac.entry("toric-1Y").branching)
    broken["n"][1] = [1, 1]  # breaks the weighted row sum for sector Y
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken))
    system_path = tmp_path / "system.json"
    cio.save(rep_s3_system(), system_path)
    return [
        ["validate", "--catalog", "toric-1Y", "--catalog", "repS3-1Y", str(path), str(system_path)],
        ["validate", str(broken_path)],
        ["condense", "--catalog", "repS3-1X", "--state", "1/2,1/4,1/4"],
        ["entropy", "--catalog", "toric-1Y", "--state", "0.1,0.2,0.3,0.4"],
        ["--bits", "entropy", "--branching", str(path), "--state", ",".join(["1/256"] * 256)],
        ["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z"],
        ["duality", "--catalog-a", "z6-full", "--catalog-b", "z6-full", "--trials", "3"],
        ["catalog", "list"],
        ["catalog", "show", "repS3-lagrangian"],
        ["entropy", "--branching", str(broken_path), "--state", "1,0,0,0"],
    ]


def test_every_json_report_is_the_bytes_of_json_dumps_indent(tmp_path, monkeypatch, capsys):
    def stdlib_emit_json(payload, args):
        with cli._output(args) as out:
            out.write(json.dumps(payload, indent=2) + "\n")

    for k, argv in enumerate(_json_commands(tmp_path)):
        changed, stdlib = tmp_path / f"changed{k}.json", tmp_path / f"stdlib{k}.json"
        code = main(["--output", str(changed), *argv])
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_emit_json", stdlib_emit_json)
            assert main(["--output", str(stdlib), *argv]) == code, argv
        assert changed.read_bytes() == stdlib.read_bytes(), argv
    assert "branching data is not condensable" in changed.read_text()
    assert capsys.readouterr().out == ""
