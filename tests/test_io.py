"""JSON schema: round trips and strict rejection of malformed documents."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond import io as cio
from anycond.catalog import rep_s3_system, toric_system
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
