"""Built-in catalog: entries validate and reproduce their reference values."""

import dataclasses
import importlib
import math
import time

import pytest

import anycond as ac

REQUIRED_IDS = {
    "z2-full",
    "z3-full",
    "toric-1Y",
    "toric-1Z",
    "repS3-1X",
    "repS3-1Y",
    "repS3-lagrangian",
    "z2-trivial",
    "z3-trivial",
    "toric-trivial",
    "repS3-trivial",
}


def test_required_entries_present():
    ids = {e.id for e in ac.catalog()}
    assert REQUIRED_IDS <= ids


def test_every_entry_validates(catalog_entry):
    assert ac.validate_branching(catalog_entry.branching).ok


def test_golden_values_reproduce(catalog_entry):
    b = catalog_entry.branching
    for golden in catalog_entry.expected:
        got = ac.order_parameter(b, golden.state(b.source)).order_parameter
        assert got == pytest.approx(golden.value(), abs=1e-12), (
            catalog_entry.id,
            golden.probs,
        )


def test_toric_entry_matches_known_branching():
    b = ac.entry("toric-1Y").branching
    assert b.n.tolist() == [[1, 0], [1, 0], [0, 1], [0, 1]]
    assert b.source.labels == ("1", "Y", "X", "Z")


def test_lagrangian_entry_has_doubled_coefficient():
    b = ac.entry("repS3-lagrangian").branching
    assert b.n.tolist() == [[1], [1], [2]]


def test_zn_entries_are_parameterised():
    z5 = ac.entry("z5-full")
    assert ac.jones_index(z5.branching) == 5.0
    assert ac.validate_branching(z5.branching).ok
    z7t = ac.entry("z7-trivial")
    assert ac.jones_index(z7t.branching) == 1.0


def test_z2_full_reproduces_reference_triple():
    b = ac.entry("z2-full").branching
    table = [
        ([0.5, 0.5], 0.0),
        ([1.0, 0.0], math.log(2.0)),
        ([0.0, 1.0], math.log(2.0)),
    ]
    for probs, want in table:
        got = ac.order_parameter(b, ac.SectorState(b.source, probs)).order_parameter
        assert got == pytest.approx(want, abs=1e-12)


def test_unknown_entry_raises():
    with pytest.raises(KeyError):
        ac.entry("nope")
    with pytest.raises(KeyError):
        ac.entry("z1-full")


def test_unknown_entry_lists_every_known_id():
    with pytest.raises(KeyError) as info:
        ac.entry("nope")
    known = ", ".join(e.id for e in ac.catalog())
    assert info.value.args[0] == f"unknown catalog entry 'nope'; known: {known}"


def test_zn_ids_are_bounded_by_the_cap():
    from anycond.catalog import ZN_CAP

    assert ac.entry(f"z{ZN_CAP}-full").branching.n.shape == (ZN_CAP, 1)
    assert ac.entry(f"z000{ZN_CAP}-full").id == f"z{ZN_CAP}-full"
    assert ac.entry("z007-full").id == "z7-full"
    assert ac.entry("z007-trivial").id == "z7-trivial"
    assert ac.entry("z03-full") is ac.entry("z3-full")
    for entry_id in (f"z{ZN_CAP + 1}-full", "z10000000-full", "z" + "9" * 5000 + "-trivial"):
        start = time.perf_counter()
        with pytest.raises(KeyError, match=f"N exceeds the cap of {ZN_CAP}"):
            ac.entry(entry_id)
        assert time.perf_counter() - start < 0.5


def test_zn_system_needs_at_least_one_sector():
    from anycond.catalog import zn_system

    with pytest.raises(ValueError, match="^n must be positive$"):
        zn_system(0)


def test_entry_equals_the_catalog_item():
    for item in ac.catalog():
        assert ac.entry(item.id) == item


def test_entry_builds_only_the_requested_entry(monkeypatch):
    # ``anycond.catalog`` is the function; the module is looked up by name.
    cat = importlib.import_module("anycond.catalog")

    def not_asked_for(*args):
        raise AssertionError("entry built another catalog entry")

    for name in ("toric_1z", "rep_s3_1x", "rep_s3_1y", "rep_s3_lagrangian", "trivial_condensation"):
        monkeypatch.setattr(cat, name, not_asked_for)
    cat._shared_entry.cache_clear()  # so that the entries below are built here
    assert ac.entry("toric-1Y").id == "toric-1Y"
    assert ac.entry("z3-full").id == "z3-full"
    assert ac.entry("z256-full").branching.n.shape == (256, 1)


def test_catalog_is_stable():
    first = [e.id for e in ac.catalog()]
    second = [e.id for e in ac.catalog()]
    assert first == second


def test_trivial_condensation_factory():
    from anycond.catalog import rep_s3_system

    b = ac.trivial_condensation(rep_s3_system())
    assert ac.jones_index(b) == 1.0
    assert ac.validate_branching(b).ok


SHARED_IDS = sorted(REQUIRED_IDS) + ["z5-full", "z9-trivial", "z007-trivial"]


@pytest.mark.parametrize("entry_id", SHARED_IDS)
def test_entry_is_built_once_and_shared(entry_id):
    assert ac.entry(entry_id) is ac.entry(entry_id)
    by_id = {item.id: item for item in ac.catalog()}
    if entry_id in by_id:
        assert by_id[entry_id] is ac.entry(entry_id)


@pytest.mark.parametrize("entry_id", SHARED_IDS)
def test_shared_entry_cannot_be_changed(entry_id):
    b = ac.entry(entry_id).branching
    for system in (b.source, b.condensed):
        with pytest.raises(TypeError):
            system.dual[system.vacuum] = system.labels[-1]
        with pytest.raises(TypeError):
            system.twist[system.vacuum] = 1
        with pytest.raises(ValueError):
            system.twisted[0] = True
    with pytest.raises(ValueError):
        b.n[0, 0] = 2
    with pytest.raises(TypeError):
        ac.validate_branching(b).metrics["jones_index"] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ac.entry(entry_id).expected = ()


def test_the_entry_cache_is_bounded():
    from anycond.catalog import ENTRY_CACHE_SIZE

    cat = importlib.import_module("anycond.catalog")
    assert cat._shared_entry.cache_info().maxsize == ENTRY_CACHE_SIZE
    for n in range(2, ENTRY_CACHE_SIZE + 10):
        ac.entry(f"z{n}-full")
    assert cat._shared_entry.cache_info().currsize == ENTRY_CACHE_SIZE
