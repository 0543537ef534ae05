"""Anyon system construction and validation."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond import io as cio
from anycond.catalog import rep_s3_system, toric_system, zn_full, zn_system


def test_toric_system_is_valid():
    report = ac.validate_system(toric_system())
    assert report.ok
    assert report.violations == ()


def test_rep_s3_system_is_valid():
    assert ac.validate_system(rep_s3_system()).ok


def test_vacuum_dimension_must_be_one():
    bad = ac.AnyonSystem(("1", "a"), (2.0, 1.0), "1")
    report = ac.validate_system(bad)
    assert not report.ok
    assert any(v.rule == "vacuum-dim" for v in report.violations)


def test_dims_below_one_are_flagged():
    bad = ac.AnyonSystem(("1", "a"), (1.0, 0.5), "1")
    rules = {v.rule for v in ac.validate_system(bad).violations}
    assert "dim-range" in rules


def test_dual_must_be_involutive_and_preserve_dims():
    bad = ac.AnyonSystem(
        ("1", "a", "b"),
        (1.0, 1.0, 2.0),
        "1",
        dual={"1": "1", "a": "b", "b": "a"},
    )
    rules = {v.rule for v in ac.validate_system(bad).violations}
    assert "dual-dim" in rules

    non_involutive = ac.AnyonSystem(
        ("1", "a", "b"),
        (1.0, 1.0, 1.0),
        "1",
        dual={"1": "1", "a": "b", "b": "b"},
    )
    rules = {v.rule for v in ac.validate_system(non_involutive).violations}
    assert "dual-involution" in rules


def test_dual_must_fix_vacuum():
    bad = ac.AnyonSystem(("1", "a"), (1.0, 1.0), "1", dual={"1": "a", "a": "1"})
    rules = {v.rule for v in ac.validate_system(bad).violations}
    assert "dual-vacuum" in rules


def test_twist_of_vacuum_must_be_trivial():
    from fractions import Fraction

    bad = ac.AnyonSystem(("1", "a"), (1.0, 1.0), "1", twist={"1": Fraction(1, 2)})
    rules = {v.rule for v in ac.validate_system(bad).violations}
    assert "twist-vacuum" in rules


def test_twists_are_reduced_mod_full_turns():
    from fractions import Fraction

    sys_ = ac.AnyonSystem(("1", "a"), (1.0, 1.0), "1", twist={"1": Fraction(3), "a": Fraction(5, 2)})
    assert sys_.twist["1"] == 0
    assert sys_.twist["a"] == Fraction(1, 2)
    assert ac.validate_system(sys_).ok
    raw = {"1": 0, "a": Fraction(1, 3), "b": Fraction(-1, 3), "c": 2, "d": "7/4", "e": -1}
    sys_ = ac.AnyonSystem(tuple(raw), (1.0,) * 6, "1", twist=raw)
    assert sys_.twist == {"1": 0, "a": Fraction(1, 3), "b": Fraction(2, 3), "c": 0, "d": Fraction(3, 4), "e": 0}
    assert all(type(t) is Fraction for t in sys_.twist.values())


def test_missing_optional_data_is_unchecked_not_passed():
    plain = ac.AnyonSystem(("1", "a"), (1.0, 1.0), "1")
    report = ac.validate_system(plain)
    assert "dual-structure" in report.unchecked
    assert "twist-structure" in report.unchecked


@pytest.mark.parametrize(
    "system,expected",
    [
        (toric_system(), 4.0),
        (rep_s3_system(), 6.0),
        (ac.AnyonSystem(("1",), (1.0,), "1"), 1.0),
    ],
)
def test_total_dim_sq(system, expected):
    assert ac.total_dim_sq(system) == pytest.approx(expected, abs=1e-12)


def test_construction_rejects_structural_nonsense():
    with pytest.raises(ValueError):
        ac.AnyonSystem(("1", "1"), (1.0, 1.0), "1")
    with pytest.raises(ValueError):
        ac.AnyonSystem(("1", "a"), (1.0,), "1")
    with pytest.raises(ValueError):
        ac.AnyonSystem(("1", "a"), (1.0, 1.0), "zz")
    with pytest.raises(ValueError):
        ac.AnyonSystem(("1", "a"), (1.0, 1.0), "1", dual={"1": "nope"})


def test_validation_is_deterministic_and_idempotent():
    bad = ac.AnyonSystem(("1", "a"), (2.0, 0.2), "1")
    first = ac.validate_system(bad)
    second = ac.validate_system(bad)
    assert first.violations == second.violations
    assert first.unchecked == second.unchecked


@given(
    dims=st.lists(
        st.floats(min_value=1.0, max_value=10.0, allow_nan=False), min_size=1, max_size=6
    )
)
def test_total_dim_sq_at_least_one(dims):
    dims = [1.0] + dims[1:]
    labels = tuple(f"s{i}" for i in range(len(dims)))
    system = ac.AnyonSystem(labels, tuple(dims), "s0")
    _check_table(system)
    total = ac.total_dim_sq(system)
    assert total >= 1.0 - 1e-12
    if len(dims) == 1:
        assert total == pytest.approx(1.0)
    else:
        assert total > 1.0


def test_zn_system_duals_pair_opposite_charges():
    z5 = zn_system(5)
    assert ac.validate_system(z5).ok
    assert z5.dual["2"] == "3"
    assert z5.dual["0"] == "0"


def test_dim_helpers():
    system = toric_system()
    assert system.index("X") == 2
    assert system.dim_of("Y") == 1.0
    assert np.array_equal(system.dim_array, np.ones(4))
    assert system.is_integral()


def test_index_of_an_unknown_label_names_it():
    system = toric_system()
    with pytest.raises(ValueError, match="'Q' is not a sector"):
        system.index("Q")
    with pytest.raises(ValueError, match="'Q' is not a sector"):
        system.dim_of("Q")
    with pytest.raises(ValueError, match="'Q' is not a sector"):
        ac.CondensableAlgebra.from_labels(system, {"Q": 1})
    assert [system.index(label) for label in system.labels] == [0, 1, 2, 3]
    assert system.vacuum_index == 0


def test_dim_too_large_for_a_float_is_a_value_error():
    # It used to escape as an OverflowError, unlike every other bad dim.
    with pytest.raises(ValueError, match="too large for a float"):
        ac.AnyonSystem(("1", "a"), (1, 10**400), "1")


# --- the sector table --------------------------------------------------------

TABLE = ("vacuum_index", "antiparticles", "twist_ratios", "twisted", "dim_array")


def _check_table(system):
    """Each table field against the plain attributes it is built from."""
    labels = list(system.labels)
    assert system.vacuum_index == labels.index(system.vacuum)
    if system.dual is None:
        assert system.antiparticles is None
    else:
        assert system.antiparticles == tuple(system.index(system.dual.get(a, a)) for a in labels)
    twist = system.twist or {}
    if system.twist is None:
        assert system.twist_ratios is None
    else:
        want = tuple(Fraction(twist.get(a, 0)).as_integer_ratio() for a in labels)
        assert system.twist_ratios == want
    assert system.twisted.tolist() == [twist.get(a, 0) != 0 for a in labels]
    assert system.twisted.dtype == bool
    assert system.dim_array.tolist() == list(system.dims)
    # Read-only: no field can be set or deleted, and the arrays refuse writes.
    for name in TABLE:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(system, name, getattr(system, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(system, name)
    for array in (system.twisted, system.dim_array):
        with pytest.raises(ValueError):
            array[0] = array[0]
    for column in (system.antiparticles, system.twist_ratios):
        assert column is None or type(column) is tuple
    # The table is no dataclass field: equality and repr see the fields alone.
    fields = [f.name for f in dataclasses.fields(system)]
    assert fields == ["labels", "dims", "vacuum", "dual", "twist"]
    twin = ac.AnyonSystem(tuple(labels), system.dims, system.vacuum, system.dual, system.twist)
    assert twin == system and repr(twin) == repr(system)
    assert not any(name in repr(system) for name in TABLE)


@pytest.mark.parametrize("entry_id", [e.id for e in ac.catalog()] + ["z7-full", "z12-trivial"])
def test_the_sector_table_of_every_catalog_system(entry_id):
    b = ac.entry(entry_id).branching
    for system in (b.source, b.condensed):
        _check_table(system)


@pytest.mark.parametrize("entry_id,seed", [("toric-1Y", 1), ("repS3-1X", 3), ("z7-full", 5)])
def test_the_sector_table_of_a_loaded_file(tmp_path, entry_id, seed):
    # Files as the benchmark writes them: non-vacuum source sectors reordered.
    for b in (ac.entry(entry_id).branching, zn_full(256)):
        src = b.source
        rest = [i for i in range(len(src)) if i != src.vacuum_index]
        random.Random(seed).shuffle(rest)
        order = [src.vacuum_index] + rest
        source = ac.AnyonSystem(
            tuple(src.labels[i] for i in order), tuple(src.dims[i] for i in order),
            src.vacuum, src.dual, src.twist,
        )
        path = tmp_path / "b.json"
        cio.save(ac.BranchingData(source, b.condensed, b.n[order]), path)
        loaded = cio.load(path)
        assert loaded.source == source
        for system in (loaded.source, loaded.condensed):
            _check_table(system)


@st.composite
def any_systems(draw):
    """Systems whose optional data need not be valid: a partial dual map,
    possibly not an involution, and a partial twist map of any rationals."""
    size = draw(st.integers(1, 6))
    labels = tuple(f"s{i}" for i in range(size))
    dims = tuple(draw(st.lists(st.floats(0.5, 10.0), min_size=size, max_size=size)))
    vacuum = draw(st.sampled_from(labels))
    some = st.lists(st.sampled_from(labels), unique=True)
    dual = draw(st.none() | some.flatmap(
        lambda keys: st.fixed_dictionaries({k: st.sampled_from(labels) for k in keys})
    ))
    turns = st.fractions(-3, 3, max_denominator=12)
    twist = draw(st.none() | some.flatmap(
        lambda keys: st.fixed_dictionaries({k: turns for k in keys})
    ))
    return ac.AnyonSystem(labels, dims, vacuum, dual, twist)


@settings(max_examples=150, deadline=None)
@given(any_systems())
def test_the_sector_table_of_any_system(system):
    _check_table(system)
