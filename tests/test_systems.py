"""Anyon system construction and validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anycond as ac
from anycond.catalog import rep_s3_system, toric_system, zn_system


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
