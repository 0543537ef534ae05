"""Branching data: index, consistency equations, overlap matrix."""

import math

import numpy as np
import pytest

import anycond as ac
from anycond.catalog import rep_s3_system, toric_system, zn_full


def _vec_z2_plain():
    return ac.AnyonSystem(("phi", "X"), (1.0, 1.0), "phi")


@pytest.mark.parametrize(
    "entry_id,expected",
    [
        ("toric-1Y", 2.0),
        ("repS3-1X", 2.0),
        ("repS3-1Y", 3.0),
        ("repS3-lagrangian", 6.0),
        ("z2-full", 2.0),
        ("z3-full", 3.0),
    ],
)
def test_jones_index_values(entry_id, expected):
    assert ac.jones_index(ac.entry(entry_id).branching) == expected


def test_jones_index_zn_scales_with_n():
    for n in (2, 5, 9):
        assert ac.jones_index(zn_full(n)) == float(n)


def test_catalog_branchings_validate(catalog_entry):
    report = ac.validate_branching(catalog_entry.branching)
    assert report.ok, report.as_dict()
    assert report.metrics["index_residual"] <= 1e-12


def test_broken_lift_equation_is_reported():
    # Send Y to the non-vacuum condensed sector instead of the vacuum.
    bad = ac.BranchingData(
        toric_system(), _vec_z2_plain(), [[1, 0], [0, 1], [0, 1], [0, 1]]
    )
    report = ac.validate_branching(bad)
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert "dim-lift" in rules


def test_vacuum_row_must_hit_condensed_vacuum_alone():
    bad = ac.BranchingData(
        toric_system(), _vec_z2_plain(), [[1, 1], [1, 0], [0, 1], [0, 1]]
    )
    rules = {v.rule for v in ac.validate_branching(bad).violations}
    assert "vacuum-row" in rules


def test_empty_condensed_column_is_reported():
    source = ac.AnyonSystem(("1", "a"), (1.0, 1.0), "1")
    condensed = ac.AnyonSystem(("phi", "t"), (1.0, 1.0), "phi")
    bad = ac.BranchingData(source, condensed, [[1, 0], [1, 0]])
    rules = {v.rule for v in ac.validate_branching(bad).violations}
    assert "empty-column" in rules


def test_condensing_a_fermion_breaks_the_boson_condition():
    bad = ac.BranchingData(
        toric_system(), _vec_z2_plain(), [[1, 0], [0, 1], [1, 0], [0, 1]]
    )
    report = ac.validate_branching(bad)
    violated = {v.rule for v in report.violations}
    assert "boson-condition" in violated
    assert any("'X'" in v.detail for v in report.violations if v.rule == "boson-condition")


def test_boson_condition_unchecked_without_twists():
    source = ac.AnyonSystem(("1", "Y", "X", "Z"), (1.0,) * 4, "1")
    b = ac.BranchingData(source, _vec_z2_plain(), [[1, 0], [1, 0], [0, 1], [0, 1]])
    report = ac.validate_branching(b)
    assert report.ok
    assert "boson-condition" in report.unchecked
    assert "dual-symmetry" in report.unchecked


def test_dual_symmetry_violation_detected():
    source = ac.AnyonSystem(
        ("1", "a", "b"),
        (1.0, 1.0, 1.0),
        "1",
        dual={"1": "1", "a": "b", "b": "a"},
    )
    condensed = ac.AnyonSystem(
        ("phi", "t"), (1.0, 1.0), "phi", dual={"phi": "phi", "t": "t"}
    )
    # a condenses but its antiparticle b does not: n is not dual-symmetric.
    bad = ac.BranchingData(source, condensed, [[1, 0], [1, 0], [0, 1]])
    rules = {v.rule for v in ac.validate_branching(bad).violations}
    assert "dual-symmetry" in rules


def test_overlap_matrix_zn_is_all_ones():
    for n in (2, 3, 4):
        assert np.array_equal(ac.overlap_matrix(zn_full(n)), np.ones((n, n), dtype=int))


def test_overlap_matrix_toric_block_structure(toric_1y):
    m = ac.overlap_matrix(toric_1y)
    block = np.ones((2, 2), dtype=int)
    want = np.zeros((4, 4), dtype=int)
    want[:2, :2] = block  # sectors 1, Y share the vacuum channel
    want[2:, 2:] = block  # sectors X, Z share the other channel
    assert np.array_equal(m, want)


def test_overlap_matrix_trivial_condensation_is_identity():
    b = ac.trivial_condensation(rep_s3_system())
    assert np.array_equal(ac.overlap_matrix(b), np.eye(3, dtype=int))


def test_overlap_matrix_symmetric_psd(catalog_entry):
    m = ac.overlap_matrix(catalog_entry.branching).astype(float)
    assert np.array_equal(m, m.T)
    assert np.linalg.eigvalsh(m).min() >= -1e-12


@pytest.mark.parametrize(
    "entry_id,expected",
    [
        ("repS3-lagrangian", True),
        ("toric-1Y", False),
        ("z2-full", True),
        ("z3-full", True),
        ("repS3-1Y", False),
        ("toric-trivial", False),
    ],
)
def test_is_lagrangian(entry_id, expected):
    assert ac.is_lagrangian(ac.entry(entry_id).branching) is expected


def test_branching_constructor_rejects_bad_matrices():
    source = toric_system()
    condensed = _vec_z2_plain()
    with pytest.raises(ValueError):
        ac.BranchingData(source, condensed, [[1, 0], [1, 0], [0, 1]])  # wrong shape
    with pytest.raises(ValueError):
        ac.BranchingData(source, condensed, [[1, 0], [1, 0], [0, 1], [0, -1]])
    with pytest.raises(ValueError):
        ac.BranchingData(source, condensed, [[1, 0], [1, 0], [0, 1], [0, 1.5]])


def _writable_bases(n):
    while isinstance(n, np.ndarray):
        yield n.flags.writeable
        n = n.base


def test_branching_copies_a_matrix_it_could_be_written_through():
    source, condensed = toric_system(), _vec_z2_plain()
    rows = [[1, 0], [1, 0], [0, 1], [0, 1]]
    writable, base, frozen = (np.array(rows, dtype=np.int64) for _ in range(3))
    view = base[:]
    view.setflags(write=False)
    frozen.setflags(write=False)
    given = (writable, view, frozen.astype(np.int32))
    kept = [ac.BranchingData(source, condensed, m).n for m in given]
    writable[0, 0] = base[0, 0] = 7
    for n in kept:
        assert n.dtype == np.int64 and not any(_writable_bases(n))
        assert n.tolist() == rows
    # Only an int64 matrix that no array under it lets anyone write is kept.
    assert ac.BranchingData(source, condensed, frozen).n is frozen
    assert ac.BranchingData(source, condensed, frozen[::-1]).n.base is frozen


def test_condensable_algebra_invariants():
    source = toric_system()
    with pytest.raises(ValueError):
        ac.CondensableAlgebra(source, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        ac.CondensableAlgebra(source, (1, -1, 0, 0))
    algebra = ac.CondensableAlgebra.from_labels(source, {"1": 1, "Y": 1})
    assert algebra.coefficients == (1, 1, 0, 0)


def test_condensable_algebra_view_of_branching(rep_s3_1x):
    algebra = ac.condensable_algebra(rep_s3_1x)
    assert algebra.coefficients == (1, 1, 0)
    assert algebra.system == rep_s3_1x.source


def test_weighted_sums_hold_exactly_for_integer_catalogs(catalog_entry):
    b = catalog_entry.branching
    lam = ac.jones_index(b)
    assert np.allclose(b.n @ b.condensed_dims, b.source_dims, atol=1e-12)
    assert np.allclose(b.n.T @ b.source_dims, lam * b.condensed_dims, atol=1e-12)


@pytest.mark.parametrize(
    "entry",
    [10**30, 2**63, float(2**63), np.uint64(2**63)],
    ids=["object", "int", "float", "uint64"],
)
def test_coefficient_no_int64_holds_is_a_value_error(entry):
    # 10**30 made an object array that np.rint rejected with a TypeError;
    # 2**63 wrapped negative in the int64 cast, with a RuntimeWarning, and
    # was reported as a negative coefficient.
    b = ac.entry("toric-1Y").branching
    rows = [[1, 0], [entry, 0], [0, 1], [0, 1]]
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        ac.BranchingData(b.source, b.condensed, rows)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_validators_refuse_a_tolerance_that_is_not_finite_and_positive(tol):
    b = ac.entry("toric-1Y").branching
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        ac.validate_branching(b, tol)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        ac.validate_system(b.source, tol)
