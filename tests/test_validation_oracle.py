"""Differential oracle for the validators, and a guard on their input work.

``reference_validation`` states every rule with ``labels.index`` lookups and
entry-by-entry reads of ``n``; the package's validators read labels through
one label → position map.  Their reports must agree exactly: the same
violations with the same text in the same order, the same ``unchecked``
names and the same metrics.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond import cli, io as cio, systems
from anycond.catalog import zn_full
from anycond.channels import NotCondensableError, condensation

import reference_validation as ref

CATALOG_IDS = [e.id for e in ac.catalog()]


def _assert_same_report(got, want):
    assert got.violations == want.violations
    assert got.unchecked == want.unchecked
    # repr, so that a NaN metric compares equal to itself
    assert repr(dict(got.metrics)) == repr(dict(want.metrics))


def _assert_agree(b, tol=1e-9):
    _assert_same_report(ac.validate_branching(b, tol), ref.validate_branching(b, tol))
    for system in (b.source, b.condensed):
        _assert_same_report(ac.validate_system(system, tol), ref.validate_system(system, tol))


def _reordered(b, seed):
    src = b.source
    rest = [i for i in range(len(src)) if i != src.vacuum_index]
    random.Random(seed).shuffle(rest)
    order = [src.vacuum_index] + rest
    source = ac.AnyonSystem(
        tuple(src.labels[i] for i in order),
        tuple(src.dims[i] for i in order),
        src.vacuum,
        src.dual,
        src.twist,
    )
    return ac.BranchingData(source, b.condensed, b.n[order])


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_validators_agree_on_the_catalog(entry_id):
    _assert_agree(ac.entry(entry_id).branching)


def test_validators_agree_on_a_reordered_z256_full():
    b = _reordered(zn_full(256), seed=3)
    assert ac.validate_branching(b).ok
    _assert_agree(b)


def test_validators_agree_on_a_reordered_z256_full_with_broken_data():
    b = _reordered(zn_full(256), seed=4)
    s = b.source
    dual = dict(s.dual, **{"5": "7"})  # not an involution, and dims then differ
    twist = dict(s.twist, **{"9": Fraction(1, 2), "0": Fraction(1, 3)})
    dims = tuple(1.5 if label == "7" else d for label, d in zip(s.labels, s.dims))
    source = ac.AnyonSystem(s.labels, dims, s.vacuum, dual, twist)
    broken = ac.BranchingData(source, b.condensed, b.n)
    assert not ac.validate_branching(broken).ok
    _assert_agree(broken)


DIMS = st.sampled_from([1.0, 1.0, 1.0, 2.0, 3.0, 0.5, 1.0 + 1e-7, math.sqrt(2), math.inf])
TWISTS = st.sampled_from(
    [0, 0, Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4), 1, 2, -1, "7/3", "1/2", 0.25]
)


@st.composite
def _systems(draw, max_size):
    k = draw(st.integers(1, max_size))
    labels = draw(
        st.lists(
            st.sampled_from(["", "1", "a", "b", "c", "X", "Y", "Z", "é"]),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    dims = draw(st.lists(DIMS, min_size=k, max_size=k))
    vacuum = draw(st.sampled_from(labels))
    dual_kind = draw(st.sampled_from(["none", "identity", "involution", "random", "partial"]))
    dual = None
    if dual_kind == "identity":
        dual = {a: a for a in labels}
    elif dual_kind == "involution":
        order = draw(st.permutations(labels))
        dual = {a: a for a in labels}
        for a, b in zip(order[::2], order[1::2]):
            dual[a], dual[b] = b, a
    elif dual_kind in ("random", "partial"):
        keys = labels if dual_kind == "random" else draw(st.lists(st.sampled_from(labels), unique=True))
        dual = {a: draw(st.sampled_from(labels)) for a in keys}
    twist = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(labels), unique=True))
        twist = {a: draw(TWISTS) for a in keys}
    return ac.AnyonSystem(tuple(labels), tuple(dims), vacuum, dual, twist), twist


@st.composite
def _branchings(draw):
    source, raw_twist = draw(_systems(6))
    condensed, _ = draw(_systems(4))
    n = [
        draw(st.lists(st.integers(0, 2), min_size=len(condensed), max_size=len(condensed)))
        for _ in source.labels
    ]
    return ac.BranchingData(source, condensed, n), raw_twist


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf dims
@settings(max_examples=150, deadline=None)
@given(_branchings(), st.sampled_from([1e-9, 1e-6]))
def test_validators_agree_on_broken_branchings(case, tol):
    b, raw_twist = case
    if raw_twist is not None:
        assert b.source.twist == {a: Fraction(v) % 1 for a, v in raw_twist.items()}
        assert all(type(t) is Fraction for t in b.source.twist.values())
    _assert_agree(b, tol)


def _fractions_built(monkeypatch, run) -> int:
    built = 0

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return super().__new__(cls, *args, **kwargs)

    for module in (systems, cio):
        monkeypatch.setattr(module, "Fraction", Counted)
    run()
    return built


@pytest.mark.parametrize("n", [8, 512])
def test_loading_and_validating_builds_a_fixed_number_of_fractions(monkeypatch, tmp_path, capsys, n):
    path = tmp_path / "full.json"
    cio.save(_reordered(zn_full(n), seed=1), path)
    state = ",".join([f"1/{n}"] * n)

    def run():
        b = cio.load(path)
        assert ac.validate_branching(b).ok
        assert ac.validate_system(b.source).ok
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["entropy", "--branching", str(path), "--state", state]) == 0

    # The one twist string "0" of the source and of the condensed system in
    # each of the three loads, and the one distinct state entry.
    assert _fractions_built(monkeypatch, run) == 7
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf dims
@settings(max_examples=150, deadline=None)
@given(_branchings(), st.sampled_from([1e-9, 1e-6]))
def test_validation_accepts_only_what_compiles(case, tol):
    # The dimension constraints are checked at min(tol, 1e-9), so the report
    # lists exactly the violations compiling raises, and an ok report means
    # the branching compiles.  The other rules may still fail a branching
    # that compiles, such as a condensed sector that is not a boson.
    b, _ = case
    report = ac.validate_branching(b, tol)
    dims = tuple(v for v in report.violations if v.rule in ("dim-restriction", "dim-lift"))
    try:
        condensation(b)
    except NotCondensableError as exc:
        assert exc.violations == dims
        assert not report.ok
    else:
        assert dims == ()
