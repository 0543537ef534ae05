"""Enumeration of branchings, checked against the brute-force oracle and
the labelled search it replaced."""

import json
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond import io as cio
from anycond import search
from anycond.catalog import rep_s3_system, toric_system

from conftest import run_clean
from bruteforce_enumerator import brute_force_branchings, canonical_key
from labelled_enumerator import _dim_multisets as labelled_dim_multisets, labelled_branchings


def _solver_keys(branchings):
    return {
        canonical_key(
            [list(map(int, row)) for row in b.n],
            [int(round(d)) for d in b.condensed.dims],
            b.vacuum_column_index,
        )
        for b in branchings
    }


def test_toric_matches_oracle():
    source = toric_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 0, 0))
    got = ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2)
    oracle = brute_force_branchings([1, 1, 1, 1], 0, (1, 1, 0, 0), 4, 2)
    assert _solver_keys(got) == oracle
    assert len(got) == len(oracle)


def test_rep_s3_matches_oracle():
    source = rep_s3_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 0))
    got = ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2)
    oracle = brute_force_branchings([1, 1, 2], 0, (1, 1, 0), 4, 2)
    assert _solver_keys(got) == oracle


def test_toric_search_finds_the_known_pattern(toric_1y):
    source = toric_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 0, 0))
    got = ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2)
    assert len(got) == 1
    found = got[0]
    assert np.array_equal(found.n, toric_1y.n)
    assert tuple(found.condensed.dims) == (1.0, 1.0)


def test_rep_s3_search_finds_three_dim_one_sectors(rep_s3_1x):
    source = rep_s3_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 0))
    got = ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2)
    assert len(got) == 1
    assert tuple(got[0].condensed.dims) == (1.0, 1.0, 1.0)
    assert np.array_equal(got[0].n, rep_s3_1x.n)


def test_vacuum_only_column_contains_trivial_solution():
    source = toric_system()
    algebra = ac.CondensableAlgebra(source, (1, 0, 0, 0))
    got = ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2)
    # Condensed labels are gauge: the identity shows up as a permutation matrix.
    permutation_found = any(
        b.n.shape == (4, 4)
        and b.n.sum() == 4
        and np.array_equal(b.n @ b.n.T, np.eye(4, dtype=int))
        and sorted(b.condensed.dims) == sorted(source.dims)
        for b in got
    )
    assert permutation_found


def test_every_result_validates():
    source = rep_s3_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 0))
    for b in ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2):
        assert ac.validate_branching(b).ok


def test_lagrangian_column_gives_single_sector():
    source = rep_s3_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 2))
    got = ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2)
    assert len(got) == 1
    assert len(got[0].condensed) == 1
    assert ac.is_lagrangian(got[0])


def test_rejects_non_integer_dims():
    source = ac.AnyonSystem(("1", "s"), (1.0, 2.0 ** 0.5), "1")
    algebra = ac.CondensableAlgebra(source, (1, 0))
    with pytest.raises(search.NonIntegerDimsError, match="integer dims") as err:
        ac.enumerate_branchings(source, algebra, 2, 2)
    assert isinstance(err.value, ValueError)


def test_rejects_algebra_over_other_system():
    algebra = ac.CondensableAlgebra(toric_system(), (1, 1, 0, 0))
    with pytest.raises(ValueError):
        ac.enumerate_branchings(rep_s3_system(), algebra, 4, 2)


def test_rejects_silly_bounds():
    source = toric_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 0, 0))
    with pytest.raises(ValueError) as err:
        ac.enumerate_branchings(source, algebra, 0, 2)
    assert not isinstance(err.value, search.NonIntegerDimsError)


@pytest.mark.parametrize("budget", [0, 1, 2, 3, 4, 5, 8, 9, 13, 25, 30])
def test_dim_multisets_are_bounded_by_the_budget(budget):
    # The labelled search's walk over every dim up to max_dim is the oracle.
    want = labelled_dim_multisets(budget, 4, budget + 1)
    assert search._dim_multisets(budget, 4, isqrt(budget)) == want
    assert search._dim_multisets(budget, 4, 10**6) == want
    if budget <= 8:
        got = search._dim_multisets(budget, 10**6, 10**6)
        assert got == labelled_dim_multisets(budget, budget + 1, budget + 1)


def combination_dim_multisets(budget, max_len, max_dim):
    """The walk over every combination of dims up to isqrt(budget) that the
    depth-first walk replaced, kept as its oracle."""
    out = []
    dims = range(1, min(max_dim, isqrt(budget)) + 1)
    for length in range(0, min(max_len, budget) + 1):
        for combo in combinations_with_replacement(dims, length):
            if sum(d * d for d in combo) == budget:
                out.append(combo)
    return out


@pytest.mark.parametrize("max_dim", [1, 2, 3, 10])
def test_dim_multisets_match_the_combination_walk(max_dim):
    for budget in range(60):
        for max_len in range(8):
            want = combination_dim_multisets(budget, max_len, max_dim)
            assert search._dim_multisets(budget, max_len, max_dim) == want


def test_dim_multisets_cost_follows_the_output():
    # About 3 * 10**7 multisets of up to 20 dims in 1..10; 409 of them
    # square-sum to 100.
    start = time.perf_counter()
    got = search._dim_multisets(100, 20, 10)
    assert time.perf_counter() - start < 1.0
    assert len(got) == 409 and got == sorted(got, key=lambda dims: (len(dims), dims))
    assert all(sum(d * d for d in dims) == 100 for dims in got)
    # 1,023 unit dims: one multiset, deeper than the interpreter's recursion limit.
    assert search._dim_multisets(1023, 2000, 1) == [(1,) * 1023]


@pytest.mark.parametrize("dims", [(), (1,), (2,), (1, 1), (1, 2), (3, 1, 2), (2, 2, 1, 4)])
def test_row_solutions_match_a_product_filter(dims):
    for target in range(-2, 12):
        want = [v for v in product(*(range(target // d + 1) for d in dims))
                if sum(x * d for x, d in zip(v, dims)) == target] if target >= 0 else []
        assert search._row_solutions(target, dims) == want


def test_row_solutions_do_not_recurse():
    # 1,100 dims: deeper than the interpreter's default recursion limit.
    unit = [tuple(int(i == j) for i in range(1100)) for j in range(1100)]
    assert search._row_solutions(1, (1,) * 1100) == sorted(unit)


def test_search_depth_does_not_grow_with_the_condensed_sectors():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    source, algebra = _plain(300, {0})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        got = ac.enumerate_branchings(source, algebra, max_sectors=300, max_dim=1)
    finally:
        sys.setrecursionlimit(limit)
    assert len(got) == 1
    assert np.array_equal(got[0].n, np.eye(300, dtype=np.int64)[:, [0, *range(299, 0, -1)]])


def test_deterministic_output():
    source = rep_s3_system()
    algebra = ac.CondensableAlgebra(source, (1, 1, 0))
    first = ac.enumerate_branchings(source, algebra, 4, 2)
    second = ac.enumerate_branchings(source, algebra, 4, 2)
    assert [b.n.tolist() for b in first] == [b.n.tolist() for b in second]


def test_invariant_under_source_relabelling():
    # Same toric data with the non-vacuum rows listed in a different order.
    source = toric_system()
    perm = [0, 2, 3, 1]  # (1, X, Z, Y)
    relabelled = ac.AnyonSystem(
        tuple(source.labels[i] for i in perm),
        tuple(source.dims[i] for i in perm),
        "1",
        dual={source.labels[i]: source.labels[i] for i in perm},
        twist={source.labels[i]: source.twist[source.labels[i]] for i in perm},
    )
    algebra = ac.CondensableAlgebra.from_labels(source, {"1": 1, "Y": 1})
    algebra_p = ac.CondensableAlgebra.from_labels(relabelled, {"1": 1, "Y": 1})

    plain = ac.enumerate_branchings(source, algebra, 4, 2)
    permuted = ac.enumerate_branchings(relabelled, algebra_p, 4, 2)
    assert len(plain) == len(permuted)

    # Mapping the permuted rows back to the original label order must give
    # the same canonical solution set.
    def keys_in_original_order(branchings, system):
        out = set()
        for b in branchings:
            rows = [list(map(int, b.n[system.index(label)])) for label in source.labels]
            out.add(
                canonical_key(rows, [int(round(d)) for d in b.condensed.dims], b.vacuum_column_index)
            )
        return out

    assert keys_in_original_order(plain, source) == keys_in_original_order(permuted, relabelled)


# --- orderly search against the labelled search ------------------------------


def _assert_same_as_labelled(source, algebra, max_sectors, max_dim, tol=1e-9):
    got = ac.enumerate_branchings(source, algebra, max_sectors, max_dim, tol)
    want = labelled_branchings(source, algebra, max_sectors, max_dim, tol)
    assert [cio.branching_to_dict(b) for b in got] == [cio.branching_to_dict(b) for b in want]
    for b in got:
        assert ac.validate_branching(b, tol).ok
    return got


def _algebras(source):
    """Every vacuum column with 0 <= c_a <= d_a; the vacuum enters once."""
    ranges = [
        (1,) if i == source.vacuum_index else range(int(d) + 1)
        for i, d in enumerate(source.dims)
    ]
    return [ac.CondensableAlgebra(source, c) for c in product(*ranges)]


def _bosonic(algebra):
    twist = algebra.system.twist
    return all(
        c == 0 or twist[a] == 0 for a, c in zip(algebra.system.labels, algebra.coefficients)
    )


@pytest.mark.parametrize("make", [toric_system, rep_s3_system], ids=["toric", "repS3"])
@pytest.mark.parametrize("bounds", [(4, 2), (5, 3)])
def test_every_boson_algebra_matches_the_labelled_search(make, bounds):
    source = make()
    found = 0
    for algebra in filter(_bosonic, _algebras(source)):
        found += len(_assert_same_as_labelled(source, algebra, *bounds))
    assert found > 0


def _plain(n, picked):
    source = ac.AnyonSystem(tuple(str(i) for i in range(n)), (1.0,) * n, "0")
    return source, ac.CondensableAlgebra(source, tuple(int(i in picked) for i in range(n)))


@pytest.mark.parametrize(
    "n, m, count", [(6, 2, 3), (6, 3, 1), (8, 2, 15), (9, 3, 10), (10, 2, 105)]
)
def test_plain_bench_shapes_match_the_labelled_search(n, m, count):
    # The algebra sits on scattered labels, so canonical columns interleave.
    source, algebra = _plain(n, {0, *range(n - 1, n - m, -1)})
    assert len(_assert_same_as_labelled(source, algebra, n // m, 2)) == count


MIXED_DIMS = {
    f"{a}{b}": da * db
    for a, da in (("1", 1), ("X", 1), ("Y", 2))
    for b, db in (("1", 1), ("X", 1), ("Y", 2))
}


@pytest.mark.parametrize("order_seed", [0, 1, 2])
@pytest.mark.parametrize(
    "condensed, max_sectors",
    [(("11", "1X", "X1", "XX"), 6), (("11", "1X", "X1", "XX"), 5), (("11", "XX"), 6)],
)
def test_mixed_bench_shape_matches_the_labelled_search(order_seed, condensed, max_sectors):
    labels = sorted(MIXED_DIMS)
    np.random.default_rng(order_seed).shuffle(labels)
    source = ac.AnyonSystem(tuple(labels), tuple(float(MIXED_DIMS[x]) for x in labels), "11")
    algebra = ac.CondensableAlgebra(source, tuple(int(x in condensed) for x in labels))
    _assert_same_as_labelled(source, algebra, max_sectors, 2)


@pytest.mark.parametrize(
    "dims, max_sectors, sectors, runs",
    [
        # Both 7-sector multisets, one result each.
        ((1, 1, 1, 1, 2, 2, 4, 4), 8, 7, [((1,) * 5 + (4,), 1), ((1,) + (2,) * 5, 1)]),
        # The 9-sector results of two multisets interleave in the sort order.
        (
            (1, 1, 4, 4, 2, 2, 2, 2, 2),
            9,
            9,
            [((1,) * 6 + (2, 4), 6), ((1, 1) + (2,) * 6, 3), ((1,) * 6 + (2, 4), 3),
             ((1, 1) + (2,) * 6, 3), ((1,) * 6 + (2, 4), 1), ((1, 1) + (2,) * 6, 9)],
        ),
    ],
)
def test_equal_length_multisets_sort_as_the_labelled_search(dims, max_sectors, sectors, runs):
    # The results of one sector count are sorted together by (dim, column)
    # pairs, not multiset by multiset.
    labels = tuple(f"s{i}" for i in range(len(dims)))
    source = ac.AnyonSystem(labels, tuple(map(float, dims)), "s0")
    algebra = ac.CondensableAlgebra(source, (1, 1) + (0,) * (len(dims) - 2))
    got = _assert_same_as_labelled(source, algebra, max_sectors, 4)
    rest = [tuple(int(x) for x in b.condensed.dims[1:]) for b in got if len(b.condensed) == sectors]
    assert [(dims, len(list(run))) for dims, run in groupby(rest)] == runs


@pytest.mark.parametrize(
    "n, picked, max_sectors, count",
    [
        (4, {0, 1, 2, 3}, 4, 1),  # full condensation: no condensed sector but the vacuum
        (4, {0, 3}, 2, 1),  # one dim-1 column: every row has a single option
        (12, {0, 11}, 3, 0),  # dims (1, 2): the frontier empties at the third free row
    ],
)
def test_fill_edge_cases_match_the_labelled_search(n, picked, max_sectors, count):
    source, algebra = _plain(n, picked)
    got = _assert_same_as_labelled(source, algebra, max_sectors, 2)
    assert len(got) == count


def test_fill_stops_when_the_frontier_empties():
    # Row 2 overshoots the one target, so row 3 is never expanded.
    options = [np.array(rows, dtype=np.int64) for rows in ([(0,)], [(1,)], [(1,)], [(1,)])]
    assert search._orderly_fill([1] * 4, options, np.array([1]), []).shape == (0, 4)


def test_results_share_one_read_only_matrix_stack():
    source, algebra = _plain(10, {0, 7})
    got = ac.enumerate_branchings(source, algebra, 5, 2)
    stacks = {id(b.n.base) for b in got}
    assert len(stacks) == 1 and not got[0].n.base.flags.writeable
    assert got[0].n.base.shape == (105, 10, 5)


@pytest.mark.parametrize(
    "dims, max_sectors, max_dim, dtypes, count",
    [
        ((1,) * 10, 5, 2, [np.uint8], 105),
        # The 11-sector block joins two multisets' tables into 739 rows.
        ((1, 1, 1, 1, 2, 2, 2, 2, 4, 4), 11, 4, [np.uint8, np.uint8, np.uint16], 19),
    ],
)
def test_choices_are_kept_in_the_smallest_dtype_that_indexes_their_table(
    dims, max_sectors, max_dim, dtypes, count
):
    labels = tuple(f"s{i}" for i in range(len(dims)))
    source = ac.AnyonSystem(labels, tuple(map(float, dims)), "s0")
    algebra = ac.CondensableAlgebra(source, (1, 1) + (0,) * (len(dims) - 2))
    blocks = search.branching_blocks(source, algebra, max_sectors, max_dim)
    assert [b.chosen.dtype for b in blocks] == [np.min_scalar_type(len(b.rows) - 1) for b in blocks]
    assert [b.chosen.dtype for b in blocks] == dtypes
    # The labelled search takes over a minute on the second case, so the
    # results are checked as valid, one per relabelling orbit, and counted.
    got = ac.enumerate_branchings(source, algebra, max_sectors, max_dim)
    assert all(ac.validate_branching(b).ok for b in got)
    assert len(_solver_keys(got)) == len(got) == count


@st.composite
def integral_sources(draw):
    size = draw(st.integers(1, 6))
    dims = [1] + draw(st.lists(st.sampled_from([1, 2]), min_size=size - 1, max_size=size - 1))
    labels = tuple(f"s{i}" for i in range(size))
    twist = None
    if draw(st.booleans()):
        twist = {a: Fraction(draw(st.sampled_from([0, 0, 1, 2])), 4) for a in labels[1:]}
    dual = None
    if draw(st.booleans()):
        # Any involution fixing the vacuum; one pairing sectors of different
        # dims makes the source invalid.
        rest = list(labels[1:])
        dual = {labels[0]: labels[0]}
        while rest:
            a = rest.pop(0)
            b = draw(st.sampled_from([a] + rest))
            if b != a:
                rest.remove(b)
            dual[a], dual[b] = b, a
    source = ac.AnyonSystem(labels, tuple(map(float, dims)), labels[0], dual, twist)
    coeffs = (1,) + tuple(draw(st.lists(st.integers(0, 1), min_size=size - 1, max_size=size - 1)))
    return source, ac.CondensableAlgebra(source, coeffs)


@given(case=integral_sources(), max_sectors=st.integers(1, 5), max_dim=st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_hypothesis_sources_match_the_labelled_search(case, max_sectors, max_dim):
    source, algebra = case
    _assert_same_as_labelled(source, algebra, max_sectors, max_dim)


# --- what is checked once, before the search ----------------------------------


def _near_integer_source(eps):
    return ac.AnyonSystem(("1", "a", "b", "c", "e"), (1.0, 1.0) + (2.0 + eps,) * 3, "1")


@pytest.mark.parametrize("eps, count", [(6e-10, 0), (0.0, 3)])
def test_dims_integral_only_within_tolerance_keep_validation(eps, count):
    # Float sums over d = 2 + 6e-10 put the index ratio 1e-9 off, so
    # validation rejects every result; exact dims give three.
    source = _near_integer_source(eps)
    algebra = ac.CondensableAlgebra(source, (1, 1, 0, 0, 0))
    assert len(_assert_same_as_labelled(source, algebra, 4, 2)) == count


def test_invalid_source_gives_nothing():
    source = toric_system()
    broken = ac.AnyonSystem(
        source.labels, source.dims, "1", dual={"1": "1", "Y": "X", "X": "X", "Z": "Z"}
    )
    assert not ac.validate_system(broken).ok
    algebra = ac.CondensableAlgebra(broken, (1, 1, 0, 0))
    assert ac.enumerate_branchings(broken, algebra, 4, 2) == []
    assert labelled_branchings(broken, algebra, 4, 2) == []
    # The source is checked first, as the enumerate command checks it.
    assert ac.enumerate_branchings(broken, algebra, 0, 2) == []
    assert ac.enumerate_branchings(broken, ac.CondensableAlgebra(source, (1, 1, 0, 0)), 4, 2) == []


def test_zero_vacuum_dim_gives_nothing():
    # The index is 0 here; the labelled search divided by it.
    source = ac.AnyonSystem(("1", "a"), (0.0, 1.0), "1")
    algebra = ac.CondensableAlgebra(source, (1, 0))
    assert ac.enumerate_branchings(source, algebra, 2, 2) == []
    with pytest.raises(ZeroDivisionError):
        labelled_branchings(source, algebra, 2, 2)


def test_vacuum_dim_rounded_to_zero_gives_nothing():
    # Integral within 0.8, the dims round to (0, 1), so the index is 0.
    source = ac.AnyonSystem(("1", "a"), (0.3, 1.0), "1")
    algebra = ac.CondensableAlgebra(source, (1, 0))
    assert ac.validate_system(source, 0.8).ok
    assert ac.enumerate_branchings(source, algebra, 2, 2, 0.8) == []


def test_non_boson_algebra_gives_nothing():
    source = toric_system()
    algebra = ac.CondensableAlgebra.from_labels(source, {"1": 1, "X": 1})
    assert source.twist["X"] != 0
    assert ac.enumerate_branchings(source, algebra, 4, 2) == []
    assert labelled_branchings(source, algebra, 4, 2) == []


def test_orderly_search_builds_one_branching_per_result_and_validates_none(monkeypatch):
    calls = {"validate": 0, "build": 0}
    validate, init = search.validate_branching, ac.BranchingData.__init__

    def counted_validate(*args, **kwargs):
        calls["validate"] += 1
        return validate(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["build"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(search, "validate_branching", counted_validate)
    monkeypatch.setattr(ac.BranchingData, "__init__", counted_init)
    source, algebra = _plain(10, {0, 7})
    got = ac.enumerate_branchings(source, algebra, 5, 2)
    # The labelled search built and validated 8!/2^4 = 2,520 candidates here.
    assert len(got) == 105
    assert calls == {"validate": 0, "build": 105}


def test_cli_enumerate_builds_no_branching_and_validates_none(monkeypatch, tmp_path):
    calls = {"validate": 0, "build": 0}
    validate, init = ac.validate_branching, ac.BranchingData.__init__

    def counted_validate(*args, **kwargs):
        calls["validate"] += 1
        return validate(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["build"] += 1
        init(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "anycond" and getattr(module, "validate_branching", None) is validate:
            monkeypatch.setattr(module, "validate_branching", counted_validate)
    monkeypatch.setattr(ac.BranchingData, "__init__", counted_init)
    source, algebra = _plain(10, {0, 7})
    path = tmp_path / "source.json"
    cio.save(source, path)
    algebra_text = ",".join(map(str, algebra.coefficients))
    code, out, _ = run_clean(
        "enumerate", "--source", str(path), "--algebra", algebra_text, "--max-sectors", "5"
    )
    assert code == 0 and json.loads(out)["count"] == 105
    assert calls == {"validate": 0, "build": 0}
