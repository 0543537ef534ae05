"""Compiled condensations: the batched channels and order parameter against
an exact rational oracle, the pointwise Pimsner-Popa bound, and compile-time
errors that name the broken rule."""

import math
from fractions import Fraction

import numpy as np
import pytest

import anycond as ac
from anycond import channels
from anycond.channels import NotCondensableError, condensation
from anycond.entropy import order_parameter_rows

from exact_reference import ExactCondensation
from sweep_grid import sweep_grid

TOL = 1e-12


def _exact(b):
    return ExactCondensation(
        b.n.tolist(), b.source.dims, b.condensed.dims, b.vacuum_column_index
    )


def _rational_states(b, count=50, seed=3):
    """The resolution-4 simplex grid, then seeded random rational states."""
    k = len(b.source)
    states = [[Fraction(x, 4) for x in combo] for combo in sweep_grid(k, 4)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        weights = [int(x) for x in rng.integers(0, 20, size=k)]
        weights[int(rng.integers(k))] += 1
        states.append([Fraction(w, sum(weights)) for w in weights])
    return states


def test_batched_path_matches_exact_reference(catalog_entry):
    b = catalog_entry.branching
    exact = _exact(b)
    states = _rational_states(b)
    p = np.array([[float(x) for x in s] for s in states])

    values, per, _, bound = order_parameter_rows(b, p)
    lifted = condensation(b).round_trip(p)

    assert bound == pytest.approx(math.log(exact.lam), abs=TOL)
    for i, s in enumerate(states):
        want_lifted = [float(x) for x in exact.round_trip(s)]
        want_terms = exact.terms(s)
        assert np.max(np.abs(lifted[i] - want_lifted)) <= TOL, (catalog_entry.id, s)
        assert np.max(np.abs(per[i] - want_terms)) <= TOL, (catalog_entry.id, s)
        assert abs(values[i] - math.fsum(want_terms)) <= TOL, (catalog_entry.id, s)


def test_pointwise_pimsner_popa_bound(catalog_entry):
    # p~_a >= p_a / lam because M[a, a] = sum_t n[a, t]^2 >= 1; summed
    # against p it gives the log(lam) bound on the order parameter.
    b = catalog_entry.branching
    exact = _exact(b)
    states = _rational_states(b)
    for s in states:
        assert all(q >= pa / exact.lam for pa, q in zip(s, exact.round_trip(s))), s
    p = np.array([[float(x) for x in s] for s in states])
    lam = condensation(b).lam
    assert np.all(condensation(b).round_trip(p) >= p / lam - 1e-15)


def test_compiled_once_and_read_only(toric_1y):
    compiled = condensation(toric_1y)
    assert condensation(toric_1y) is compiled
    for array in (compiled.restriction, compiled.lifting, compiled.n):
        assert not array.flags.writeable


def test_compiling_reads_an_ok_report_kept_on_the_branching(toric_1y, monkeypatch):
    checked = []
    check = channels.dimension_violations
    monkeypatch.setattr(
        channels, "dimension_violations", lambda b, lam: checked.append(b) or check(b, lam)
    )
    validated, unvalidated, broken = (
        ac.BranchingData(toric_1y.source, toric_1y.condensed, n)
        for n in (toric_1y.n, toric_1y.n, [[1, 0], [0, 1], [0, 1], [0, 1]])
    )
    assert ac.validate_branching(validated, 1e-6).ok
    assert not ac.validate_branching(broken).ok
    condensation(validated)
    condensation(unvalidated)
    with pytest.raises(NotCondensableError, match="dim-lift"):
        condensation(broken)
    assert checked == [unvalidated, broken]


@pytest.mark.parametrize(
    "n,named",
    [
        # Row Y zeroed: Y restricts to nothing, and X's column then holds
        # twice the index.
        (
            [[1, 0], [0, 0], [0, 1], [0, 1]],
            ["dim-restriction: sector 'Y'", "dim-lift: condensed sector 'X'"],
        ),
        # Y sent to the fermion channel: every row is fine, the X column is not.
        ([[1, 0], [0, 1], [0, 1], [0, 1]], ["dim-lift: condensed sector 'X'"]),
    ],
)
def test_compiling_names_the_broken_rule(toric_1y, n, named):
    b = ac.BranchingData(toric_1y.source, toric_1y.condensed, n)
    rho = ac.SectorState(b.source, [0.25] * 4)
    for call in (ac.order_parameter, ac.restrict, ac.round_trip):
        with pytest.raises(ValueError) as err:
            call(b, rho)
        message = str(err.value)
        assert all(rule in message for rule in named), message
        assert "probabilities sum" not in message
