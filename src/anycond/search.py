"""Exhaustive search for branching matrices compatible with a condensate.

Given an integral-dimension source system and the vacuum column (the
condensable algebra), this module enumerates every condensed system with at
most ``max_sectors`` sectors of integer dimension at most ``max_dim``,
together with every non-negative integer matrix satisfying both
quantum-dimension constraints.  The search is complete within the stated
bounds:

* the index lam and the condensed total dimension D2/lam are fixed by the
  vacuum column, which prunes the possible condensed dimension multisets;
* each source row must satisfy d_a = sum_t n[a, t] * d_t, which bounds every
  entry by floor(d_a / d_t) and makes the per-row solution sets finite;
* rows are then combined depth-first under the running column constraint
  sum_a n[a, t] * d_a = lam * d_t.

Condensed labels are pure gauge, so the search is orderly (Read 1978,
McKay 1998): it emits one matrix per relabelling orbit of the non-vacuum
condensed sectors, the one whose columns of equal dimension ascend
lexicographically, and never generates the others.  The remaining rules of
``validate_branching`` hold by construction or depend on the source and the
algebra alone, so they are checked once, before the search.  The output
order is deterministic.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .branching import BranchingData, CondensableAlgebra, boson_violations, validate_branching
from .systems import DEFAULT_TOL, AnyonSystem, validate_system


def _dim_multisets(budget: int, max_len: int, max_dim: int) -> list[tuple[int, ...]]:
    """Non-decreasing tuples of dims in [1, max_dim] whose squares sum to budget.

    Each step of a depth-first walk tries only the dims from the last one up to
    the largest whose square fits the rest; the result is sorted by (length, tuple).
    """
    out = []
    stack = [((), 1, budget)]
    while stack:
        prefix, low, left = stack.pop()
        if left == 0:
            out.append(prefix)
        elif len(prefix) < max_len:
            top = min(max_dim, isqrt(left))
            stack.extend((prefix + (d,), d, left - d * d) for d in range(low, top + 1))
    out.sort(key=lambda dims: (len(dims), dims))
    return out


def _row_solutions(target: int, dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All non-negative integer vectors v with sum_j v[j] * dims[j] = target."""
    if target < 0:
        return []
    solutions: list[tuple[int, ...]] = []

    def extend(j: int, left: int, prefix: tuple[int, ...]):
        if j == len(dims):
            if left == 0:
                solutions.append(prefix)
            return
        for v in range(left // dims[j] + 1):
            extend(j + 1, left - v * dims[j], prefix + (v,))

    extend(0, target, ())
    return solutions


def _orderly_fill(
    d: list[int], row_options: list[list[tuple[int, ...]]], targets: list[int], ties: list[int]
) -> list[tuple[tuple[int, ...], ...]]:
    """Every choice of one option per row whose weighted column sums meet
    ``targets``, with columns j and j + 1 in ascending lexicographic order
    for each j in ``ties``.

    A tied pair stays tied while the two columns agree on the rows placed so
    far; a row that would put a tied pair in decreasing order is skipped.
    """
    out = []
    last = len(row_options)

    def fill(i: int, weights: list[int], ties: list[int], rows: tuple):
        if i == last:
            if weights == targets:
                out.append(rows)
            return
        di = d[i]
        for option in row_options[i]:
            still = []
            for j in ties:
                if option[j] > option[j + 1]:
                    break
                if option[j] == option[j + 1]:
                    still.append(j)
            else:
                nxt = [w + v * di for w, v in zip(weights, option)]
                if all(w <= t for w, t in zip(nxt, targets)):
                    fill(i + 1, nxt, still, rows + (option,))

    fill(0, [0] * len(targets), ties, ())
    return out


def _condensed_labels(count: int) -> tuple[str, ...]:
    return ("phi",) + tuple(f"t{i}" for i in range(1, count + 1))


def enumerate_branchings(
    source: AnyonSystem,
    algebra: CondensableAlgebra,
    max_sectors: int,
    max_dim: int,
    tol: float = DEFAULT_TOL,
) -> list[BranchingData]:
    """All valid branchings whose vacuum column equals ``algebra``.

    Results are unique up to relabelling of the non-vacuum condensed
    sectors and returned in a deterministic order (sector count, condensed
    dims, then matrix entries).  Raises ``ValueError`` for non-integer
    source dims or bounds below 1.
    """
    if algebra.system != source:
        raise ValueError("condensable algebra is defined over a different system")
    if max_sectors < 1 or max_dim < 1:
        raise ValueError("max_sectors and max_dim must be at least 1")

    d = [round(x) for x in source.dims]
    for label, x, di in zip(source.labels, source.dims, d):
        if not abs(x - di) <= tol:
            raise ValueError(f"enumeration requires integer dims, within {tol}, "
                             f"but sector {label!r} has d = {x!r}")
    coeff = algebra.coefficients
    if not validate_system(source, tol).ok or boson_violations(source, coeff):
        return []
    vac = source.vacuum_index
    lam = sum(c * di for c, di in zip(coeff, d))
    d2_source = sum(di * di for di in d)
    # Dims rounded at a large tol can make the index 0; no branching has it.
    if lam < 1 or d2_source % lam != 0:
        return []
    rest_budget = d2_source // lam - 1
    # With exact integer dims every sum below is exact, so the dimension
    # constraints and the index ratio hold as built.  Dims that are integers
    # only within tol accumulate float error that validation may reject.
    exact = all(x == di for x, di in zip(source.dims, d))

    keyed = []
    for rest_dims in _dim_multisets(rest_budget, max_sectors - 1, max_dim):
        k = len(rest_dims)
        # Row of the source vacuum is forced to the vacuum-column indicator.
        row_options = [
            [(0,) * k] if i == vac else _row_solutions(d[i] - coeff[i], rest_dims)
            for i in range(len(source))
        ]
        if not all(row_options):
            continue
        ties = [j for j in range(k - 1) if rest_dims[j] == rest_dims[j + 1]]
        found = _orderly_fill(d, row_options, [lam * dj for dj in rest_dims], ties)
        condensed = AnyonSystem(
            labels=_condensed_labels(k),
            dims=(1.0,) + tuple(float(x) for x in rest_dims),
            vacuum="phi",
        )
        for rows in found:
            n = np.array([(c,) + row for c, row in zip(coeff, rows)], dtype=np.int64)
            b = BranchingData(source, condensed, n)
            if exact or validate_branching(b, tol).ok:
                # The columns are already canonical, so this is the key the
                # results sort by: sector count, then (dim, column) pairs.
                keyed.append(((k + 1, tuple(zip(rest_dims, zip(*rows)))), b))

    keyed.sort(key=lambda kb: kb[0])
    return [b for _, b in keyed]
