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
* rows are then filled one at a time under the running column constraint
  sum_a n[a, t] * d_a = lam * d_t, every partial matrix of a row extended by
  every option of the next row in one array step.

Condensed labels are pure gauge, so the search is orderly (Read 1978,
McKay 1998): it emits one matrix per relabelling orbit of the non-vacuum
condensed sectors, the one whose columns of equal dimension ascend
lexicographically, and never generates the others.  The remaining rules of
``validate_branching`` hold by construction or depend on the source and the
algebra alone, so they are checked once, before the search.  The output
order is deterministic: by sector count, then, across all dim multisets of
that count, by the flattened key (d_1, column 1, d_2, column 2, ...).  The
results of each sector count are kept as one sorted :class:`Block`, from
which :func:`enumerate_branchings` builds its branchings and the ``io``
writer its text; the block and its sort key are built once per sector
count.  No part of the search recurses.
"""

from __future__ import annotations

from itertools import groupby, repeat
from math import isqrt
from typing import NamedTuple

import numpy as np

from .branching import BranchingData, CondensableAlgebra, boson_violations, validate_branching
from .systems import DEFAULT_TOL, AnyonSystem, validate_system

# Candidate cells (frontier entries x options x condensed columns) that one
# step of the fill builds at a time, and characters of text that the
# branchings writer joins at a time; bounds their temporary arrays.
FILL_CHUNK = 1 << 16


class NonIntegerDimsError(ValueError):
    """The search refuses a source whose dims are not integers within ``tol``."""


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
    """All non-negative integer vectors v with sum_j v[j] * dims[j] = target,
    in lexicographic order.

    A depth-first walk over its own stack fixes one entry at a time, smallest
    value first; a prefix that meets the target is completed with zeros at once.
    """
    solutions = []
    stack = [((), target)] if target >= 0 else []
    while stack:
        prefix, left = stack.pop()
        if left == 0:
            solutions.append(prefix + (0,) * (len(dims) - len(prefix)))
        elif len(prefix) < len(dims):
            dim = dims[len(prefix)]
            stack.extend((prefix + (v,), left - v * dim) for v in range(left // dim, -1, -1))
    return solutions


def _orderly_fill(
    d: list[int], options: list[np.ndarray], targets: np.ndarray, ties: list[int]
) -> np.ndarray:
    """Every choice of one option per row whose weighted column sums meet
    ``targets``, with columns j and j + 1 in ascending lexicographic order
    for each j in ``ties``: an (R, rows) array of indices into each row's
    ``(O, k)`` option array, in the order of a depth-first search.

    The rows are filled one at a time over a frontier of partial choices.
    Each frontier entry carries its column weights, which stay at most
    ``targets``, and the tied pairs whose two columns agree on the rows
    placed so far.  A row expands every entry by every option in one step,
    in slices of about ``FILL_CHUNK`` cells, and keeps a pair unless it
    overshoots a target or puts a tied pair in decreasing order.  Kept pairs
    stay in row-major order, entry then option, which is depth-first order.
    """
    k = len(targets)
    # Kept weights are at most the targets, and a row adds at most d_i**2.
    weight_type = np.min_scalar_type(int(targets.max(initial=0)) + max(d) ** 2)
    targets = targets.astype(weight_type)
    low = np.array(ties, dtype=np.intp)
    weights = np.zeros((1, k), dtype=weight_type)
    tied = np.ones((1, len(ties)), dtype=bool)
    chosen = np.zeros((1, len(options)), np.min_scalar_type(max(map(len, options)) - 1))
    for i, opts in enumerate(options):
        if not len(weights):
            break
        step = (opts * d[i]).astype(weight_type)
        breaks, equal = opts[:, low] > opts[:, low + 1], opts[:, low] == opts[:, low + 1]
        per = max(1, FILL_CHUNK // (len(opts) * max(k, 1)))
        entries, picks = [], []
        for start in range(0, len(weights), per):
            w, t = weights[start : start + per, None], tied[start : start + per, None]
            keep = (w + step <= targets).all(axis=2) & ~(t & breaks).any(axis=2)
            entry, pick = np.nonzero(keep)
            entries.append(entry + start)
            picks.append(pick)
        entry, pick = np.concatenate(entries), np.concatenate(picks)
        weights = weights[entry] + step[pick]
        tied = tied[entry] & equal[pick]
        chosen = chosen[entry]
        chosen[:, i] = pick
    return chosen[(weights == targets).all(axis=1)]


class Block(NamedTuple):
    """The results of one sector count, in output order.

    Result r maps ``source`` to ``condensed[which[r]]``, and its matrix n
    is ``rows[chosen[r]]``: ``rows`` is an ``(O, 1 + k)`` int64 array of the
    rows of n that the results take, each option of a dim multiset once, and
    ``chosen`` is in the smallest unsigned dtype that indexes it.
    """

    source: AnyonSystem
    condensed: tuple[AnyonSystem, ...]
    which: np.ndarray
    rows: np.ndarray
    chosen: np.ndarray


def enumerate_branchings(
    source: AnyonSystem,
    algebra: CondensableAlgebra,
    max_sectors: int,
    max_dim: int,
    tol: float = DEFAULT_TOL,
) -> list[BranchingData]:
    """All valid branchings whose vacuum column equals ``algebra``.

    Results are unique up to relabelling of the non-vacuum condensed
    sectors and returned in a deterministic order: by sector count, then by
    (d_1, column 1, d_2, column 2, ...) over the non-vacuum columns.  Raises
    :class:`NonIntegerDimsError` for non-integer dims, ``ValueError`` for
    bounds below 1.  One sector count's results view one read-only stack.
    """
    results = []
    for block in branching_blocks(source, algebra, max_sectors, max_dim, tol):
        stack = block.rows[block.chosen]
        stack.setflags(write=False)
        condensed = [block.condensed[m] for m in block.which.tolist()]
        results += map(BranchingData, repeat(source), condensed, stack)
    return results


def branching_blocks(
    source: AnyonSystem,
    algebra: CondensableAlgebra,
    max_sectors: int,
    max_dim: int,
    tol: float = DEFAULT_TOL,
) -> list[Block]:
    """The results of :func:`enumerate_branchings`, in its order, as one
    :class:`Block` per sector count; no ``BranchingData`` is built but to
    validate results over dims that are integers only within ``tol``."""
    if algebra.system != source:
        raise ValueError("condensable algebra is defined over a different system")
    if max_sectors < 1 or max_dim < 1:
        raise ValueError("max_sectors and max_dim must be at least 1")

    d = [round(x) for x in source.dims]
    for label, x, di in zip(source.labels, source.dims, d):
        if not abs(x - di) <= tol:
            raise NonIntegerDimsError(f"enumeration requires integer dims, within {tol}, "
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

    # Rows with the same coefficient and dim share one option array.  The
    # source vacuum's row is a kind of its own, forced to the vacuum-column
    # indicator: its rest is the one solution for 0.
    kinds = [(c, None if i == vac else d[i] - c) for i, c in enumerate(coeff)]
    distinct = list(dict.fromkeys(kinds))
    slot = [distinct.index(kind) for kind in kinds]
    # Key cells: the condensed dims and every matrix entry fit in it.
    key_type = np.min_scalar_type(max(d + [rest_budget]))
    blocks = []
    for k, multisets in groupby(_dim_multisets(rest_budget, max_sectors - 1, max_dim), len):
        labels = ("phi", *(f"t{i}" for i in range(1, k + 1)))
        found = []
        for rest_dims in multisets:
            options = [np.array([(c, *row) for row in _row_solutions(target or 0, rest_dims)],
                                np.int64).reshape(-1, k + 1) for c, target in distinct]
            if not all(map(len, options)):
                continue
            ties = [j for j in range(k - 1) if rest_dims[j] == rest_dims[j + 1]]
            targets = np.array(rest_dims) * lam
            pick = _orderly_fill(d, [options[j][:, 1:] for j in slot], targets, ties)
            # Each pick as a row of the multiset's table of options, in the
            # smallest dtype that indexes that table.
            table = np.concatenate(options)
            starts = np.cumsum([0] + list(map(len, options)))[slot]
            pick = pick + starts.astype(np.min_scalar_type(len(table) - 1))
            system = AnyonSystem(labels=labels, dims=(1.0, *map(float, rest_dims)), vacuum="phi")
            if not exact and len(pick):
                built = map(BranchingData, repeat(source), repeat(system), table[pick])
                pick = pick[[validate_branching(b, tol).ok for b in built]]
            if len(pick):
                found.append((system, table, pick))
        if not found:
            continue
        condensed, tables, picks = zip(*found)
        # One table per sector count: each result's picks move by their
        # table's offset, in the smallest dtype that indexes the joined table.
        rows = np.concatenate(tables)
        index_type = np.min_scalar_type(len(rows) - 1)
        which = np.repeat(np.arange(len(picks)), list(map(len, picks)))
        chosen = np.concatenate(picks, dtype=index_type)
        chosen += np.cumsum([0] + list(map(len, tables[:-1])), dtype=index_type)[which, None]
        # Within one sector count, one sort by (d_1, column 1, d_2, column 2,
        # ...): the columns are already canonical, so this is the (dim,
        # column) key results sort by.  The key holds one contiguous row per
        # cell, filled one condensed column at a time; a full condensation
        # (k = 0) has no key cells and at most one result.
        if len(chosen) > 1:
            key = np.empty((k, 1 + len(d), len(chosen)), key_type)
            key[:, 0] = np.array([system.dims[1:] for system in condensed], key_type)[which].T
            for j, column in enumerate(rows[:, 1:].T.astype(key_type)):
                key[j, 1:] = column[chosen].T
            order = np.lexsort(key.reshape(-1, len(chosen))[::-1])
            which, chosen = which[order], chosen[order]
        blocks.append(Block(source, condensed, which, rows, chosen))
    return blocks
