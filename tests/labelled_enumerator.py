"""The labelled branching search, kept as a differential oracle.

This is the search the library ran before it generated one branching per
relabelling orbit: it builds every labelled matrix the depth-first row fill
allows, sorts the non-vacuum condensed columns of each by (dimension,
entries), validates every candidate with ``validate_branching`` and keeps
the first candidate per canonical key.  Results come out sorted by
(sector count, vacuum column, sorted (dimension, column) pairs).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from anycond.branching import BranchingData, validate_branching
from anycond.systems import DEFAULT_TOL, AnyonSystem


def _integer_dims(system, tol):
    dims = []
    for label, d in zip(system.labels, system.dims):
        if abs(d - round(d)) > tol:
            raise ValueError(f"enumeration requires integer dims; sector {label!r} has d = {d}")
        dims.append(int(round(d)))
    return dims


def _dim_multisets(budget, max_len, max_dim):
    out = []
    for length in range(0, max_len + 1):
        for combo in combinations_with_replacement(range(1, max_dim + 1), length):
            if sum(d * d for d in combo) == budget:
                out.append(combo)
    return out


def _row_solutions(target, dims):
    if target < 0:
        return []
    solutions = []

    def extend(j, left, prefix):
        if j == len(dims):
            if left == 0:
                solutions.append(prefix)
            return
        for v in range(left // dims[j] + 1):
            extend(j + 1, left - v * dims[j], prefix + (v,))

    extend(0, target, ())
    return solutions


def canonical_matrix(n, condensed_dims, vacuum_col):
    """Vacuum column first, then the other columns sorted by (dim, entries)."""
    rest = sorted(
        (int(condensed_dims[j]), tuple(int(x) for x in n[:, j]))
        for j in range(n.shape[1])
        if j != vacuum_col
    )
    vac = tuple(int(x) for x in n[:, vacuum_col])
    return (vac, tuple(rest))


def labelled_branchings(source, algebra, max_sectors, max_dim, tol=DEFAULT_TOL):
    """Same contract as ``anycond.enumerate_branchings``."""
    if algebra.system != source:
        raise ValueError("condensable algebra is defined over a different system")
    if max_sectors < 1 or max_dim < 1:
        raise ValueError("max_sectors and max_dim must be at least 1")

    d = _integer_dims(source, tol)
    coeff = algebra.coefficients
    vac = source.vacuum_index
    lam = sum(c * di for c, di in zip(coeff, d))
    d2_source = sum(di * di for di in d)
    if d2_source % lam != 0:
        return []
    rest_budget = d2_source // lam - 1
    if rest_budget < 0:
        return []

    found = {}
    for rest_dims in _dim_multisets(rest_budget, max_sectors - 1, max_dim):
        k = len(rest_dims)
        col_targets = [lam * dj for dj in rest_dims]

        row_options = []
        feasible = True
        for i in range(len(source)):
            if i == vac:
                row_options.append([(0,) * k])
                continue
            options = _row_solutions(d[i] - coeff[i], rest_dims)
            if not options:
                feasible = False
                break
            row_options.append(options)
        if not feasible:
            continue

        matrices = []

        def fill(i, weights, rows):
            if i == len(source):
                if weights == col_targets:
                    matrices.append(list(rows))
                return
            for option in row_options[i]:
                nxt = [w + v * d[i] for w, v in zip(weights, option)]
                if all(w <= t for w, t in zip(nxt, col_targets)):
                    fill(i + 1, nxt, rows + [option])

        fill(0, [0] * k, [])

        for rows in matrices:
            n = np.zeros((len(source), k + 1), dtype=np.int64)
            n[:, 0] = coeff
            for i, row in enumerate(rows):
                n[i, 1:] = row
            order = sorted(range(k), key=lambda j: (rest_dims[j], tuple(n[:, j + 1])))
            n_sorted = np.concatenate([n[:, :1]] + [n[:, j + 1 : j + 2] for j in order], axis=1)
            dims_sorted = (1,) + tuple(rest_dims[j] for j in order)
            condensed = AnyonSystem(
                labels=("phi",) + tuple(f"t{i}" for i in range(1, k + 1)),
                dims=tuple(float(x) for x in dims_sorted),
                vacuum="phi",
            )
            candidate = BranchingData(source, condensed, n_sorted)
            if not validate_branching(candidate, tol).ok:
                continue
            key = canonical_matrix(candidate.n, dims_sorted, 0)
            found.setdefault((k + 1,) + key, candidate)

    return [b for _, b in sorted(found.items(), key=lambda kv: kv[0])]
