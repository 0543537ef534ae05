"""The label-by-label backtracking duality search, kept as a test oracle.

This is the search ``anycond.duality.find_dualities`` ran before its array
frontier: a generator recursion over source permutations sigma, pruned by
row multisets and the relabelling rule, and for each complete sigma a second
recursion over tau whose columns must match.  Its cost grows with the number
of sigma it completes (all 9! on a 10-label plain source), so the tests run
it on at most 9 labels.  It reads the relabelling rule, ``_labelled`` and the
result type from the package and nothing of the frontier search.
"""

from __future__ import annotations

from anycond.branching import jones_index
from anycond.duality import PermutationDuality, _labelled, _relabelling_rule
from anycond.systems import DEFAULT_TOL


def _label_constraints(domain, codomain):
    """Per domain index: the codomain indices the relabelling rule lets it
    map to, and the pairs (k, dual(k)) whose images are both known once that
    index is placed, none unless both systems declare duals.  Last, the
    codomain's antiparticle positions."""
    fault = _relabelling_rule(domain, codomain)[0]
    allowed = [
        [j for j in range(len(codomain)) if fault[i, j] == 0] for i in range(len(domain))
    ]
    checks = [[] for _ in domain.labels]
    if domain.antiparticles is not None and codomain.antiparticles is not None:
        for k, kbar in enumerate(domain.antiparticles):
            checks[max(k, kbar)].append((k, kbar))
    return allowed, checks, codomain.antiparticles


def _bijections(constraints, fits):
    """Label bijections that keep ``constraints`` and map each i to a j with
    ``fits(i, j)``, as image tuples in lexicographic order.  Backtracks label
    by label and checks each antiparticle pair as soon as both of its images
    are placed."""
    candidates, checks, cod_dual = constraints
    allowed = [[j for j in cands if fits(i, j)] for i, cands in enumerate(candidates)]
    image = [0] * len(allowed)
    used = set()

    def place(i):
        if i == len(allowed):
            yield tuple(image)
            return
        for j in allowed[i]:
            if j in used:
                continue
            image[i] = j
            if all(image[kbar] == cod_dual[image[k]] for k, kbar in checks[i]):
                used.add(j)
                yield from place(i + 1)
                used.discard(j)

    return place(0)


def backtracking_dualities(bA, bB, label_cap=8):
    """Every permutation duality from ``bA`` to ``bB``, ordered by sigma,
    then tau, each lexicographically by its image tuple."""
    if bA.source != bB.source:
        raise ValueError("dualities compare branchings of one source system")
    for system in (bA.source, bA.condensed, bB.condensed):
        if len(system) > label_cap:
            raise ValueError(f"{len(system)} labels exceed the search cap {label_cap}")
    if abs(jones_index(bA) - jones_index(bB)) > DEFAULT_TOL:
        return []
    source, cA, cB = bA.source, bA.condensed, bB.condensed
    if len(cA) != len(cB):
        return []

    rows_a = [sorted(row) for row in bA.n.tolist()]
    rows_b = [sorted(row) for row in bB.n.tolist()]
    cols_a, cols_b = bA.n.T.tolist(), bB.n.T.tolist()
    tau_constraints = _label_constraints(cA, cB)

    out = []
    sigma_constraints = _label_constraints(source, source)
    for sigma in _bijections(sigma_constraints, lambda i, c: rows_a[c] == rows_b[i]):
        moved = [[col[s] for s in sigma] for col in cols_a]
        for tau in _bijections(tau_constraints, lambda t, u: cols_b[u] == moved[t]):
            out.append(PermutationDuality(_labelled(source, source, sigma), _labelled(cA, cB, tau)))
    return out
