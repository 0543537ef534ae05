"""Standalone exhaustive oracle for the permutation-duality search.

Kept free of any import from the package: it reads only the plain
attributes of two branchings (``labels``, ``dims``, ``vacuum``, the optional
``dual`` and ``twist`` maps, the matrix ``n``) and does plain Python
arithmetic.  It is the pair search the library ran before tau was derived
from sigma:

* list every vacuum-fixing label bijection that keeps the dimensions
  (within ``tol``) and, where both systems declare them, the twists and the
  antiparticles, once for the source and once for the condensed systems;
* try every (sigma, tau) pair of those and keep the ones with
  n_B[a, tau(t)] == n_A[sigma(a), t] for all a, t.

Pairs come out sigma first, then tau, each in lexicographic order of its
image tuple, and each map lists the vacuum first.
"""

from __future__ import annotations

from itertools import permutations


def admissible_maps(domain, codomain, tol=1e-9):
    """Vacuum-fixing label bijections preserving dims and, when declared,
    twists and antiparticle structure.  Lexicographic in the image tuple."""
    if len(domain.labels) != len(codomain.labels):
        return []
    dim = dict(zip(domain.labels, domain.dims))
    cdim = dict(zip(codomain.labels, codomain.dims))
    dom_rest = [l for l in domain.labels if l != domain.vacuum]
    cod_rest = [l for l in codomain.labels if l != codomain.vacuum]
    both_twists = domain.twist is not None and codomain.twist is not None
    both_duals = domain.dual is not None and codomain.dual is not None

    found = []
    for image in permutations(cod_rest):
        perm = {domain.vacuum: codomain.vacuum}
        perm.update(zip(dom_rest, image))
        ok = all(abs(dim[a] - cdim[b]) <= tol for a, b in perm.items())
        if ok and both_twists:
            ok = all(domain.twist.get(a, 0) == codomain.twist.get(b, 0) for a, b in perm.items())
        if ok and both_duals:
            ok = all(
                perm[domain.dual.get(a, a)] == codomain.dual.get(b, b) for a, b in perm.items()
            )
        if ok:
            found.append(perm)
    return found


def coefficient_residual(bA, bB, sigma, tau):
    """max over (a, t) of |n_B[a, tau(t)] - n_A[sigma(a), t]|."""
    src, ca, cb = bA.source.labels, bA.condensed.labels, bB.condensed.labels
    worst = 0
    for i, a in enumerate(src):
        i_sigma = src.index(sigma[a])
        for j, t in enumerate(ca):
            j_tau = cb.index(tau[t])
            worst = max(worst, abs(int(bB.n[i][j_tau]) - int(bA.n[i_sigma][j])))
    return worst


def _index(b):
    vac = b.condensed.labels.index(b.condensed.vacuum)
    return sum(float(row[vac]) * d for row, d in zip(b.n, b.source.dims))


def brute_force_dualities(bA, bB, tol=1e-9):
    """Every (sigma, tau) pair satisfying the coefficient identity, in order.

    Branchings whose indexes differ by more than ``tol`` have none."""
    if abs(_index(bA) - _index(bB)) > tol:
        return []
    taus = admissible_maps(bA.condensed, bB.condensed, tol)
    return [
        (sigma, tau)
        for sigma in admissible_maps(bA.source, bA.source, tol)
        for tau in taus
        if coefficient_residual(bA, bB, sigma, tau) == 0
    ]
