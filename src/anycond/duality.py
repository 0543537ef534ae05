"""Permutation dualities between condensation patterns.

Two branchings of the same source system are equivalent when a relabelling
of sectors intertwines their channels: a permutation ``sigma`` of the source
labels together with a bijection ``tau`` of the condensed labels such that

    n_B[a, tau(t)] = n_A[sigma(a), t]   for all a, t.

That exact integer identity implies the channel identity
restrict_B(rho) = tau( restrict_A(sigma(rho)) ) for every state, which
:func:`verify_duality` checks numerically on random states.

One rule says which relabellings count: the vacuum is fixed, quantum
dimensions agree within ``DEFAULT_TOL`` (1e-9), and twists and antiparticle
maps are kept when both systems declare them.  The search admits only such
maps and the check refuses every other, both by :func:`_relabelling_rule`,
so every duality found passes it.  The data it reads live in one place,
each system's sector table (see :class:`~anycond.systems.AnyonSystem`).
The search backtracks over sigma alone: tau(t) may then only be a
condensed label whose column of n_B is column t of n_A read through sigma,
so tau is derived rather than searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .branching import BranchingData, jones_index
from .channels import SectorState, _channel_output, condensation
from .systems import DEFAULT_TOL, AnyonSystem


@dataclass(frozen=True)
class PermutationDuality:
    """A relabelling pair: ``source_perm`` on source labels, ``condensed_perm``
    from the first branching's condensed labels onto the second's."""

    source_perm: Mapping[str, str]
    condensed_perm: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "source_perm", dict(self.source_perm))
        object.__setattr__(self, "condensed_perm", dict(self.condensed_perm))
        for name, perm in (("source_perm", self.source_perm), ("condensed_perm", self.condensed_perm)):
            if len(set(perm.values())) != len(perm):
                raise ValueError(f"{name} is not injective")

    def inverse(self) -> "PermutationDuality":
        return PermutationDuality(
            {v: k for k, v in self.source_perm.items()},
            {v: k for k, v in self.condensed_perm.items()},
        )

    def as_dict(self) -> dict:
        return {"source_perm": dict(self.source_perm), "condensed_perm": dict(self.condensed_perm)}


def _positions(perm: Mapping[str, str], domain: AnyonSystem, codomain: AnyonSystem, what: str,
               fault):
    """The codomain position of each domain label's image, in domain label
    order.  Raises unless ``perm`` maps the labels bijectively and keeps the
    rule: ``fault``, the :func:`_relabelling_rule` of the two systems, and
    the antiparticle pairs.  The first changed dimension or twist is named in
    the map's own order, the first broken pair by its first domain label."""
    index_a, index_b = domain._position, codomain._position
    if perm.keys() != index_a.keys() or index_b.keys() != set(perm.values()):
        raise ValueError(f"{what} must map the labels bijectively")
    if perm[domain.vacuum] != codomain.vacuum:
        raise ValueError(f"{what} must fix the vacuum")
    at = [0] * len(domain)
    for a, image in perm.items():
        i, j = index_a[a], index_b[image]
        # With the vacuum fixed, a bijection cannot move it: only a
        # dimension or a twist can change here.
        change = fault(i, j)
        if change is not None:
            raise ValueError(f"{what} does not preserve the {change} of {a!r}")
        at[i] = j
    dom_dual, cod_dual = domain.antiparticles, codomain.antiparticles
    if dom_dual is not None and cod_dual is not None:
        for k, kbar in enumerate(dom_dual):
            if at[kbar] != cod_dual[at[k]]:
                label = domain.labels[k]
                raise ValueError(f"{what} does not preserve the antiparticle of {label!r}")
    return at


def apply_permutation(duality: PermutationDuality, rho: SectorState) -> SectorState:
    """Reindex a state by the source permutation: the new weight of
    sigma(a) is the old weight of a."""
    system = rho.system
    fault = _relabelling_rule(system, system)
    out = np.empty_like(rho.probs)
    out[_positions(duality.source_perm, system, system, "source_perm", fault)] = rho.probs
    return _channel_output(system, out)


# Rows per restrict through A: memory stays flat in the number of dualities.
VERIFY_BLOCK_ROWS = 1024


def verify_dualities(
    bA: BranchingData, bB: BranchingData, dualities: list, trials: int = 100, seed: int = 0
) -> np.ndarray:
    """Largest deviation of each duality from its identity, as a float array.

    Checks the coefficient identity and, on one seeded stack of ``trials``
    states, restrict_B(rho) column tau(t) against restrict_A(sigma(rho))
    column t; through A in C-order stacks of at most ``VERIFY_BLOCK_ROWS``
    rows (one duality's trials, if more).  Each result, and the error of the
    first bad duality, is bit for bit that of checking the duality alone.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if bA.source != bB.source:
        raise ValueError("dualities compare branchings of one source system")
    source, cA, cB = bA.source, bA.condensed, bB.condensed
    sigma_fault, tau_fault = _relabelling_rule(source, source), _relabelling_rule(cA, cB)
    moves, taus = [], []
    for d in dualities:
        sigma = _positions(d.source_perm, source, source, "source_perm", sigma_fault)
        # sigma moves the weight of a to b = sigma(a), so the gather reads b from a.
        moves.append(sorted(range(len(source)), key=sigma.__getitem__))
        taus.append(_positions(d.condensed_perm, cA, cB, "condensed_perm", tau_fault))
    if not dualities:
        return np.empty(0)
    moves, taus = np.array(moves), np.array(taus)
    # n_B[a, tau(t)] - n_A[sigma(a), t] over every (a, t), per duality, read at b = sigma(a).
    gaps = np.abs(bB.n[moves[:, :, None], taus[:, None, :]] - bA.n).max(axis=(1, 2)).astype(float)
    if trials == 0:
        return gaps
    raw = np.random.default_rng(seed).random((trials, len(source))) + 1e-12
    rho = raw / raw.sum(axis=1, keepdims=True)
    lhs = condensation(bB).restrict(rho)
    per_block = max(1, VERIFY_BLOCK_ROWS // trials)
    for lo in range(0, len(dualities), per_block):
        block = slice(lo, lo + per_block)
        # take keeps C order; rho[:, index] is Fortran order, rounded otherwise.
        moved = rho.take(moves[block].ravel(), axis=1).reshape(-1, len(source))
        via_a = condensation(bA).restrict(moved).reshape(trials, -1, len(cA))
        gaps[block] = np.maximum(gaps[block], np.abs(lhs[:, taus[block]] - via_a).max(axis=(0, 2)))
    return gaps


def verify_duality(
    bA: BranchingData, bB: BranchingData, duality: PermutationDuality, trials=100, seed=0
) -> float:
    """:func:`verify_dualities` on one duality, as a float."""
    return float(verify_dualities(bA, bB, [duality], trials, seed)[0])


def _relabelling_rule(domain: AnyonSystem, codomain: AnyonSystem):
    """The one rule a label bijection domain -> codomain must keep, sector by
    sector, as ``fault(i, j)``: what relabelling domain sector i as codomain
    sector j changes, ``"vacuum"``, ``"dimension"`` (beyond ``DEFAULT_TOL``)
    or ``"twist"`` (when both systems declare twists); None when it is kept.
    Its callers check the rest of the rule, the antiparticle pairs when both
    systems declare duals, from each system's ``antiparticles``."""
    vac_a, vac_b = domain.vacuum_index, codomain.vacuum_index
    dims_a, dims_b = domain.dims, codomain.dims
    twists_a, twists_b = domain.twist_ratios, codomain.twist_ratios
    twists = twists_a is not None and twists_b is not None

    def fault(i: int, j: int):
        if (i == vac_a) != (j == vac_b):
            return "vacuum"
        if not abs(dims_a[i] - dims_b[j]) <= DEFAULT_TOL:  # a nan dimension is never kept
            return "dimension"
        if twists and twists_a[i] != twists_b[j]:
            return "twist"
        return None

    return fault


def _label_constraints(domain: AnyonSystem, codomain: AnyonSystem):
    """The sector data a label bijection domain -> codomain must keep.

    Per domain index: the codomain indices the :func:`_relabelling_rule`
    lets it map to, and the pairs (k, dual(k)) whose images are both known
    once that index is placed, none unless both systems declare duals.
    Last, the codomain's antiparticle positions.
    """
    fault = _relabelling_rule(domain, codomain)
    allowed = [
        [j for j in range(len(codomain)) if fault(i, j) is None] for i in range(len(domain))
    ]
    checks = [[] for _ in domain.labels]
    if domain.antiparticles is not None and codomain.antiparticles is not None:
        for k, kbar in enumerate(domain.antiparticles):
            checks[max(k, kbar)].append((k, kbar))
    return allowed, checks, codomain.antiparticles


def _bijections(constraints, fits):
    """Label bijections that keep ``constraints`` (see
    :func:`_label_constraints`) and map each i to a j with ``fits(i, j)``,
    as image tuples in lexicographic order.  Backtracks label by label and
    checks each antiparticle pair as soon as both of its images are placed."""
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


def _labelled(domain: AnyonSystem, codomain: AnyonSystem, image) -> dict[str, str]:
    perm = {domain.vacuum: codomain.vacuum}
    perm.update((a, codomain.labels[j]) for a, j in zip(domain.labels, image))
    return perm


def find_dualities(
    bA: BranchingData,
    bB: BranchingData,
    label_cap: int = 8,
) -> list[PermutationDuality]:
    """All permutation dualities between two branchings of one source.

    Backtracks over source permutations sigma whose every source label a
    keeps its sector data and has a row of ``n_B`` equal, as a multiset, to
    row sigma(a) of ``n_A``.  For each such sigma, tau(t) may only be a
    condensed label whose column of ``n_B`` is column t of ``n_A`` read
    through sigma, so every pair found satisfies the coefficient identity
    exactly.  The result is ordered by sigma, then tau, each
    lexicographically by its image tuple.  Raises when the source systems
    differ or a label count exceeds ``label_cap``.
    """
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
