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
maps are kept when both systems declare them.  :func:`_relabelling_rule`
holds it as data, one integer matrix over every pair of sectors with the
antiparticle pairs, built from each system's sector table (see
:class:`~anycond.systems.AnyonSystem`).  The search admits only the pairs
it keeps and the check refuses every other, so every duality found passes.
The search grows sigma one source label at a time, every partial sigma at
once as one array frontier in lexicographic order.  A source label goes only
where its row of n_B equals its image's row of n_A as a multiset, and a
partial sigma stays only while the partial columns of n_A it reads (the rows
placed so far) equal those of n_B as a multiset: colour refinement on the
bipartite graph of n, compared through hashed column keys that can keep
extra sigma but never drop one.  Then tau(t) may only be a condensed label
whose column of n_B is column t of n_A read through sigma; the taus of every
sigma grow as a second frontier of the same kind.  The result keeps the
order of a depth-first search: by sigma, then tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import search
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


def _positions(perm: Mapping[str, str], domain: AnyonSystem, codomain: AnyonSystem, what: str,
               rule):
    """The codomain position of each domain label's image, in domain label
    order.  Raises unless ``perm`` maps the labels bijectively and keeps
    ``rule``, the :func:`_relabelling_rule` of the two systems.  The first
    changed dimension or twist is named in the map's own order, the first
    broken antiparticle pair by its first domain label."""
    fault, _, cod_dual = rule
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
        change = fault[i, j]
        if change:
            raise ValueError(f"{what} does not preserve the {FAULTS[change]} of {a!r}")
        at[i] = j
    if cod_dual is not None:
        for k, kbar in enumerate(domain.antiparticles):
            if at[kbar] != cod_dual[at[k]]:
                raise ValueError(f"{what} does not preserve the antiparticle of {domain.labels[k]!r}")
    return at


def apply_permutation(duality: PermutationDuality, rho: SectorState) -> SectorState:
    """Reindex a state by the source permutation: the new weight of
    sigma(a) is the old weight of a."""
    system = rho.system
    rule = _relabelling_rule(system, system)
    out = np.empty_like(rho.probs)
    out[_positions(duality.source_perm, system, system, "source_perm", rule)] = rho.probs
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
    sigma_rule, tau_rule = _relabelling_rule(source, source), _relabelling_rule(cA, cB)
    sigmas, taus = [], []
    for d in dualities:
        sigmas.append(_positions(d.source_perm, source, source, "source_perm", sigma_rule))
        taus.append(_positions(d.condensed_perm, cA, cB, "condensed_perm", tau_rule))
    return _residuals(bA, bB, np.array(sigmas, dtype=np.intp), np.array(taus, dtype=np.intp),
                      trials, seed)


def _residuals(bA: BranchingData, bB: BranchingData, sigmas: np.ndarray, taus: np.ndarray,
               trials: int, seed: int) -> np.ndarray:
    """:func:`verify_dualities` on position arrays that keep the rule, as
    :func:`_search` returns them: ``sigmas[r, a]`` is the source position of
    sigma(a), ``taus[r, t]`` the position in ``bB.condensed`` of tau(t)."""
    if not len(sigmas):
        return np.empty(0)
    source, cA = bA.source, bA.condensed
    # sigma moves the weight of a to b = sigma(a), so the gather reads b from a.
    moves = np.empty_like(sigmas)
    np.put_along_axis(moves, sigmas, np.arange(len(source)), axis=1)
    # n_B[a, tau(t)] - n_A[sigma(a), t] over every (a, t), per duality, read at b = sigma(a).
    gaps = np.abs(bB.n[moves[:, :, None], taus[:, None, :]] - bA.n).max(axis=(1, 2)).astype(float)
    if trials == 0:
        return gaps
    raw = np.random.default_rng(seed).random((trials, len(source))) + 1e-12
    rho = raw / raw.sum(axis=1, keepdims=True)
    lhs = condensation(bB).restrict(rho)
    per_block = max(1, VERIFY_BLOCK_ROWS // trials)
    for lo in range(0, len(sigmas), per_block):
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


FAULTS = (None, "vacuum", "dimension", "twist")


def _relabelling_rule(domain: AnyonSystem, codomain: AnyonSystem):
    """The one rule a label bijection domain -> codomain must keep, as
    ``(fault, pairs, cod_dual)``.  ``fault[i, j]`` is the index in ``FAULTS``
    of what relabelling domain sector i as codomain sector j changes: 0 when
    it is kept, else the first of the vacuum, the dimension (beyond
    ``DEFAULT_TOL``; a nan dimension is never kept) and the twist (when both
    systems declare twists).  When both systems declare duals, antiparticle
    pairs are kept too: ``pairs[i]`` lists the pairs (k, dual(k)) whose
    images are both known once domain index i is placed, and ``cod_dual`` is
    the codomain's antiparticle positions as an array; otherwise the lists
    are empty and ``cod_dual`` is None."""
    vacuum = (np.arange(len(domain)) == domain.vacuum_index)[:, None] != (
        np.arange(len(codomain)) == codomain.vacuum_index)
    dimension = ~(np.abs(domain.dim_array[:, None] - codomain.dim_array) <= DEFAULT_TOL)
    twist = False
    if domain.twist_ratios is not None and codomain.twist_ratios is not None:
        classes = {}
        ids_a, ids_b = (np.array([classes.setdefault(r, len(classes)) for r in system.twist_ratios])
                        for system in (domain, codomain))
        twist = ids_a[:, None] != ids_b
    fault = np.where(vacuum, 1, np.where(dimension, 2, 3 * twist))
    pairs = [[] for _ in domain.labels]
    cod_dual = None
    if domain.antiparticles is not None and codomain.antiparticles is not None:
        for k, kbar in enumerate(domain.antiparticles):
            pairs[max(k, kbar)].append((k, kbar))
        cod_dual = np.array(codomain.antiparticles, dtype=np.intp)
    return fault, pairs, cod_dual


def _extend(images, used, allowed, pairs, cod_dual):
    """One step of a frontier of partial label bijections: each row of
    ``images`` (with its ``used`` codomain indices) extended by every image
    of the next domain label that ``allowed`` admits and the row has not
    used.  ``allowed`` is one boolean row shared by every entry, or one row
    per entry.  The extensions come out in row-major order, entry then
    image, which keeps the frontier in lexicographic order; those that break
    an antiparticle pair (k, kbar) of ``pairs`` are dropped.  Returns the
    entry each kept extension grew from, and the new ``images`` and ``used``.
    """
    entry, image = np.nonzero(allowed & ~used)
    images = np.column_stack((images[entry], image))
    used = used[entry]
    used[np.arange(len(entry)), image] = True
    if pairs:
        keep = np.logical_and.reduce([images[:, kbar] == cod_dual[images[:, k]] for k, kbar in pairs])
        entry, images, used = entry[keep], images[keep], used[keep]
    return entry, images, used


# The default label cap of find_dualities and of the duality command.
LABEL_CAP = 8
# Each column key of the sigma search is updated row by row as
# key * KEY_MULTIPLIER + entry in wrapping int64, so that two columns that
# differ rarely share a key; equal columns always do.
KEY_MULTIPLIER = 0x5851F42D4C957F2D


def _sigmas(nA: np.ndarray, nB: np.ndarray, rule) -> np.ndarray:
    """Every sigma, as an (S, m) array of image tuples in lexicographic
    order, that keeps ``rule`` and maps each row i of ``nB`` to a row
    sigma(i) of ``nA`` with the same multiset of entries, and under which
    the columns of ``nA`` read through sigma are those of ``nB`` as a
    multiset.  That last test runs after every row on the partial columns'
    keys; keys that collide can only keep extra sigma."""
    fault, pairs, cod_dual = rule
    rows_a, rows_b = np.sort(nA, axis=1), np.sort(nB, axis=1)
    allowed = (fault == 0) & (rows_b[:, None] == rows_a[None]).all(axis=2)
    images = np.empty((1, 0), dtype=np.intp)
    used = np.zeros((1, len(nA)), dtype=bool)
    keys_a = np.zeros((1, nA.shape[1]), dtype=np.int64)
    keys_b = np.zeros(nB.shape[1], dtype=np.int64)
    for i in range(len(nA)):
        entry, images, used = _extend(images, used, allowed[i], pairs[i], cod_dual)
        keys_a = keys_a[entry] * KEY_MULTIPLIER + nA[images[:, i]]
        keys_b = keys_b * KEY_MULTIPLIER + nB[i]
        keep = (np.sort(keys_a, axis=1) == np.sort(keys_b)).all(axis=1)
        images, used, keys_a = images[keep], used[keep], keys_a[keep]
    return images


def _taus(nA: np.ndarray, nB: np.ndarray, sigmas: np.ndarray, rule):
    """Every tau for each of ``sigmas`` that keeps ``rule`` and maps
    each column t of ``nA``, read through sigma, to an equal column tau(t)
    of ``nB``: the (sigma, tau) pairs as two arrays, by sigma then tau.
    The sigmas go in blocks whose column comparison holds at most
    ``search.FILL_CHUNK`` cells."""
    fault, pairs, cod_dual = rule
    m, k = nA.shape
    per = max(1, search.FILL_CHUNK // (m * k * k))
    out_sigmas, out_taus = [sigmas[:0]], [np.empty((0, k), dtype=np.intp)]
    for lo in range(0, len(sigmas), per):
        block = sigmas[lo : lo + per]
        # fits[s, t, u]: column t of nA read through sigma s is column u of nB.
        fits = (nA[block][..., None] == nB[:, None]).all(axis=1) & (fault == 0)
        owner = np.arange(len(block))
        images = np.empty((len(block), 0), dtype=np.intp)
        used = np.zeros((len(block), k), dtype=bool)
        for t in range(k):
            entry, images, used = _extend(images, used, fits[owner, t], pairs[t], cod_dual)
            owner = owner[entry]
        out_sigmas.append(block[owner])
        out_taus.append(images)
    return np.concatenate(out_sigmas), np.concatenate(out_taus)


def _search(bA: BranchingData, bB: BranchingData, label_cap: int):
    """The dualities of :func:`find_dualities` as position arrays in its
    order: ``sigmas[r, a]`` is the source position of sigma(a) and
    ``taus[r, t]`` the position in ``bB.condensed`` of tau(t)."""
    if bA.source != bB.source:
        raise ValueError("dualities compare branchings of one source system")
    for system in (bA.source, bA.condensed, bB.condensed):
        if len(system) > label_cap:
            raise ValueError(f"{len(system)} labels exceed the search cap {label_cap}")
    source, cA, cB = bA.source, bA.condensed, bB.condensed
    if abs(jones_index(bA) - jones_index(bB)) > DEFAULT_TOL or len(cA) != len(cB):
        return np.empty((0, len(source)), dtype=np.intp), np.empty((0, len(cA)), dtype=np.intp)
    sigmas = _sigmas(bA.n, bB.n, _relabelling_rule(source, source))
    return _taus(bA.n, bB.n, sigmas, _relabelling_rule(cA, cB))


def _labelled(domain: AnyonSystem, codomain: AnyonSystem, image) -> dict[str, str]:
    perm = {domain.vacuum: codomain.vacuum}
    perm.update((a, codomain.labels[j]) for a, j in zip(domain.labels, image))
    return perm


def find_dualities(
    bA: BranchingData,
    bB: BranchingData,
    label_cap: int = LABEL_CAP,
) -> list[PermutationDuality]:
    """All permutation dualities between two branchings of one source.

    Grows every admissible source permutation sigma one label at a time, as
    one array frontier: source label a may go only where it keeps its
    sector data and where row sigma(a) of ``n_A`` equals row a of ``n_B``
    as a multiset, and a partial sigma stays only while the columns of
    ``n_A`` on the rows placed so far, read through it, are those of ``n_B``
    as a multiset.  For each sigma, tau(t) may only be a condensed label
    whose column of ``n_B`` is column t of ``n_A`` read through sigma; the
    taus of every sigma grow as a second frontier.  So every pair found
    satisfies the coefficient identity exactly.  The result is ordered by
    sigma, then tau, each lexicographically by its image tuple.  Raises
    when the source systems differ or a label count exceeds ``label_cap``.
    """
    source, cA, cB = bA.source, bA.condensed, bB.condensed
    sigmas, taus = _search(bA, bB, label_cap)
    return [
        PermutationDuality(_labelled(source, source, sigma), _labelled(cA, cB, tau))
        for sigma, tau in zip(sigmas.tolist(), taus.tolist())
    ]
