"""Condensation and lifting channels on superselected sector states.

States are diagonal in the sector basis (superselection forbids coherences
across sectors), so a state is just a probability vector indexed by labels.
For a branching matrix n with index lam the two channels act as

    restrict:  p_t = sum_a n[a, t] * (d_t / d_a) * p_a
    lift:      p_a = (1 / lam) * sum_t n[a, t] * (d_a / d_t) * p_t

Both preserve total probability, courtesy of the two quantum-dimension
constraints.  Their composition lift(restrict(rho)) is the condensed-and-
lifted image of rho; it can equivalently be computed in one step from the
overlap matrix n @ n.T (:func:`lift_coarse`).

A branching is compiled once (:func:`condensation`) into the two
row-stochastic matrices of these channels.  Every channel is a product of
rows of probabilities with them, on a single state or on a stack of states
at once; the public functions taking :class:`SectorState` are that product
on one row, validated at the boundary.

The same channels are realised as explicit Kraus matrices, every set built
by one builder over the channel list (the pairs (a, t) with n[a, t] > 0)
from the two compiled matrices: on the block space of the source and
condensed labels together, or on the channel-resolved basis with one vector
per copy of each channel.  The module ships executable verifications of the
projector property of the restriction channel (idempotence of the round
trip) and of its bimodule property with respect to lifted condensed
operators.  The conditional expectation is a projector at the operator
level; on sector distributions the round trip is idempotent only when
restrict(lift(.)) fixes the image of restrict (see :func:`verify_idempotence`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branching import BranchingData, dimension_violations, jones_index
from .systems import AnyonSystem


class SystemMismatchError(ValueError):
    """A state or operator is indexed by a different system than required."""


class NotCondensableError(ValueError):
    """A branching whose channels would not preserve probability;
    ``violations`` names each broken dimension constraint and its sector."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "branching is not condensable: "
            + "; ".join(f"{v.rule}: {v.detail}" for v in self.violations)
        )


def check_probs(p: np.ndarray) -> None:
    """Boundary check of one probability vector or a stack of them (rows):
    finite, non-negative, each summing to one within ``1e-9``."""
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0):
        raise ValueError(f"negative probability: min entry {p.min()!r}")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"probabilities sum to {sums[off][0]!r}, not 1")


@dataclass(frozen=True, eq=False)
class SectorState:
    """Probability distribution over the sectors of one system.

    Equivalent to the density matrix sum_a p_a * Pi_a in diagonal form.
    Entries must be non-negative and sum to one within ``1e-9``.
    """

    system: AnyonSystem
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.system),):
            raise ValueError(f"expected {len(self.system)} probabilities, got shape {p.shape}")
        check_probs(p)
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SectorState):
            return NotImplemented
        return self.system == other.system and np.array_equal(self.probs, other.probs)


def _channel_output(system: AnyonSystem, probs: np.ndarray) -> SectorState:
    # A stochastic matrix maps a checked state to a state, so the output of
    # a compiled channel skips the boundary check.
    state = object.__new__(SectorState)
    probs.setflags(write=False)
    object.__setattr__(state, "system", system)
    object.__setattr__(state, "probs", probs)
    return state


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Diagonal observable sum_a c_a * Pi_a; coefficients need not be positive."""

    system: AnyonSystem
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (len(self.system),):
            raise ValueError(f"expected {len(self.system)} coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def _rows_times(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    # p @ m for one row or a stack of rows.  einsum adds the products of
    # each entry in the same order whatever the number of rows; BLAS picks
    # other kernels (and roundings) for one row, a few rows and many, so a
    # chunked evaluation would not reproduce an unchunked one bit for bit.
    return np.einsum("...i,ij->...j", p, m)


@dataclass(frozen=True, eq=False)
class Condensation:
    """A branching compiled into the matrices of its channels.

    Rows of probabilities multiply from the left: ``restriction[a, t] =
    n[a, t] * d_t / d_a`` and ``lifting[t, a] = n[a, t] * d_a / (lam * d_t)``.
    The coarse form of their product uses the overlap matrix M = n @ n.T
    instead, applied as ``n`` then ``n.T`` so that no n_source x n_source
    array is formed.  Built by :func:`condensation` only, which checks that
    both channel matrices are stochastic.
    """

    lam: float
    source_dims: np.ndarray
    restriction: np.ndarray
    lifting: np.ndarray
    n: np.ndarray

    def restrict(self, p: np.ndarray) -> np.ndarray:
        return _rows_times(p, self.restriction)

    def lift(self, sigma: np.ndarray) -> np.ndarray:
        return _rows_times(sigma, self.lifting)

    def round_trip(self, p: np.ndarray) -> np.ndarray:
        return self.lift(self.restrict(p))

    def lift_coarse(self, p: np.ndarray) -> np.ndarray:
        """p~_a = (1/lam) sum_b M[a, b] * (d_a / d_b) * p_b."""
        d = self.source_dims
        return d / self.lam * _rows_times(_rows_times(p / d, self.n), self.n.T)


def condensation(b: BranchingData) -> Condensation:
    """The compiled form of ``b``, built on first use and kept on ``b``.

    Keeping it is safe because ``n`` and both systems are read-only.  Raises
    :class:`NotCondensableError` naming the rule (``dim-restriction`` or
    ``dim-lift``) and the sector when a quantum-dimension constraint fails
    by more than ``1e-9``, since the channels would then not preserve
    probability.  This is the check of the tolerance rule stated in
    :func:`~anycond.branching.validate_branching`, kept here for callers
    that skip validation.
    """
    compiled = b.__dict__.get("_condensation")
    if compiled is not None:
        return compiled
    lam = jones_index(b)
    bad = dimension_violations(b, lam)
    if bad:
        raise NotCondensableError(bad)
    d_a, d_t = b.source_dims, b.condensed_dims
    arrays = (
        d_a,
        b.n * d_t / d_a[:, None],
        (b.n * d_a[:, None] / d_t).T / lam,
        b.n.astype(float),
    )
    for a in arrays:
        a.setflags(write=False)
    compiled = Condensation(lam, *arrays)
    object.__setattr__(b, "_condensation", compiled)
    return compiled


def _require_source(b: BranchingData, rho: SectorState):
    if rho.system != b.source:
        raise SystemMismatchError("state is not indexed by the source system")


def _require_condensed(b: BranchingData, sigma: SectorState):
    if sigma.system != b.condensed:
        raise SystemMismatchError("state is not indexed by the condensed system")


def restrict(b: BranchingData, rho: SectorState) -> SectorState:
    """Condense a source state: p_t = sum_a n[a, t] * (d_t / d_a) * p_a."""
    _require_source(b, rho)
    return _channel_output(b.condensed, condensation(b).restrict(rho.probs))


def lift(b: BranchingData, sigma: SectorState) -> SectorState:
    """Lift a condensed state back: p_a = (1/lam) sum_t n[a, t] * (d_a / d_t) * p_t."""
    _require_condensed(b, sigma)
    return _channel_output(b.source, condensation(b).lift(sigma.probs))


def round_trip(b: BranchingData, rho: SectorState) -> SectorState:
    """The condensed-and-lifted image lift(restrict(rho)) of a source state."""
    return lift(b, restrict(b, rho))


def lift_coarse(b: BranchingData, rho: SectorState) -> SectorState:
    """Round trip in one step via the overlap matrix M = n @ n.T:

    p_a = (1/lam) sum_b M[a, b] * (d_a / d_b) * p_b.
    """
    _require_source(b, rho)
    return _channel_output(b.source, condensation(b).lift_coarse(rho.probs))


# ---------------------------------------------------------------------------
# Explicit Kraus matrices on a block space: one basis vector per source-side
# entry, then one per condensed sector.  The matrix unit |t><a| realises the
# partial isometry sending sector a to sector t.  On the label-level basis
# the source-side entries are the source sectors.  On the channel-resolved
# basis they are the channel copies (a, t, copy), n[a, t] of each pair; there
# Lambda[t, a] @ Lambda[a, s] = delta_ts * Pi_t holds exactly, which the
# label-level basis cannot host once a sector splits into several condensed
# channels.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Explicit channel matrices on a combined source + condensed basis.

    ``direction`` is "restriction" (one operator per source sector, jointly
    satisfying sum_a K_a^dag K_a = identity on the source block) or
    "lifting" (one operator per source sector, jointly satisfying
    sum_a tr(L_a L_a^dag) = number of condensed sectors).
    """

    branching: BranchingData
    operators: tuple[np.ndarray, ...]
    direction: str

    @property
    def block_dim(self) -> int:
        return self.operators[0].shape[0]

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """sum_i K_i @ mat @ K_i^dag."""
        out = np.zeros((self.block_dim, self.block_dim), dtype=complex)
        for k in self.operators:
            out += k @ mat @ k.conj().T
        return out


def _channels(b: BranchingData, resolved: bool) -> tuple[np.ndarray, np.ndarray]:
    """Source and condensed index of each channel: one per pair (a, t) with
    n[a, t] > 0, or, channel-resolved, n[a, t] copies of each pair."""
    i, j = np.nonzero(b.n)
    if resolved:
        copies = b.n[i, j]
        i, j = np.repeat(i, copies), np.repeat(j, copies)
    return i, j


def _kraus_set(b: BranchingData, direction: str, resolved: bool = False) -> KrausSet:
    """One read-only matrix per source sector a, holding the square root of
    each weight of the compiled channel at its matrix unit: restriction
    sends the source-side vector of a channel (a, t) to t, lifting sends t
    back.  A channel copy carries 1 / n[a, t] of its pair's weight, so the
    copies of a pair add up to the label-level channel."""
    i, j = _channels(b, resolved)
    if resolved:
        source_side, offset, copies = np.arange(len(i)), len(i), b.n[i, j]
    else:
        source_side, offset, copies = i, len(b.source), 1
    compiled, dim = condensation(b), offset + len(b.condensed)
    ops = np.zeros((len(b.source), dim, dim), dtype=complex)
    if direction == "restriction":
        ops[i, offset + j, source_side] = np.sqrt(compiled.restriction[i, j] / copies)
    else:
        ops[i, source_side, offset + j] = np.sqrt(compiled.lifting[j, i] / copies)
    ops.setflags(write=False)
    return KrausSet(b, tuple(ops), direction)


def kraus_restriction(b: BranchingData) -> KrausSet:
    """One matrix per source sector a, with entry sqrt(n[a,t] * d_t / d_a)
    sending basis vector a to basis vector t."""
    return _kraus_set(b, "restriction")


def kraus_lifting(b: BranchingData) -> KrausSet:
    """One matrix per source sector a, with entry
    sqrt(n[a,t] * d_a / (lam * d_t)) sending basis vector t to basis vector a."""
    return _kraus_set(b, "lifting")


def _diagonal(values: np.ndarray, dim: int, start: int) -> np.ndarray:
    """The dim x dim matrix with ``values`` on its diagonal from ``start``."""
    mat = np.zeros((dim, dim), dtype=complex)
    k = np.arange(start, start + len(values))
    mat[k, k] = values
    return mat


def embed_source(b: BranchingData, rho: SectorState) -> np.ndarray:
    """Diagonal embedding of a source state into the block space."""
    _require_source(b, rho)
    return _diagonal(rho.probs, len(b.source) + len(b.condensed), 0)


def embed_condensed(b: BranchingData, sigma: SectorState) -> np.ndarray:
    """Diagonal embedding of a condensed state into the block space."""
    _require_condensed(b, sigma)
    return _diagonal(sigma.probs, len(b.source) + len(b.condensed), len(b.source))


def condensed_block_probs(b: BranchingData, mat: np.ndarray) -> np.ndarray:
    return np.real(np.diag(mat)[len(b.source) :])


def source_block_probs(b: BranchingData, mat: np.ndarray) -> np.ndarray:
    return np.real(np.diag(mat)[: len(b.source)])


def kraus_invariant_residual(ks: KrausSet) -> float:
    """Deviation from the defining Kraus identity of the set.

    Restriction sets: max-norm of sum K^dag K minus the identity of the
    source block.  Lifting sets: |sum tr(L L^dag) - |condensed||.
    """
    if ks.direction == "restriction":
        acc = np.zeros((ks.block_dim, ks.block_dim), dtype=complex)
        for k in ks.operators:
            acc += k.conj().T @ k
        na = len(ks.branching.source)
        want = np.zeros_like(acc)
        want[:na, :na] = np.eye(na)
        return float(np.max(np.abs(acc - want)))
    total = sum(np.trace(k @ k.conj().T).real for k in ks.operators)
    return float(abs(total - len(ks.branching.condensed)))


def verify_idempotence(b: BranchingData, rho: SectorState) -> float:
    """Max-norm gap between restrict(round_trip(rho)) and restrict(rho).

    On condensed states lift followed by restrict is the matrix
    Gamma = D_t (n.T @ n) D_t^{-1} / lam with D_t = diag(d_t), so the gap is
    exactly max|(Gamma - I) @ restrict(rho)|.  It vanishes on every state
    precisely when Gamma fixes the image of the restriction.  That holds
    when no source sector feeds two condensed sectors (Gamma is then the
    identity), and also for some shared parents: in the Rep(S3)
    condensation of 1 + X, Y -> t1 + t2 and Gamma averages t1 and t2,
    which restricted states already weight equally.  It fails for the
    Rep(S3) condensation of 1 + Y, where n.T @ n = [[2, 1], [1, 2]] and
    lam = 3 give Gamma the eigenvalues 1 and 1/3 and a gap of
    |p_1 - p_X| / 3.  There the conditional expectation, onto the group
    algebra of the non-normal subgroup Z2 of S3, is still a projector on
    operators, but it maps central states to non-central ones, so the
    composition of the sector-level channels is not the image of E o E.
    """
    once = restrict(b, rho)
    twice = restrict(b, round_trip(b, rho))
    return float(np.max(np.abs(twice.probs - once.probs)))


def verify_bimodule(
    b: BranchingData,
    p: DiagonalOperator,
    q: DiagonalOperator,
    m: DiagonalOperator,
) -> float:
    """Residual of restrict(lift(p) * m * lift(q)) = p * restrict(m) * q.

    ``p`` and ``q`` are diagonal operators over the condensed system, ``m``
    over the source.  The left side is evaluated by explicit matrix algebra
    in the channel-resolved basis: a lifted condensed operator acts with its
    coefficient c_t on every channel copy (a, t, copy), the operator image of
    the sector-level lift t -> sum_a n[a, t] * a, and the restriction acts by
    its Kraus matrices.  The right side multiplies the restricted
    coefficients m_t = sum_a n[a, t] * (d_t / d_a) * m_a by p_t and q_t.
    Off-diagonal leakage on the condensed block counts towards the residual.
    """
    if p.system != b.condensed or q.system != b.condensed:
        raise SystemMismatchError("p and q must be diagonal operators over the condensed system")
    if m.system != b.source:
        raise SystemMismatchError("m must be a diagonal operator over the source system")

    i, j = _channels(b, resolved=True)
    ks = _kraus_set(b, "restriction", resolved=True)
    sandwich = _diagonal(p.coeffs[j] * m.coeffs[i] * q.coeffs[j], ks.block_dim, 0)
    out = ks.apply(sandwich)

    want = p.coeffs * condensation(b).restrict(m.coeffs) * q.coeffs
    residual = float(np.max(np.abs(np.diag(out)[len(i) :].real - want)))
    np.fill_diagonal(out, 0.0)
    return max(residual, float(np.max(np.abs(out))))
