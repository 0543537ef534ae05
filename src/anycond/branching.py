"""Branching data of a condensable algebra and its consistency equations.

A symmetry-breaking pattern is recorded as the non-negative integer matrix
n[a, t] telling how each sector a of the uncondensed system decomposes into
sectors t of the condensed one,

    a -> sum_t n[a, t] * t.

Condensability at this level means the two quantum-dimension constraints

    d_a = sum_t n[a, t] * d_t                 (row sums, weighted)
    lam * d_t = sum_a n[a, t] * d_a           (column sums, weighted)

where lam = sum_a n[a, vacuum_t] * d_a is the quantum dimension of the
condensed vacuum.  lam equals the index of the inclusion of the condensed
observable algebra inside the uncondensed one, and equals the ratio of the
total quantum dimensions, lam = D2(source) / D2(condensed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import (
    DEFAULT_TOL,
    AnyonSystem,
    ValidationReport,
    Violation,
    total_dim_sq,
    validate_system,
)


def _as_int_matrix(raw, rows: int, cols: int) -> np.ndarray:
    n = np.asarray(raw)
    if n.shape != (rows, cols):
        raise ValueError(f"branching matrix has shape {n.shape}, expected {(rows, cols)}")
    kind = n.dtype.kind
    # An object array holds ints beyond int64, or no numbers at all.
    if kind not in "biuf" or kind in "uf" and np.any(n >= 2**63):
        raise ValueError("branching coefficients must be integers below 2**63")
    if kind == "f" and not np.array_equal(np.rint(n), n):
        raise ValueError("branching coefficients must be integers")
    if np.any(n < 0):
        raise ValueError("branching coefficients must be non-negative")
    n = n.astype(np.int64)
    n.setflags(write=False)
    return n


@dataclass(frozen=True, eq=False)
class BranchingData:
    """One condensation pattern: source system, condensed system, matrix n.

    Rows of ``n`` follow the source label order, columns the condensed label
    order.  The matrix is coerced to a read-only int array; negative or
    fractional entries are rejected at construction.  All semantic checks
    (the dimension constraints, antiparticle symmetry, the boson condition)
    live in :func:`validate_branching`.
    """

    source: AnyonSystem
    condensed: AnyonSystem
    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "n", _as_int_matrix(self.n, len(self.source), len(self.condensed))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BranchingData):
            return NotImplemented
        return (
            self.source == other.source
            and self.condensed == other.condensed
            and np.array_equal(self.n, other.n)
        )

    @property
    def vacuum_column_index(self) -> int:
        return self.condensed.vacuum_index

    @property
    def vacuum_column(self) -> np.ndarray:
        return self.n[:, self.vacuum_column_index]

    @property
    def source_dims(self) -> np.ndarray:
        return self.source.dim_array

    @property
    def condensed_dims(self) -> np.ndarray:
        return self.condensed.dim_array


@dataclass(frozen=True)
class CondensableAlgebra:
    """The condensate as a weighted sum of source sectors.

    ``coefficients[a]`` is the multiplicity with which sector a enters the
    condensed vacuum; it is the vacuum column of a branching matrix.  The
    source vacuum always enters exactly once.
    """

    system: AnyonSystem
    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != len(self.system):
            raise ValueError("one coefficient per source sector required")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be non-negative")
        if coeffs[self.system.vacuum_index] != 1:
            raise ValueError("the source vacuum must enter the condensate exactly once")

    @classmethod
    def from_labels(cls, system: AnyonSystem, weights: dict[str, int]) -> "CondensableAlgebra":
        coeffs = [0] * len(system)
        for label, w in weights.items():
            coeffs[system.index(label)] = int(w)
        return cls(system, tuple(coeffs))


def condensable_algebra(b: BranchingData) -> CondensableAlgebra:
    """The vacuum column of ``b`` viewed as a condensable algebra."""
    return CondensableAlgebra(b.source, tuple(int(c) for c in b.vacuum_column))


def jones_index(b: BranchingData) -> float:
    """Index of the inclusion, lam = sum_a n[a, vacuum] * d_a.

    Equals the quantum dimension of the condensed vacuum.  The agreement
    with the ratio D2(source)/D2(condensed) is recorded as a residual by
    :func:`validate_branching`.
    """
    return float(b.vacuum_column @ b.source_dims)


def overlap_matrix(b: BranchingData) -> np.ndarray:
    """Symmetric pairing M[a, b] = sum_t n[a, t] * n[b, t] (that is, n @ n.T).

    Counts shared condensation channels between two source sectors; it is
    positive semidefinite by construction and drives the coarse form of the
    lifted probabilities.
    """
    return b.n @ b.n.T


def is_lagrangian(b: BranchingData, tol: float = DEFAULT_TOL) -> bool:
    """Whether the condensate swallows everything: all sectors enter the
    vacuum column and lam = D2(source), so the condensed theory is trivial."""
    lam = jones_index(b)
    return bool(np.all(b.vacuum_column > 0)) and abs(lam - total_dim_sq(b.source)) <= tol


def dimension_violations(b: BranchingData, lam: float, tol: float = DEFAULT_TOL) -> list[Violation]:
    """The two quantum-dimension constraints, each summed as one matrix-vector
    product; one violation per sector that breaks it.

    ``dim-restriction`` names a source sector a with sum_t n[a, t] * d_t
    != d_a, ``dim-lift`` a condensed sector t with sum_a n[a, t] * d_a
    != lam * d_t.  Together they make both channels stochastic.
    """
    rows = (b.n @ b.condensed_dims).tolist()
    cols = (b.n.T @ b.source_dims).tolist()
    # Scanning the sums as Python floats is faster than more numpy calls
    # for the few sectors of a typical system.
    return [
        Violation("dim-restriction", f"sector {label!r}: sum_t n*d_t = {r!r} != d_a = {d!r}")
        for label, r, d in zip(b.source.labels, rows, b.source.dims)
        if abs(r - d) > tol
    ] + [
        Violation(
            "dim-lift",
            f"condensed sector {label!r}: sum_a n*d_a = {c!r} != lam*d_t = {lam * d!r}",
        )
        for label, c, d in zip(b.condensed.labels, cols, b.condensed.dims)
        if abs(c - lam * d) > tol
    ]


def boson_violations(source: AnyonSystem, vacuum_column) -> list[Violation]:
    """One violation per sector of the vacuum column whose twist is not
    trivial; none when the source declares no twists."""
    if source.twist is None:
        return []
    return [
        Violation("boson-condition", f"condensed sector {a!r} is not a boson")
        for a, c in zip(source.labels, vacuum_column)
        if c > 0 and source.twist.get(a, 0) != 0
    ]


def validate_branching(b: BranchingData, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every branching invariant; empty report means condensable.

    The tolerance rule: the two quantum-dimension constraints are checked at
    ``min(tol, DEFAULT_TOL)``, the tolerance at which
    :func:`~anycond.channels.condensation` compiles the channels, and every
    other rule at ``tol``.  So an ``ok`` report, at any ``tol``, means the
    branching compiles.

    Optional antiparticle and twist data gate the corresponding checks:
    when the data is missing the check lands in ``unchecked``.  Metrics
    carry the index and its residual against D2(source)/D2(condensed).
    """
    bad: list[Violation] = []
    unchecked: list[str] = []

    for prefix, system in (("source", b.source), ("condensed", b.condensed)):
        sub = validate_system(system, tol)
        bad.extend(Violation(f"{prefix}:{v.rule}", v.detail) for v in sub.violations)

    phi = b.vacuum_column_index
    lam = jones_index(b)

    vac_row = b.n[b.source.vacuum_index]
    want = np.zeros(len(b.condensed), dtype=np.int64)
    want[phi] = 1
    if not np.array_equal(vac_row, want):
        bad.append(
            Violation("vacuum-row", "source vacuum must restrict to the condensed vacuum alone")
        )

    bad.extend(dimension_violations(b, lam, min(tol, DEFAULT_TOL)))

    for j, label in enumerate(b.condensed.labels):
        if not np.any(b.n[:, j]):
            bad.append(Violation("empty-column", f"condensed sector {label!r} receives nothing"))

    if b.source.dual is not None and b.condensed.dual is not None:
        n = b.n
        flipped = n[b.source.dual_indices()][:, b.condensed.dual_indices()]
        for i, j in zip(*np.nonzero(flipped != n)):
            a, t = b.source.labels[i], b.condensed.labels[j]
            bad.append(
                Violation(
                    "dual-symmetry",
                    f"n[{a!r},{t!r}] = {n[i, j]} but the antiparticle entry is {flipped[i, j]}",
                )
            )
    else:
        unchecked.append("dual-symmetry")

    if b.source.twist is not None:
        bad.extend(boson_violations(b.source, b.vacuum_column))
    else:
        unchecked.append("boson-condition")

    dim_ratio = total_dim_sq(b.source) / total_dim_sq(b.condensed)
    metrics = {
        "jones_index": lam,
        "dim_ratio": dim_ratio,
        "index_residual": abs(lam - dim_ratio),
    }
    if metrics["index_residual"] > tol:
        bad.append(Violation("index-ratio", f"index {lam!r} != D2 ratio {dim_ratio!r}"))

    return ValidationReport(tuple(bad), tuple(unchecked), metrics)
