"""Anyon systems: labelled superselection sectors with quantum dimensions.

An :class:`AnyonSystem` is the minimal data this library needs about a
topological phase: an ordered list of sector labels, one positive quantum
dimension per sector, and a distinguished vacuum sector of dimension 1.
Antiparticle (dual) maps and topological twists are optional extras that
enable additional consistency checks downstream; their absence is reported
as "unchecked", never as "passed".

Label order is significant and fixed at construction.  Every matrix and
probability vector elsewhere in the package indexes sectors by this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a short rule id plus a detail naming the culprit."""

    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a consistency check.

    ``violations`` lists every broken invariant (empty means valid),
    ``unchecked`` names checks that were skipped because optional data is
    absent, and ``metrics`` carries numeric diagnostics such as residuals.
    """

    violations: tuple[Violation, ...] = ()
    unchecked: tuple[str, ...] = ()
    metrics: Mapping[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"rule": v.rule, "detail": v.detail} for v in self.violations],
            "unchecked": list(self.unchecked),
            "metrics": dict(self.metrics),
        }


def _normalize_twist(value) -> Fraction:
    # Twists are rational fractions of a full turn, reduced mod 1 so that
    # the trivial twist is exactly Fraction(0).  A Fraction already in
    # [0, 1) is kept as it is: Fractions are immutable and always reduced.
    twist = value if isinstance(value, Fraction) else Fraction(value)
    return twist if 0 <= twist.numerator < twist.denominator else twist % 1


@dataclass(frozen=True)
class AnyonSystem:
    """Ordered sector labels with quantum dimensions.

    Parameters
    ----------
    labels:
        Unique, ordered sector names.
    dims:
        Quantum dimension d_a per label, same order.  Stored as floats;
        consistency checks use an absolute tolerance so irrational
        dimensions are admissible.
    vacuum:
        Label of the trivial sector (must satisfy d = 1).
    dual:
        Optional antiparticle map, expected to be a dimension-preserving
        involution fixing the vacuum.
    twist:
        Optional topological twist per label, stored as a rational multiple
        of a full turn and compared exactly.  The trivial twist is 0.
    """

    labels: tuple[str, ...]
    dims: tuple[float, ...]
    vacuum: str
    dual: Mapping[str, str] | None = None
    twist: Mapping[str, Fraction] | None = None

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        try:
            dims = tuple(float(d) for d in self.dims)
        except OverflowError:
            raise ValueError("a dim is too large for a float") from None
        position = {label: i for i, label in enumerate(labels)}
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_position", position)
        if len(position) != len(labels):
            raise ValueError("sector labels must be unique")
        if len(dims) != len(labels):
            raise ValueError(f"got {len(dims)} dims for {len(labels)} labels")
        if self.vacuum not in labels:
            raise ValueError(f"vacuum label {self.vacuum!r} is not a sector")
        if self.dual is not None:
            dual = {str(k): str(v) for k, v in self.dual.items()}
            unknown = (dual.keys() | set(dual.values())) - position.keys()
            if unknown:
                raise ValueError(f"dual map references unknown labels {sorted(unknown)}")
            object.__setattr__(self, "dual", dual)
        if self.twist is not None:
            twist = {str(k): _normalize_twist(v) for k, v in self.twist.items()}
            unknown = twist.keys() - position.keys()
            if unknown:
                raise ValueError(f"twist data references unknown labels {sorted(unknown)}")
            object.__setattr__(self, "twist", twist)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a sector") from None

    def dim_of(self, label: str) -> float:
        return self.dims[self.index(label)]

    @property
    def dim_array(self) -> np.ndarray:
        return np.asarray(self.dims, dtype=float)

    @property
    def vacuum_index(self) -> int:
        return self.index(self.vacuum)

    def dual_indices(self) -> list[int]:
        """Position of the antiparticle of each sector, in label order; a
        label the dual map omits is its own antiparticle.  Needs dual data."""
        return [self._position[self.dual.get(a, a)] for a in self.labels]

    def is_integral(self, tol: float = DEFAULT_TOL) -> bool:
        """True when every quantum dimension is an integer within ``tol``."""
        return all(abs(d - round(d)) <= tol for d in self.dims)


def total_dim_sq(system: AnyonSystem) -> float:
    """Total quantum dimension squared, sum of d_a**2 over all sectors."""
    return float(np.sum(system.dim_array ** 2))


def validate_system(system: AnyonSystem, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every internal invariant of an anyon system.

    All problems become report entries; nothing raises.  The report is a
    pure function of the input, so repeated calls agree.
    """
    bad: list[Violation] = []
    unchecked: list[str] = []

    for label in system.labels:
        if not label:
            bad.append(Violation("label-empty", "empty sector label"))

    dims, position = system.dims, system._position
    d_vac = dims[position[system.vacuum]]
    if abs(d_vac - 1.0) > tol:
        bad.append(Violation("vacuum-dim", f"vacuum dimension != 1 (got {d_vac!r})"))
    for label, d in zip(system.labels, dims):
        if not math.isfinite(d) or d < 1.0 - tol:
            bad.append(Violation("dim-range", f"dim of {label!r} is {d!r}, below 1"))

    if system.dual is None:
        unchecked.append("dual-structure")
    else:
        missing = set(system.labels) - set(system.dual)
        if missing:
            bad.append(Violation("dual-total", f"dual map undefined on {sorted(missing)}"))
        for a, abar in system.dual.items():
            if system.dual.get(abar) != a:
                bad.append(Violation("dual-involution", f"dual(dual({a!r})) != {a!r}"))
            if abs(dims[position[abar]] - dims[position[a]]) > tol:
                bad.append(Violation("dual-dim", f"dim of {abar!r} differs from dim of {a!r}"))
        if system.dual.get(system.vacuum) != system.vacuum:
            bad.append(Violation("dual-vacuum", "dual does not fix the vacuum"))

    if system.twist is None:
        unchecked.append("twist-structure")
    else:
        vac_twist = system.twist.get(system.vacuum, 0)
        if vac_twist != 0:
            bad.append(Violation("twist-vacuum", f"vacuum twist is {vac_twist}, not trivial"))

    return ValidationReport(tuple(bad), tuple(unchecked))
