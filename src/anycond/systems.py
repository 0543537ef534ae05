"""Anyon systems: labelled superselection sectors with quantum dimensions.

An :class:`AnyonSystem` is the minimal data this library needs about a
topological phase: an ordered list of sector labels, one positive quantum
dimension per sector, and a distinguished vacuum sector of dimension 1.
Antiparticle (dual) maps and topological twists are optional extras that
enable additional consistency checks downstream; their absence is reported
as "unchecked", never as "passed".

Label order is significant and fixed at construction.  Every matrix and
probability vector elsewhere in the package indexes sectors by this order,
and so does each system's sector table: the vacuum position, antiparticle
positions, twists and dims, built once on construction and read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from types import MappingProxyType
from typing import Mapping

import numpy as np

DEFAULT_TOL = 1e-9
_ZERO = Fraction(0)  # the twist of a label that the twist map omits


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
    absent, and ``metrics`` carries numeric diagnostics such as residuals,
    as a read-only copy of the mapping given.
    """

    violations: tuple[Violation, ...] = ()
    unchecked: tuple[str, ...] = ()
    metrics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "metrics", MappingProxyType(dict(self.metrics)))

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
        involution fixing the vacuum.  Stored as a read-only copy.
    twist:
        Optional topological twist per label, stored as a rational multiple
        of a full turn and compared exactly, in a read-only mapping.  The
        trivial twist is 0.

    Construction builds the sector table once, as read-only attributes in
    label order that the other modules read: ``vacuum_index``;
    ``antiparticles``, the position of each sector's antiparticle (a label
    the dual map omits is its own), or None without dual data;
    ``twist_ratios``, each reduced twist as an integer pair (a label the
    twist map omits has (0, 1)), or None without twist data; ``twisted``, a
    boolean array of the sectors whose twist is not trivial; and
    ``dim_array``, the dims as a float array.  The table is not a dataclass
    field, so ``==`` and ``repr`` ignore it.  A system is immutable, so one
    instance can be shared, as the catalog shares its entries.
    """

    labels: tuple[str, ...]
    dims: tuple[float, ...]
    vacuum: str
    dual: Mapping[str, str] | None = None
    twist: Mapping[str, Fraction] | None = None

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        try:
            dims = tuple(map(float, self.dims))
        except OverflowError:
            raise ValueError("a dim is too large for a float") from None
        position = {label: i for i, label in enumerate(labels)}
        if len(position) != len(labels):
            raise ValueError("sector labels must be unique")
        if len(dims) != len(labels):
            raise ValueError(f"got {len(dims)} dims for {len(labels)} labels")
        if self.vacuum not in labels:
            raise ValueError(f"vacuum label {self.vacuum!r} is not a sector")
        antiparticles = ratios = None
        if self.dual is not None:
            dual = {str(k): str(v) for k, v in self.dual.items()}
            unknown = (dual.keys() | set(dual.values())) - position.keys()
            if unknown:
                raise ValueError(f"dual map references unknown labels {sorted(unknown)}")
            object.__setattr__(self, "dual", MappingProxyType(dual))
            antiparticles = tuple([position[dual.get(a, a)] for a in labels])
        twisted = np.zeros(len(labels), dtype=bool)
        if self.twist is not None:
            twist = {str(k): _normalize_twist(v) for k, v in self.twist.items()}
            unknown = twist.keys() - position.keys()
            if unknown:
                raise ValueError(f"twist data references unknown labels {sorted(unknown)}")
            object.__setattr__(self, "twist", MappingProxyType(twist))
            # Integer pairs compare faster than Fractions.
            ratios = tuple(map(Fraction.as_integer_ratio, map(twist.get, labels, repeat(_ZERO))))
            twisted[[i for i, (numerator, _) in enumerate(ratios) if numerator]] = True
        dim_array = np.array(dims)
        twisted.setflags(write=False)
        dim_array.setflags(write=False)
        self.__dict__.update(
            labels=labels, dims=dims, _position=position, vacuum_index=position[self.vacuum],
            antiparticles=antiparticles, twist_ratios=ratios, twisted=twisted, dim_array=dim_array,
        )

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a sector") from None

    def dim_of(self, label: str) -> float:
        return self.dims[self.index(label)]

    def is_integral(self, tol: float = DEFAULT_TOL) -> bool:
        """True when every quantum dimension is an integer within ``tol``."""
        return all(abs(d - round(d)) <= tol for d in self.dims)


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not finite and positive: with ``nan``
    every comparison is false, and so every check would pass."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def total_dim_sq(system: AnyonSystem) -> float:
    """Total quantum dimension squared, sum of d_a**2 over all sectors."""
    return float(np.sum(system.dim_array ** 2))


def validate_system(system: AnyonSystem, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every internal invariant of an anyon system.

    All problems become report entries; only a ``tol`` that is not finite
    and positive raises ``ValueError``.  The report is a pure function of
    the input, so repeated calls agree.
    """
    check_tolerance(tol)
    bad: list[Violation] = []
    unchecked: list[str] = []

    if "" in system._position:
        bad.append(Violation("label-empty", "empty sector label"))

    dims, position = system.dims, system._position
    d_vac = dims[system.vacuum_index]
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
