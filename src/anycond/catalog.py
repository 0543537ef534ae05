"""Built-in catalog of worked condensation patterns with reference values.

Ships the standard small examples: the cyclic-group models Z_N with their
full (Lagrangian) condensation, the toric code with either two-particle
boson condensed, Rep(S3) with its three condensable algebras, and the
trivial identity condensation of each system.  Every entry carries golden
(state, order-parameter) pairs stored symbolically as coeff * log(log_of)
so that no rounded decimal is ever hard-coded.

Entry ids follow the pattern seen in :func:`catalog`; ``entry`` additionally
resolves ``z<N>-full`` and ``z<N>-trivial`` for any N >= 2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .branching import BranchingData
from .channels import SectorState
from .systems import AnyonSystem

_F = Fraction


@dataclass(frozen=True)
class GoldenValue:
    """Reference pair: exact state probabilities and the symbolic value
    coeff * log(log_of) of the entropic order parameter (natural log)."""

    probs: tuple[Fraction, ...]
    coeff: Fraction
    log_of: Fraction

    def value(self) -> float:
        if self.coeff == 0:
            return 0.0
        return float(self.coeff) * math.log(self.log_of)

    def state(self, system: AnyonSystem) -> SectorState:
        return SectorState(system, [float(x) for x in self.probs])

    def as_dict(self) -> dict:
        return {
            "probs": [str(x) for x in self.probs],
            "coeff": str(self.coeff),
            "log_of": str(self.log_of),
            "value": self.value(),
        }


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    branching: BranchingData
    expected: tuple[GoldenValue, ...]


def toric_system() -> AnyonSystem:
    """The four toric-code sectors: vacuum, the two bosons, the fermion."""
    labels = ("1", "Y", "X", "Z")
    return AnyonSystem(
        labels=labels,
        dims=(1.0, 1.0, 1.0, 1.0),
        vacuum="1",
        dual={l: l for l in labels},
        twist={"1": _F(0), "Y": _F(0), "X": _F(1, 2), "Z": _F(0)},
    )


def rep_s3_system() -> AnyonSystem:
    """Irreducible representations of S3: trivial, sign, two-dimensional."""
    labels = ("1", "X", "Y")
    return AnyonSystem(
        labels=labels,
        dims=(1.0, 1.0, 2.0),
        vacuum="1",
        dual={l: l for l in labels},
        twist={l: _F(0) for l in labels},
    )


def zn_system(n: int) -> AnyonSystem:
    """N one-dimensional sectors labelled 0..N-1 with additive duals."""
    if n < 1:
        raise ValueError("n must be positive")
    labels = tuple(str(k) for k in range(n))
    return AnyonSystem(
        labels=labels,
        dims=(1.0,) * n,
        vacuum="0",
        dual={str(k): str((n - k) % n) for k in range(n)},
        twist={l: _F(0) for l in labels},
    )


def _vec_z2() -> AnyonSystem:
    labels = ("phi", "X")
    return AnyonSystem(labels, (1.0, 1.0), "phi", dual={l: l for l in labels},
                       twist={l: _F(0) for l in labels})


def _vec_z3() -> AnyonSystem:
    labels = ("phi", "t1", "t2")
    return AnyonSystem(labels, (1.0, 1.0, 1.0), "phi",
                       dual={"phi": "phi", "t1": "t2", "t2": "t1"},
                       twist={l: _F(0) for l in labels})


def _vec_trivial() -> AnyonSystem:
    return AnyonSystem(("phi",), (1.0,), "phi", dual={"phi": "phi"}, twist={"phi": _F(0)})


def toric_1y() -> BranchingData:
    """Toric code condensing 1 + Y: the vacuum pairs with Y, X with Z."""
    return BranchingData(toric_system(), _vec_z2(), [[1, 0], [1, 0], [0, 1], [0, 1]])


def toric_1z() -> BranchingData:
    """Toric code condensing 1 + Z, the dual pattern of :func:`toric_1y`."""
    return BranchingData(toric_system(), _vec_z2(), [[1, 0], [0, 1], [0, 1], [1, 0]])


def rep_s3_1x() -> BranchingData:
    """Rep(S3) condensing 1 + X: Y splits into two condensed sectors."""
    return BranchingData(rep_s3_system(), _vec_z3(), [[1, 0, 0], [1, 0, 0], [0, 1, 1]])


def rep_s3_1y() -> BranchingData:
    """Rep(S3) condensing 1 + Y: Y feeds both condensed sectors."""
    return BranchingData(rep_s3_system(), _vec_z2(), [[1, 0], [0, 1], [1, 1]])


def rep_s3_lagrangian() -> BranchingData:
    """Rep(S3) condensing 1 + X + 2Y: everything collapses onto the vacuum."""
    return BranchingData(rep_s3_system(), _vec_trivial(), [[1], [1], [2]])


def zn_full(n: int) -> BranchingData:
    """Z_N with every sector condensed; the index equals N."""
    return BranchingData(zn_system(n), _vec_trivial(), [[1]] * n)


def trivial_condensation(system: AnyonSystem) -> BranchingData:
    """Identity branching: nothing condenses, the index is 1."""
    return BranchingData(system, system, np.eye(len(system), dtype=np.int64))


def _g(probs, coeff, log_of) -> GoldenValue:
    return GoldenValue(tuple(_F(x) for x in probs), _F(coeff), _F(log_of))


_ZERO = ("0", 1)


def _zn_goldens(n: int) -> tuple[GoldenValue, ...]:
    uniform = [_F(1, n)] * n
    vertex = [_F(1)] + [_F(0)] * (n - 1)
    golden = [_g(uniform, *_ZERO), _g(vertex, 1, n)]
    if n >= 2:
        last = [_F(0)] * (n - 1) + [_F(1)]
        golden.append(_g(last, 1, n))
    if n >= 3:
        half = [_F(1, 2), _F(1, 2)] + [_F(0)] * (n - 2)
        golden.append(_g(half, 1, _F(n, 2)))
    return tuple(golden)


def _trivial_goldens(system: AnyonSystem) -> tuple[GoldenValue, ...]:
    n = len(system)
    uniform = [_F(1, n)] * n
    vertex = [_F(1)] + [_F(0)] * (n - 1)
    return (_g(uniform, *_ZERO), _g(vertex, *_ZERO))


def _toric_goldens() -> tuple[GoldenValue, ...]:
    # Probabilities ordered (1, Y, X, Z).
    golden = [
        _g(("1/2", "1/2", 0, 0), *_ZERO),
        _g(("1/2", 0, 0, "1/2"), 1, 2),
    ]
    third = _F(1, 3)
    for zero_at in range(4):
        probs = [third] * 4
        probs[zero_at] = _F(0)
        golden.append(_g(probs, _F(1, 3), 2))
    return tuple(golden)


def _toric_1z_goldens() -> tuple[GoldenValue, ...]:
    # The 1 + Y table under the Y <-> Z relabelling, the duality between the
    # two patterns: position k of a relabelled state reads position swap[k].
    swap = (0, 3, 2, 1)
    return tuple(
        GoldenValue(tuple(g.probs[i] for i in swap), g.coeff, g.log_of) for g in _toric_goldens()
    )


def _rep_s3_1x_goldens() -> tuple[GoldenValue, ...]:
    return (
        _g((1, 0, 0), 1, 2),
        _g(("1/2", "1/2", 0), *_ZERO),
        _g(("1/2", 0, "1/2"), _F(1, 2), 2),
        _g((0, "1/2", "1/2"), _F(1, 2), 2),
        _g(("1/3", "1/3", "1/3"), *_ZERO),
    )


def _rep_s3_1y_goldens() -> tuple[GoldenValue, ...]:
    return (
        _g((1, 0, 0), 1, 3),
        _g(("1/2", "1/2", 0), 1, 3),
        _g(("1/2", 0, "1/2"), _F(1, 2), _F(3, 2)),
        _g((0, "1/2", "1/2"), _F(1, 2), _F(3, 2)),
        _g(("1/3", "1/3", "1/3"), _F(1, 3), 2),
    )


def _rep_s3_lagrangian_goldens() -> tuple[GoldenValue, ...]:
    return (
        _g((1, 0, 0), 1, 6),
        _g(("1/2", "1/2", 0), 1, 3),
        _g(("1/2", 0, "1/2"), 1, _F(3, 2)),
        _g((0, "1/2", "1/2"), 1, _F(3, 2)),
        _g(("1/3", "1/3", "1/3"), _F(1, 3), 2),
    )


def _zn_full_entry(n: int) -> CatalogEntry:
    return CatalogEntry(
        id=f"z{n}-full",
        description=f"Z_{n} sectors with the full condensate, index {n}",
        branching=zn_full(n),
        expected=_zn_goldens(n),
    )


def _trivial_entry(entry_id: str, name: str, system: AnyonSystem) -> CatalogEntry:
    return CatalogEntry(
        id=entry_id,
        description=f"identity condensation of the {name} sectors (index 1)",
        branching=trivial_condensation(system),
        expected=_trivial_goldens(system),
    )


def _entry(entry_id: str, description: str, branching, goldens) -> Callable[[], CatalogEntry]:
    return lambda: CatalogEntry(entry_id, description, branching(), goldens())


# One builder per catalog id, in catalog order.  ``entry`` builds only the
# entry it is asked for.
_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {
    "z2-full": lambda: _zn_full_entry(2),
    "z3-full": lambda: _zn_full_entry(3),
    "toric-1Y": _entry(
        "toric-1Y", "toric code condensing the boson Y, index 2", toric_1y, _toric_goldens
    ),
    "toric-1Z": _entry(
        "toric-1Z", "toric code condensing the boson Z, index 2", toric_1z, _toric_1z_goldens
    ),
    "repS3-1X": _entry(
        "repS3-1X", "Rep(S3) condensing 1 + X, index 2", rep_s3_1x, _rep_s3_1x_goldens
    ),
    "repS3-1Y": _entry(
        "repS3-1Y", "Rep(S3) condensing 1 + Y, index 3", rep_s3_1y, _rep_s3_1y_goldens
    ),
    "repS3-lagrangian": _entry(
        "repS3-lagrangian",
        "Rep(S3) condensing 1 + X + 2Y, the Lagrangian algebra, index 6",
        rep_s3_lagrangian,
        _rep_s3_lagrangian_goldens,
    ),
    "z2-trivial": lambda: _trivial_entry("z2-trivial", "Z_2", zn_system(2)),
    "z3-trivial": lambda: _trivial_entry("z3-trivial", "Z_3", zn_system(3)),
    "toric-trivial": lambda: _trivial_entry("toric-trivial", "toric code", toric_system()),
    "repS3-trivial": lambda: _trivial_entry("repS3-trivial", "Rep(S3)", rep_s3_system()),
}


def catalog() -> list[CatalogEntry]:
    """The built-in entries, each validating and reproducing its goldens."""
    return [build() for build in _BUILDERS.values()]


def entry(entry_id: str) -> CatalogEntry:
    """Look up a catalog entry by id; ``z<N>-full`` and ``z<N>-trivial``
    resolve for any N >= 2."""
    build = _BUILDERS.get(entry_id)
    if build is not None:
        return build()
    match = re.fullmatch(r"z(\d+)-(full|trivial)", entry_id)
    if match:
        n = int(match.group(1))
        if n >= 2:
            if match.group(2) == "full":
                return _zn_full_entry(n)
            return _trivial_entry(entry_id, f"Z_{n}", zn_system(n))
    known = ", ".join(_BUILDERS)
    raise KeyError(f"unknown catalog entry {entry_id!r}; known: {known}")
