"""Reference copies of ``validate_system`` and ``validate_branching``.

These are the straightforward quadratic validators: every label lookup is
``labels.index``, every dual pair reads ``n`` entry by entry, and every
twist goes through ``Fraction``.  They share only the report types with the
package, not its label → position map, so the differential tests in
``test_validation_oracle.py`` compare the package's linear validators with
an independent statement of the same rules.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from anycond.systems import ValidationReport, Violation


def _index(system, label) -> int:
    return system.labels.index(label)


def _dim_of(system, label) -> float:
    return system.dims[_index(system, label)]


def _dim_sq(system) -> float:
    return float(np.sum(np.asarray(system.dims, dtype=float) ** 2))


def validate_system(system, tol: float = 1e-9) -> ValidationReport:
    bad: list[Violation] = []
    unchecked: list[str] = []

    for label in system.labels:
        if not label:
            bad.append(Violation("label-empty", "empty sector label"))

    d_vac = _dim_of(system, system.vacuum)
    if abs(d_vac - 1.0) > tol:
        bad.append(Violation("vacuum-dim", f"vacuum dimension != 1 (got {d_vac!r})"))
    for label, d in zip(system.labels, system.dims):
        if not np.isfinite(d) or d < 1.0 - tol:
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
            if abs(_dim_of(system, abar) - _dim_of(system, a)) > tol:
                bad.append(Violation("dual-dim", f"dim of {abar!r} differs from dim of {a!r}"))
        if system.dual.get(system.vacuum) != system.vacuum:
            bad.append(Violation("dual-vacuum", "dual does not fix the vacuum"))

    if system.twist is None:
        unchecked.append("twist-structure")
    else:
        vac_twist = system.twist.get(system.vacuum, Fraction(0))
        if vac_twist != 0:
            bad.append(Violation("twist-vacuum", f"vacuum twist is {vac_twist}, not trivial"))

    return ValidationReport(tuple(bad), tuple(unchecked))


def validate_branching(b, tol: float = 1e-9) -> ValidationReport:
    bad: list[Violation] = []
    unchecked: list[str] = []

    for prefix, system in (("source", b.source), ("condensed", b.condensed)):
        sub = validate_system(system, tol)
        bad.extend(Violation(f"{prefix}:{v.rule}", v.detail) for v in sub.violations)

    phi = _index(b.condensed, b.condensed.vacuum)
    vacuum_column = b.n[:, phi]
    source_dims = np.asarray(b.source.dims, dtype=float)
    condensed_dims = np.asarray(b.condensed.dims, dtype=float)
    lam = float(vacuum_column @ source_dims)

    vac_row = b.n[_index(b.source, b.source.vacuum)]
    want = np.zeros(len(b.condensed), dtype=np.int64)
    want[phi] = 1
    if not np.array_equal(vac_row, want):
        bad.append(
            Violation("vacuum-row", "source vacuum must restrict to the condensed vacuum alone")
        )

    rows = (b.n @ condensed_dims).tolist()
    cols = (b.n.T @ source_dims).tolist()
    bad.extend(
        Violation("dim-restriction", f"sector {label!r}: sum_t n*d_t = {r!r} != d_a = {d!r}")
        for label, r, d in zip(b.source.labels, rows, b.source.dims)
        if abs(r - d) > min(tol, 1e-9)
    )
    bad.extend(
        Violation(
            "dim-lift",
            f"condensed sector {label!r}: sum_a n*d_a = {c!r} != lam*d_t = {lam * d!r}",
        )
        for label, c, d in zip(b.condensed.labels, cols, b.condensed.dims)
        if abs(c - lam * d) > min(tol, 1e-9)
    )

    for j, label in enumerate(b.condensed.labels):
        if not np.any(b.n[:, j]):
            bad.append(Violation("empty-column", f"condensed sector {label!r} receives nothing"))

    if b.source.dual is not None and b.condensed.dual is not None:
        for i, a in enumerate(b.source.labels):
            for j, t in enumerate(b.condensed.labels):
                ibar = _index(b.source, b.source.dual.get(a, a))
                jbar = _index(b.condensed, b.condensed.dual.get(t, t))
                if b.n[i, j] != b.n[ibar, jbar]:
                    bad.append(
                        Violation(
                            "dual-symmetry",
                            f"n[{a!r},{t!r}] = {b.n[i, j]} but the antiparticle entry "
                            f"is {b.n[ibar, jbar]}",
                        )
                    )
    else:
        unchecked.append("dual-symmetry")

    if b.source.twist is not None:
        bad.extend(
            Violation("boson-condition", f"condensed sector {a!r} is not a boson")
            for a, c in zip(b.source.labels, vacuum_column)
            if c > 0 and b.source.twist.get(a, Fraction(0)) != 0
        )
    else:
        unchecked.append("boson-condition")

    dim_ratio = _dim_sq(b.source) / _dim_sq(b.condensed)
    metrics = {
        "jones_index": lam,
        "dim_ratio": dim_ratio,
        "index_residual": abs(lam - dim_ratio),
    }
    if metrics["index_residual"] > tol:
        bad.append(Violation("index-ratio", f"index {lam!r} != D2 ratio {dim_ratio!r}"))

    return ValidationReport(tuple(bad), tuple(unchecked), metrics)
