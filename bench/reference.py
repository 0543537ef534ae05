"""Independent references for the benchmark's output checks.

Nothing here calls into ``anycond``: the checks recompute what the program
should have printed from the generated input data alone, in exact
``Fraction`` or integer arithmetic, so a fault in the library cannot hide
behind the same fault in its checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations


@dataclass(frozen=True)
class Sectors:
    """Sector data as plain Python values (dims as exact Fractions)."""

    labels: tuple[str, ...]
    dims: tuple[Fraction, ...]
    vacuum: str
    dual: dict | None = None
    twist: dict | None = None

    @property
    def vac(self) -> int:
        return self.labels.index(self.vacuum)

    @classmethod
    def of(cls, system) -> "Sectors":
        """Copy the data out of an ``AnyonSystem`` the benchmark generated."""
        return cls(
            tuple(system.labels),
            tuple(Fraction(d) for d in system.dims),
            system.vacuum,
            dict(system.dual) if system.dual is not None else None,
            {k: Fraction(v) for k, v in system.twist.items()} if system.twist is not None else None,
        )

    @classmethod
    def from_doc(cls, doc: dict) -> "Sectors":
        """Read the system part of a JSON document the program printed."""
        return cls(
            tuple(doc["labels"]),
            tuple(Fraction(d) for d in doc["dims"]),
            doc["vacuum"],
            doc.get("dual"),
            {k: Fraction(v) for k, v in doc["twist"].items()} if "twist" in doc else None,
        )


@dataclass(frozen=True)
class Branching:
    source: Sectors
    condensed: Sectors
    n: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, b) -> "Branching":
        return cls(Sectors.of(b.source), Sectors.of(b.condensed), tuple(map(tuple, b.n.tolist())))

    @property
    def lam(self) -> Fraction:
        t0 = self.condensed.vac
        return sum(row[t0] * d for row, d in zip(self.n, self.source.dims))


def restrict(b: Branching, p: list[Fraction]) -> list[Fraction]:
    """p_t = sum_a n[a, t] * (d_t / d_a) * p_a, exactly."""
    d_a, d_t = b.source.dims, b.condensed.dims
    return [
        sum(b.n[a][t] * d_t[t] / d_a[a] * p[a] for a in range(len(p)))
        for t in range(len(d_t))
    ]


def lift(b: Branching, q: list[Fraction]) -> list[Fraction]:
    """p_a = (1 / lam) * sum_t n[a, t] * (d_a / d_t) * q_t, exactly."""
    d_a, d_t, lam = b.source.dims, b.condensed.dims, b.lam
    return [
        d_a[a] / lam * sum(b.n[a][t] * q[t] / d_t[t] for t in range(len(q)))
        for a in range(len(d_a))
    ]


def order_parameter(b: Branching, p: list[Fraction]) -> float:
    """S(p || lift(restrict(p))): exact round trip, then a float log per term."""
    back = lift(b, restrict(b, p))
    return sum(float(pa) * math.log(float(pa / qa)) for pa, qa in zip(p, back) if pa > 0)


def close(x: float, y: float, tol: float = 1e-12) -> bool:
    return abs(x - y) <= tol


def branching_faults(
    doc: dict, source: Sectors, algebra: tuple[int, ...], max_sectors: int, max_dim: int
) -> list[str]:
    """Every way one printed branching breaks the enumeration contract.

    Integer arithmetic only: the source must be the input source, the
    vacuum column the requested algebra, the source vacuum row the
    condensed-vacuum indicator, rows and columns must satisfy both
    dimension constraints, no column may be empty, condensed dims must be
    integers within the bounds, and the index must equal the D2 ratio.
    """
    faults = []
    src = Sectors.from_doc(doc["source"])
    cond = Sectors.from_doc(doc["condensed"])
    if (src.labels, src.dims, src.vacuum) != (source.labels, source.dims, source.vacuum):
        faults.append("source system differs from the input")
    n = doc["n"]
    if len(n) != len(source.labels) or any(len(row) != len(cond.labels) for row in n):
        return faults + ["matrix shape does not match the systems"]
    if len(cond.labels) > max_sectors:
        faults.append(f"{len(cond.labels)} condensed sectors exceed {max_sectors}")
    if any(d.denominator != 1 or not 1 <= d <= max_dim for d in cond.dims):
        faults.append(f"condensed dims {cond.dims} outside 1..{max_dim}")
    t0 = cond.vac
    if cond.dims[t0] != 1:
        faults.append("condensed vacuum dimension is not 1")
    if tuple(row[t0] for row in n) != algebra:
        faults.append("vacuum column differs from the algebra")
    if [int(t == t0) for t in range(len(cond.labels))] != n[source.vac]:
        faults.append("source vacuum row is not the condensed-vacuum indicator")
    lam = sum(c * d for c, d in zip(algebra, source.dims))
    for a, row in enumerate(n):
        if sum(x * d for x, d in zip(row, cond.dims)) != source.dims[a]:
            faults.append(f"row {source.labels[a]!r} breaks d_a = sum_t n d_t")
    for t in range(len(cond.labels)):
        col = [row[t] for row in n]
        if sum(x * d for x, d in zip(col, source.dims)) != lam * cond.dims[t]:
            faults.append(f"column {cond.labels[t]!r} breaks lam d_t = sum_a n d_a")
        if not any(col):
            faults.append(f"column {cond.labels[t]!r} is empty")
    if sum(d * d for d in source.dims) != lam * sum(d * d for d in cond.dims):
        faults.append("index differs from the D2 ratio")
    return faults


@cache
def count_branchings(dims: tuple[int, ...], algebra: tuple[int, ...], max_sectors: int, max_dim: int) -> int:
    """Number of branchings up to relabelling of the condensed sectors.

    For each multiset of condensed dims allowed by the index, fills the rows
    one at a time from their solutions of d_a = sum_t n[a, t] d_t, keeping
    every column sum within lam * d_t, and counts distinct canonical keys.
    """
    lam = sum(c * d for c, d in zip(algebra, dims))
    budget, rem = divmod(sum(d * d for d in dims), lam)
    keys = set()
    for k in range(max_sectors):
        for cdims in combinations_with_replacement(range(1, max_dim + 1), k):
            if rem or sum(d * d for d in cdims) != budget - 1:
                continue
            options = [_row_solutions(d - c, cdims) for d, c in zip(dims, algebra)]
            targets = [lam * d for d in cdims]

            def fill(a: int, sums: list[int], rows: list):
                if a == len(dims):
                    if sums == targets:
                        cols = zip(*rows) if rows else []
                        keys.add(tuple(sorted(zip(cdims, cols))))
                    return
                for row in options[a]:
                    nxt = [s + x * dims[a] for s, x in zip(sums, row)]
                    if all(s <= t for s, t in zip(nxt, targets)):
                        fill(a + 1, nxt, rows + [row])

            fill(0, [0] * k, [])
    return len(keys)


def _row_solutions(target: int, cdims: tuple[int, ...]) -> list[tuple[int, ...]]:
    if not cdims:
        return [()] if target == 0 else []
    return [
        (x,) + rest
        for x in range(target // cdims[0] + 1)
        for rest in _row_solutions(target - x * cdims[0], cdims[1:])
    ]


def canonical_key(doc: dict) -> tuple:
    """The vacuum column, then the other (dim, column) pairs sorted."""
    cond = Sectors.from_doc(doc["condensed"])
    cols = list(zip(*doc["n"]))
    rest = sorted((cond.dims[t], cols[t]) for t in range(len(cols)) if t != cond.vac)
    return (cols[cond.vac], tuple(rest))


def automorphisms(domain: Sectors, codomain: Sectors) -> list[dict[str, str]]:
    """Vacuum-fixing bijections that keep dims and, where both sides declare
    them, twists and antiparticles."""
    dom = [x for x in domain.labels if x != domain.vacuum]
    cod = [x for x in codomain.labels if x != codomain.vacuum]
    dim = dict(zip(codomain.labels, codomain.dims))
    found = []
    for image in permutations(cod):
        perm = {domain.vacuum: codomain.vacuum, **dict(zip(dom, image))}
        if not _preserves(perm, domain, codomain, dim):
            continue
        found.append(perm)
    return found


def _preserves(perm, domain: Sectors, codomain: Sectors, dim) -> bool:
    if perm.get(domain.vacuum) != codomain.vacuum:
        return False
    if any(d != dim[perm[a]] for a, d in zip(domain.labels, domain.dims)):
        return False
    if domain.twist is not None and codomain.twist is not None:
        if any(domain.twist.get(a, 0) != codomain.twist.get(b, 0) for a, b in perm.items()):
            return False
    if domain.dual is not None and codomain.dual is not None:
        if any(perm[domain.dual.get(a, a)] != codomain.dual.get(b, b) for a, b in perm.items()):
            return False
    return True


def duality_faults(d: dict, bA: Branching, bB: Branching) -> list[str]:
    """Ways a printed (sigma, tau) fails n_B[a, tau(t)] = n_A[sigma(a), t]."""
    sigma, tau = d["source_perm"], d["condensed_perm"]
    src, ca, cb = bA.source, bA.condensed, bB.condensed
    if sorted(sigma) != sorted(src.labels) or sorted(sigma.values()) != sorted(src.labels):
        return ["source_perm is not a bijection of the source labels"]
    if sorted(tau) != sorted(ca.labels) or sorted(tau.values()) != sorted(cb.labels):
        return ["condensed_perm is not a bijection of the condensed labels"]
    faults = []
    if not _preserves(sigma, src, src, dict(zip(src.labels, src.dims))):
        faults.append("source_perm breaks the sector data")
    if not _preserves(tau, ca, cb, dict(zip(cb.labels, cb.dims))):
        faults.append("condensed_perm breaks the sector data")
    for i, a in enumerate(src.labels):
        i_sigma = src.labels.index(sigma[a])
        for j, t in enumerate(ca.labels):
            if bB.n[i][cb.labels.index(tau[t])] != bA.n[i_sigma][j]:
                return faults + [f"coefficient identity fails at ({a!r}, {t!r})"]
    return faults
