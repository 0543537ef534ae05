"""Entropic order parameter for condensation and related reference states.

The degree to which a state rho breaks the symmetry selected by a
condensable algebra is measured by the relative entropy between rho and its
condensed-and-lifted image,

    S(rho || round_trip(rho)) = sum_a p_a * log(p_a / p~_a),

which vanishes exactly on states invariant under the round trip and is
bounded above by log(lam), the logarithm of the index.  An equivalent
coarse form reads

    log(lam) - H(p) - sum_a p_a * log( sum_b M[a, b] * (d_a / d_b) * p_b )

with M the overlap matrix and H the Shannon entropy.  For a normalised
state it is the relative entropy between rho and the one-step round trip
:func:`~anycond.channels.lift_coarse`, which is how it is evaluated.
``round_trip`` and ``lift_coarse`` are the same linear map, p -> D M D^-1 p
/ lam with D = diag(d), so the ``formula_residual`` between the two
evaluations checks float rounding only.  :func:`order_parameter_rows`
evaluates a whole stack of states at once, and :func:`order_parameter` is
its one-state case.

Logarithms are natural by default; pass ``bits=True`` to report in base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .branching import BranchingData
from .channels import SectorState, _require_source, check_probs, condensation
from .systems import AnyonSystem

LN2 = math.log(2.0)


def shannon(state: SectorState) -> float:
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    p = state.probs
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def relative_entropy(p: SectorState, q: SectorState) -> float:
    """sum over the support of p of p_a * log(p_a / q_a), in nats.

    Returns ``math.inf`` when p puts weight where q has none; disjoint
    support is a legitimate comparison, not an error.
    """
    if p.system != q.system:
        raise ValueError("relative entropy requires states over the same system")
    pa, qa = p.probs, q.probs
    mask = pa > 0
    if np.any(qa[mask] == 0):
        return math.inf
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))


@dataclass(frozen=True)
class EntropyReport:
    """Order parameter of one (branching, state) pair.

    ``per_sector`` holds the contributions p_a * log(p_a / p~_a) in source
    label order; ``formula_residual`` is the gap between the direct and the
    coarse evaluation of the order parameter.
    """

    order_parameter: float
    bound: float
    per_sector: tuple[float, ...]
    formula_residual: float
    log_base: str = "natural"

    def as_dict(self, labels: Sequence[str] | None = None) -> dict:
        per = list(self.per_sector) if labels is None else dict(zip(labels, self.per_sector))
        return {
            "order_parameter": self.order_parameter,
            "bound": self.bound,
            "per_sector": per,
            "formula_residual": self.formula_residual,
            "log_base": self.log_base,
        }


def _terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # p_a * log(p_a / q_a) entrywise, with 0 log 0 = 0.
    ratio = np.divide(p, q, out=np.ones_like(p), where=p > 0)
    return p * np.log(ratio)


def order_parameter_rows(
    b: BranchingData, p: np.ndarray, bits: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Order parameter of every row of ``p``, shape (k, n_source) or one row.

    The rows must already have passed :func:`~anycond.channels.check_probs`.
    Returns the values, the per-sector terms (same shape as ``p``), the
    coarse-formula residuals and the bound log(lam), all in the requested
    base.  Each row's results do not depend on the other rows.
    """
    c = condensation(b)
    per = _terms(p, c.round_trip(p))
    direct = per.sum(axis=-1)
    coarse = _terms(p, c.lift_coarse(p)).sum(axis=-1)
    scale = 1.0 / LN2 if bits else 1.0
    return direct * scale, per * scale, np.abs(direct - coarse) * scale, math.log(c.lam) * scale


def order_parameter(b: BranchingData, rho: SectorState, bits: bool = False) -> EntropyReport:
    """Relative entropy between ``rho`` and its round trip, with diagnostics.

    Finite for every valid branching: any sector carrying weight feeds at
    least one condensed sector, which feeds it back under lifting.
    """
    _require_source(b, rho)
    value, per, residual, bound = order_parameter_rows(b, rho.probs, bits)
    return EntropyReport(
        order_parameter=float(value),
        bound=bound,
        per_sector=tuple(per.tolist()),
        formula_residual=float(residual),
        log_base="bits" if bits else "natural",
    )


def infinite_temperature_state(
    system: AnyonSystem, multiplicities: Sequence[int] | dict[str, int] | None = None
) -> SectorState:
    """The beta -> 0 state p_a = N_a d_a / sum_b N_b d_b.

    ``multiplicities`` gives the positive integer N_a per sector, either as
    a sequence in label order or as a label -> N mapping; omitted entries
    and ``None`` default to 1, and a mapping key that is not a sector
    raises ``ValueError``.
    """
    if multiplicities is None:
        mult = np.ones(len(system))
    elif isinstance(multiplicities, dict):
        unknown = multiplicities.keys() - set(system.labels)
        if unknown:
            raise ValueError(f"multiplicities name unknown labels {sorted(unknown)}")
        mult = np.array([multiplicities.get(label, 1) for label in system.labels], dtype=float)
    else:
        mult = np.asarray(list(multiplicities), dtype=float)
        if mult.shape != (len(system),):
            raise ValueError("one multiplicity per sector required")
    if np.any(mult <= 0):
        raise ValueError("multiplicities must be positive")
    w = mult * system.dim_array
    return SectorState(system, w / w.sum())


def symmetric_state(system: AnyonSystem) -> SectorState:
    """The symmetric-phase state p_a = d_a^2 / D2."""
    d2 = system.dim_array ** 2
    return SectorState(system, d2 / d2.sum())


@dataclass(frozen=True)
class PerturbationScan:
    """Order-parameter values on base + eps * direction rays.

    ``rows`` holds (direction index, eps, order parameter) sorted by
    direction then eps.  ``exponents`` holds one fitted log-log slope per
    direction (NaN when fewer than two usable points exist, e.g. for the
    zero direction or a lone eps).
    """

    rows: tuple[tuple[int, float, float], ...]
    exponents: tuple[float, ...]


def perturbation_scan(
    b: BranchingData,
    base: SectorState,
    directions: Sequence[Sequence[float]],
    epsilons: Sequence[float],
) -> PerturbationScan:
    """Scan the order parameter along zero-sum rays from ``base``.

    Every requested point must stay inside the probability simplex, else a
    ``ValueError`` is raised.  For each direction the leading exponent of
    the order parameter in eps is fitted by least squares on the log-log
    points with eps > 0 and S > 0; around a symmetric base the expected
    value is 2.
    """
    _require_source(b, base)
    dirs = [np.asarray(v, dtype=float) for v in directions]
    for idx, v in enumerate(dirs):
        if v.shape != (len(b.source),):
            raise ValueError(f"direction {idx} has wrong length")
        if abs(v.sum()) > 1e-9:
            raise ValueError(f"direction {idx} is not zero-sum (sum {v.sum()!r})")

    eps = np.array(sorted(float(e) for e in epsilons))
    rows: list[tuple[int, float, float]] = []
    exponents: list[float] = []
    for idx, v in enumerate(dirs):
        ray = base.probs + eps[:, None] * v
        outside = np.flatnonzero(np.any(ray < 0, axis=1))
        if outside.size:
            raise ValueError(
                f"simplex violation: direction {idx} at eps={eps[outside[0]]} leaves the simplex"
            )
        check_probs(ray)
        values = order_parameter_rows(b, ray)[0].tolist()
        rows.extend(zip([idx] * len(eps), eps.tolist(), values))
        pts = [(math.log(e), math.log(s)) for e, s in zip(eps, values) if e > 0 and s > 0]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slope = np.polyfit(xs, ys, 1)[0]
            exponents.append(float(slope))
        else:
            exponents.append(math.nan)
    return PerturbationScan(tuple(rows), tuple(exponents))
