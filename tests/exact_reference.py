"""Exact rational reference for the channels and the order parameter.

Kept free of any import from the package, like ``bruteforce_enumerator``:
the branching enters as integer rows, dimensions and probabilities are
``Fraction``s, and every channel is evaluated verbatim from its defining sum

    restrict:  p_t = sum_a n[a][t] * (d_t / d_a) * p_a
    lift:      p_a = (1 / lam) * sum_t n[a][t] * (d_a / d_t) * p_t

with lam = sum_a n[a][vacuum] * d_a.  Only the logarithm of the exact ratio
p_a / p~_a in each order-parameter term is taken in floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactCondensation:
    """One branching in exact arithmetic.

    ``n`` is a list of integer rows (source sectors) by columns (condensed
    sectors); ``source_dims`` and ``condensed_dims`` convert exactly to
    ``Fraction`` (floats included, as their binary value).
    """

    def __init__(self, n, source_dims, condensed_dims, vacuum_col):
        self.n = [[int(x) for x in row] for row in n]
        self.d_a = [Fraction(d) for d in source_dims]
        self.d_t = [Fraction(d) for d in condensed_dims]
        self.lam = sum(row[vacuum_col] * d for row, d in zip(self.n, self.d_a))

    def restrict(self, p):
        return [
            sum(row[t] * self.d_t[t] / d * pa for row, d, pa in zip(self.n, self.d_a, p))
            for t in range(len(self.d_t))
        ]

    def lift(self, sigma):
        return [
            sum(row[t] * d / (self.lam * self.d_t[t]) * sigma[t] for t in range(len(self.d_t)))
            for row, d in zip(self.n, self.d_a)
        ]

    def round_trip(self, p):
        return self.lift(self.restrict(p))

    def terms(self, p):
        """p_a * log(p_a / p~_a) per source sector, with 0 log 0 = 0."""
        return [
            float(pa) * math.log(pa / qa) if pa else 0.0
            for pa, qa in zip(p, self.round_trip(p))
        ]

    def order_parameter(self, p) -> float:
        return math.fsum(self.terms(p))
