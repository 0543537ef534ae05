"""The sweep grid and CSV writer as they were before rows were joined from
per-command cell tables: a recursive composition generator, fixed chunks of
points, and one ``repr`` per cell.  The tests compare the CLI's ``sweep``
output with :func:`sweep_text` byte for byte."""

from __future__ import annotations

from itertools import islice

import numpy as np

from anycond.entropy import order_parameter_rows


def simplex_grid(parts: int, resolution: int):
    # Integer compositions of `resolution`, first coordinate descending,
    # so the vacuum vertex comes first.
    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    return rec(resolution, parts)


def sweep_text(b, resolution: int, bits: bool = False, chunk: int = 1024) -> str:
    """The CSV that ``sweep`` prints for a valid branching ``b``."""
    r = resolution
    header = ",".join([f"p_{label}" for label in b.source.labels] + ["S", "bound", "residual"])
    grid = simplex_grid(len(b.source), r)
    best, argmax = -1.0, None
    lines = [header + "\n"]
    while batch := list(islice(grid, chunk)):
        probs = np.array(batch, dtype=float) / r
        values, _, residuals, bound = order_parameter_rows(b, probs, bits=bits)
        top = int(np.argmax(values))
        if values[top] > best:
            best, argmax = float(values[top]), probs[top].tolist()
        table = np.column_stack([probs, values, np.full(len(values), bound), residuals])
        lines += [",".join(map(repr, row)) + "\n" for row in table.tolist()]
    lines.append(f"# max_S={best!r} argmax={'|'.join(map(repr, argmax))} bound={bound!r}\n")
    return "".join(lines)
