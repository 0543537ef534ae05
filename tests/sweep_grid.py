"""The grid points of ``sweep`` as tuples, read from the CLI's own grid
generator, so that tests which walk a grid and the sweep-order oracle cover
the code ``sweep`` runs."""

from anycond import cli


def sweep_grid(parts: int, resolution: int):
    """The points of the resolution-``resolution`` grid on the simplex of
    ``parts`` sectors, as count tuples, in the order ``sweep`` prints them."""
    for counts in cli._grid(parts, resolution, cli.SWEEP_CHUNK):
        yield from map(tuple, counts.tolist())
