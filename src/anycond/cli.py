"""Command-line front end.

Subcommands: validate, condense, entropy, sweep, enumerate, duality,
catalog.  Outputs are JSON (reports) or CSV (sweeps), written to stdout or
to --output; sweeps stream their rows as they are computed, and enumerate
writes its results in slices as they are encoded.  Exit codes:
0 success, 1 domain failure (validation or bound violation), 2 usage or
I/O trouble, including a reader that closed the output pipe early.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from math import comb, isfinite

import numpy as np

from . import io as cio
from .branching import BranchingData, CondensableAlgebra, validate_branching
from .catalog import catalog, entry
from .channels import (
    SectorState,
    _channel_output,
    lift_coarse,
    restrict,
    round_trip,
    verify_idempotence,
)
from .duality import LABEL_CAP, _residuals, _search
from .entropy import order_parameter, order_parameter_rows
from .search import NonIntegerDimsError, branching_blocks
from .systems import AnyonSystem, validate_system

GRID_POINT_CAP = 10**7
# Random states per duality check; each is a row of floats per source label.
TRIALS_CAP = 10**6
# Grid points evaluated, and CSV rows written, per step of a sweep.
SWEEP_CHUNK = 1024


class UsageError(Exception):
    pass


def _parse_state_csv(text: str, system: AnyonSystem) -> SectorState:
    # Accepts exact rationals like 1/3 so golden values hit exactly.
    try:
        probs = cio.reals(text.split(","), "--state")
    except cio.SchemaError as exc:
        raise UsageError(f"cannot parse state {text!r}: {exc}") from None
    try:
        return SectorState(system, probs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_branching(args) -> BranchingData:
    if getattr(args, "catalog", None):
        return entry(args.catalog).branching
    if getattr(args, "branching", None):
        doc = cio.load(args.branching)
        if not isinstance(doc, BranchingData):
            raise UsageError(f"{args.branching} does not contain branching data")
        return doc
    raise UsageError("provide --catalog ID or --branching FILE")


def _load_state(args, system: AnyonSystem) -> SectorState:
    if getattr(args, "state", None):
        rho = _parse_state_csv(args.state, system)
    elif getattr(args, "state_file", None):
        rho = cio.load_state(args.state_file, system)
    else:
        raise UsageError("provide --state P1,P2,... or --state-file FILE")
    # A state may sum to 1 +- 1e-9; left so, its order parameter can exceed
    # log(lam) by that slack, which the bound check would then read as real.
    # Rescaling a checked state gives a state, so it is not checked again.
    return _channel_output(system, rho.probs / rho.probs.sum())


@contextmanager
def _output(args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit_json(payload, args):
    with _output(args) as out:
        out.write(cio.dumps_indented(payload) + "\n")


def _require_valid(b: BranchingData, args) -> bool:
    report = validate_branching(b, args.tolerance)
    if not report.ok:
        _emit_json({"error": "branching data is not condensable", **report.as_dict()}, args)
        return False
    return True


def cmd_validate(args) -> int:
    targets: list[tuple[str, AnyonSystem | BranchingData]] = []
    for entry_id in args.catalog or []:
        targets.append((entry_id, entry(entry_id).branching))
    for path in args.files:
        targets.append((path, cio.load(path)))
    if not targets:
        raise UsageError("nothing to validate")
    reports = []
    all_ok = True
    for name, doc in targets:
        if isinstance(doc, BranchingData):
            report = validate_branching(doc, args.tolerance)
        else:
            report = validate_system(doc, args.tolerance)
        reports.append({"target": name, **report.as_dict()})
        all_ok = all_ok and report.ok
    _emit_json(reports, args)
    return 0 if all_ok else 1


def cmd_condense(args) -> int:
    b = _load_branching(args)
    if not _require_valid(b, args):
        return 1
    rho = _load_state(args, b.source)
    restricted = restrict(b, rho)
    lifted = round_trip(b, rho)
    coarse = lift_coarse(b, rho)
    payload = {
        "restricted": [float(x) for x in restricted.probs],
        "lifted": [float(x) for x in lifted.probs],
        "residuals": {
            "idempotence": verify_idempotence(b, rho),
            "coarse_agreement": float(np.max(np.abs(lifted.probs - coarse.probs))),
            "restricted_sum": abs(float(restricted.probs.sum()) - 1.0),
            "lifted_sum": abs(float(lifted.probs.sum()) - 1.0),
        },
    }
    _emit_json(payload, args)
    return 0


def cmd_entropy(args) -> int:
    b = _load_branching(args)
    if not _require_valid(b, args):
        return 1
    rho = _load_state(args, b.source)
    report = order_parameter(b, rho, bits=args.bits)
    _emit_json(report.as_dict(labels=b.source.labels), args)
    if report.order_parameter > report.bound + args.tolerance:
        return 1
    return 0


def _grid(parts: int, resolution: int, size: int):
    # The integer compositions of `resolution` into `parts` counts, first
    # coordinate descending (so the vacuum vertex comes first), as int arrays
    # of `size` rows but the last.  Each point follows from its rank in that
    # order (Knuth, TAOCP 4A, 7.2.1.3): with q counts left, before[w] =
    # C(w + q - 2, q - 1) points come before the first whose remaining total
    # after this count is w, and the table for q is the running sum of the
    # one for q - 1, from before[w] = w at q = 2.  The last two counts of
    # rank j are (left - j, j), so they need no table, and a one-part grid
    # is (resolution, 0) cut to one count.
    tables = []
    for _ in range(parts - 2):
        tables.append(np.cumsum(tables[-1] if tables else np.arange(resolution + 1)))
    total = comb(resolution + parts - 1, parts - 1)
    for lo in range(0, total, size):
        rank, left, columns = np.arange(lo, min(lo + size, total)), resolution, []
        for before in reversed(tables):
            w = np.searchsorted(before, rank, side="right") - 1
            rank = rank - before[w]
            columns.append(left - w)
            left = w
        yield np.column_stack([*columns, left - rank, rank])[:, :parts]


def _reprs(x: np.ndarray, end: str = "") -> np.ndarray:
    # repr of each float followed by `end`, made once per distinct value: S
    # takes few values on symmetric grids and the residual is mostly 0.0.
    # Values are told apart by their bits, so 0.0 and -0.0 keep their own text.
    keys, inverse = np.unique(x.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) + end for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse]


def cmd_sweep(args) -> int:
    b = _load_branching(args)
    if not _require_valid(b, args):
        return 1
    r = args.grid_resolution
    parts = len(b.source)
    points = comb(r + parts - 1, parts - 1)
    if points > GRID_POINT_CAP:
        raise UsageError(
            f"grid of {points} points exceeds the cap of {GRID_POINT_CAP}; lower --grid-resolution"
        )
    header = ",".join([f"p_{label}" for label in b.source.labels] + ["S", "bound", "residual"])
    # A batch is SWEEP_CHUNK grid points, computed from their ranks by _grid,
    # evaluated by one order_parameter_rows call and written as one join of an
    # (N, parts + 3) object array of cells.  A probability cell, repr(k / r)
    # + ",", is made once for all r + 1 counts on three or more parts, where
    # every batch reuses it and the point cap keeps r at most 4,470; on one or
    # two parts, where it serves at most two points, each batch makes its own,
    # so memory stays flat in r.  S and the residual get one repr per distinct
    # value of a batch, the residual's ending its row with the newline; the
    # bound cell is "," + repr(bound) + ",".
    cells = np.array([repr(k / r) + "," for k in range(r + 1)], dtype=object) if parts > 2 else None
    table = np.empty((SWEEP_CHUNK, parts + 3), dtype=object)
    best, argmax = -1.0, None
    with _output(args) as out:
        out.write(header + "\n")
        for counts in _grid(parts, r, SWEEP_CHUNK):
            probs = counts / r  # states by construction
            values, _, residuals, bound = order_parameter_rows(b, probs, bits=args.bits)
            top = int(np.argmax(values))
            if values[top] > best:  # strict: the first maximum wins ties
                best, argmax = float(values[top]), probs[top].tolist()
            rows = table[: len(counts)]
            rows[:, :parts] = (cells[counts] if parts > 2
                               else _reprs(probs.ravel(), end=",").reshape(probs.shape))
            rows[:, parts] = _reprs(values)
            rows[:, parts + 1] = f",{bound!r},"
            rows[:, parts + 2] = _reprs(residuals, end="\n")
            out.write("".join(rows.ravel().tolist()))
        out.write(f"# max_S={best!r} argmax={'|'.join(map(repr, argmax))} bound={bound!r}\n")
    if best > bound + args.tolerance:
        return 1
    return 0


def cmd_enumerate(args) -> int:
    if args.catalog:
        source = entry(args.catalog).branching.source
    elif args.source:
        doc = cio.load(args.source)
        source = doc.source if isinstance(doc, BranchingData) else doc
    else:
        raise UsageError("provide --catalog ID or --source FILE")
    report = validate_system(source, args.tolerance)
    if not report.ok:
        _emit_json({"error": "source system is not valid", **report.as_dict()}, args)
        return 1
    weights = cio.counts_from_text(args.algebra, "--algebra")
    try:
        algebra = CondensableAlgebra(source, tuple(weights))
        blocks = branching_blocks(source, algebra, args.max_sectors, args.max_dim, args.tolerance)
    except ValueError as exc:
        if isinstance(exc, NonIntegerDimsError) and not args.catalog:  # the file's dims
            raise cio.SchemaError("dims" if source is doc else "source.dims", str(exc)) from None
        raise UsageError(str(exc)) from None
    with _output(args) as out:
        cio.dump_blocks(blocks, out)
        out.write("\n")
    return 0


def cmd_duality(args) -> int:
    if args.catalog_a and args.catalog_b:
        bA = entry(args.catalog_a).branching
        bB = entry(args.catalog_b).branching
    elif args.a and args.b:
        bA, bB = cio.load(args.a), cio.load(args.b)
        if not isinstance(bA, BranchingData) or not isinstance(bB, BranchingData):
            raise UsageError("duality inputs must be branching files")
    else:
        raise UsageError("provide --a/--b files or --catalog-a/--catalog-b ids")
    if not (_require_valid(bA, args) and _require_valid(bB, args)):
        return 1
    try:
        sigmas, taus = _search(bA, bB, LABEL_CAP)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    residuals = _residuals(bA, bB, sigmas, taus, args.trials, args.seed)
    with _output(args) as out:
        cio.dump_dualities(bA, bB, sigmas, taus, residuals, out)
        out.write("\n")
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        payload = {
            "entries": [{"id": e.id, "description": e.description} for e in catalog()]
        }
        _emit_json(payload, args)
        return 0
    item = entry(args.id)
    payload = {
        "id": item.id,
        "description": item.description,
        "branching": cio.branching_to_dict(item.branching),
        "expected": [g.as_dict() for g in item.expected],
    }
    _emit_json(payload, args)
    return 0


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool):
    # The same flags are registered on the main parser (with real defaults)
    # and on every subparser (defaulting to SUPPRESS so a flag given before
    # the subcommand is not clobbered); this lets them appear on either
    # side of the subcommand.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--tolerance", type=float, default=default(1e-9))
    parser.add_argument(
        "--bits", action="store_true", default=default(False), help="report entropies in base 2"
    )
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--output", default=default(None), help="write output to this file")
    parser.add_argument("--grid-resolution", type=int, default=default(50))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anycond",
        description="Anyon condensation channels and entropic order parameters.",
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_options(p, suppress=True)
        p.set_defaults(func=func)
        return p

    p = add_command("validate", cmd_validate, help="validate systems or branchings")
    p.add_argument("files", nargs="*")
    p.add_argument("--catalog", action="append")

    for name, func, wants_state in (
        ("condense", cmd_condense, True),
        ("entropy", cmd_entropy, True),
        ("sweep", cmd_sweep, False),
    ):
        p = add_command(name, func)
        p.add_argument("--catalog")
        p.add_argument("--branching")
        if wants_state:
            p.add_argument("--state")
            p.add_argument("--state-file")

    p = add_command("enumerate", cmd_enumerate, help="search branchings for a condensate")
    p.add_argument("--catalog")
    p.add_argument("--source")
    p.add_argument("--algebra", required=True, help="vacuum column, e.g. 1,1,0,0")
    p.add_argument("--max-sectors", type=int, default=4)
    p.add_argument("--max-dim", type=int, default=2)

    p = add_command("duality", cmd_duality, help="search permutation dualities")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--catalog-a")
    p.add_argument("--catalog-b")
    p.add_argument("--trials", type=int, default=100)

    p = add_command("catalog", cmd_catalog, help="list or show built-in entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("id", nargs="?")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs far more than one parse, and parse_args
    # leaves it unchanged, so every command of a process shares one.
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not isfinite(args.tolerance) or args.tolerance <= 0:
        parser.error("--tolerance must be positive and finite")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be an integer in [0, 2**63)")
    if not 1 <= args.grid_resolution < 2**63:
        parser.error("--grid-resolution must be an integer in [1, 2**63)")
    if args.command == "duality" and args.trials < 0:
        parser.error("--trials must be non-negative")
    if args.command == "duality" and args.trials > TRIALS_CAP:
        parser.error(f"--trials exceeds the cap of {TRIALS_CAP}")
    if args.command == "catalog" and args.action == "show" and not args.id:
        parser.error("catalog show requires an entry id")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (UsageError, cio.SchemaError, KeyError, OSError) as exc:
        if not isinstance(exc, BrokenPipeError):  # a reader that closed the pipe early
            # str() of a KeyError is the repr of its message, quotes and all.
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # Stdout itself failed (``sweep ... | head``, a full disk) and keeps
            # the bytes it could not write; point it at devnull so the flush at
            # exit does not fail again (see "Note on SIGPIPE" in ``signal``).
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
