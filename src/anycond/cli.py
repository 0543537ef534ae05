"""Command-line front end.

Subcommands: validate, condense, entropy, sweep, enumerate, duality,
catalog.  Outputs are JSON (reports) or CSV (sweeps), written to stdout or
to --output; sweeps stream their rows as they are computed, and enumerate
writes its results one at a time as they are encoded.  Exit codes:
0 success, 1 domain failure (validation or bound violation), 2 usage or
I/O trouble, including a reader that closed the output pipe early.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction  # noqa: F401 (unused: tests patch it to count Fractions built)
from itertools import islice
from math import comb

import numpy as np

from . import io as cio
from .branching import BranchingData, CondensableAlgebra, validate_branching
from .catalog import catalog, entry
from .channels import (
    NotCondensableError,
    SectorState,
    _channel_output,
    condensation,
    lift_coarse,
    restrict,
    round_trip,
    verify_idempotence,
)
from .duality import find_dualities, verify_duality
from .entropy import order_parameter, order_parameter_rows
from .search import enumerate_branchings
from .systems import AnyonSystem, ValidationReport, validate_system

GRID_POINT_CAP = 10**7
# Grid points evaluated, and CSV rows written, per step of a sweep; memory
# stays flat in the grid size.
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
        out.write(json.dumps(payload, indent=2) + "\n")


def _branching_report(b: BranchingData, args) -> ValidationReport:
    # Validation reads --tolerance, but compiling checks the dimension
    # constraints at its own fixed 1e-9, so a branching may pass one and
    # fail the other; both failures get the same report.
    report = validate_branching(b, args.tolerance)
    if report.ok:
        try:
            condensation(b)
        except NotCondensableError as exc:
            report = dataclasses.replace(report, violations=exc.violations)
    return report


def _require_valid(b: BranchingData, args) -> bool:
    report = _branching_report(b, args)
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
            report = _branching_report(doc, args)
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


def _simplex_grid(parts: int, resolution: int):
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
    grid = _simplex_grid(parts, r)
    best, argmax = -1.0, None
    with _output(args) as out:
        out.write(header + "\n")
        while chunk := list(islice(grid, SWEEP_CHUNK)):
            probs = np.array(chunk, dtype=float) / r  # states by construction
            values, _, residuals, bound = order_parameter_rows(b, probs, bits=args.bits)
            top = int(np.argmax(values))
            if values[top] > best:  # strict: the first maximum wins ties
                best, argmax = float(values[top]), probs[top].tolist()
            table = np.column_stack([probs, values, np.full(len(values), bound), residuals])
            out.write("".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
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
    weights = cio.counts_from_text(args.algebra, "--algebra")
    try:
        algebra = CondensableAlgebra(source, tuple(weights))
        results = enumerate_branchings(
            source, algebra, args.max_sectors, args.max_dim, args.tolerance
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _output(args) as out:
        cio.dump_branchings(results, out)
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
        found = find_dualities(bA, bB)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {
        "count": len(found),
        "dualities": [
            {
                **d.as_dict(),
                "residual": verify_duality(bA, bB, d, trials=args.trials, seed=args.seed),
            }
            for d in found
        ],
    }
    _emit_json(payload, args)
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
    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    if args.grid_resolution < 1:
        parser.error("--grid-resolution must be at least 1")
    if args.command == "duality" and args.trials < 0:
        parser.error("--trials must be non-negative")
    if args.command == "catalog" and args.action == "show" and not args.id:
        parser.error("catalog show requires an entry id")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``anycond sweep ... | head``).  Point
        # stdout at devnull so the flush at interpreter exit does not fail
        # again; see "Note on SIGPIPE" in the documentation of ``signal``.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    except (UsageError, cio.SchemaError, KeyError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
