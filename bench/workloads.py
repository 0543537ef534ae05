"""Seeded inputs, command lists and output checks of the four workloads.

Each builder writes its inputs under ``workdir`` and returns a :class:`Plan`:
the fixed list of ``anycond`` CLI commands one pass runs, one output check
per command, and the deliberate corruptions that prove each kind of check
can fail.  The program sees only the generated inputs: branching and
system files written with ``anycond.io.save``, catalog ids and state
strings.  Checks compare against ``reference``, never against the library.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

from anycond import io
from anycond.branching import BranchingData
from anycond.catalog import trivial_condensation
from anycond.systems import AnyonSystem

import reference as ref

# The package re-exports a function named ``catalog`` over the module's name.
catalog = importlib.import_module("anycond.catalog")

Check = Callable[[str, int], list]


@dataclass
class Corruption:
    """A deliberately wrong output that command ``index``'s check must reject."""

    what: str
    index: int
    text: Callable[[str], str] = lambda text: text
    rc: int | None = None


@dataclass
class Plan:
    commands: list[list[str]] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    corruptions: list[Corruption] = field(default_factory=list)
    items: int = 0  # units of work in one pass: points, results, dualities or commands
    sizes: dict = field(default_factory=dict)

    def add(self, argv: list[str], output: Path, check: Check):
        self.commands.append(["--output", str(output)] + argv)
        self.outputs.append(output)
        self.checks.append(check)


def reorder_source(b: BranchingData, rng: random.Random) -> BranchingData:
    """The same branching with its non-vacuum source sectors reordered."""
    src = b.source
    rest = [i for i in range(len(src)) if i != src.vacuum_index]
    rng.shuffle(rest)
    order = [src.vacuum_index] + rest
    source = AnyonSystem(
        tuple(src.labels[i] for i in order),
        tuple(src.dims[i] for i in order),
        src.vacuum,
        src.dual,
        src.twist,
    )
    return BranchingData(source, b.condensed, b.n[order])


def _rc_fault(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


# -- sweep -----------------------------------------------------------------

SWEEP_CASES = (("toric-1Y", 30), ("repS3-1Y", 100), ("z6-full", 11), ("repS3-lagrangian", 100))
SWEEP_SAMPLES = 64
_MAX_LINE = re.compile(r"# max_S=(\S+) argmax=\S+ bound=(\S+)$")


def _sweep_check(b: ref.Branching, r: int, sampled: list[int]) -> Check:
    k = len(b.source.labels)
    log_lam = math.log(b.lam)
    header = ",".join([f"p_{x}" for x in b.source.labels] + ["S", "bound", "residual"])

    def check(text: str, rc: int) -> list[str]:
        faults = _rc_fault(rc)
        lines = text.splitlines()
        if len(lines) < 2 or lines[0] != header:
            return faults + ["missing or wrong CSV header"]
        rows = lines[1:-1]
        if len(rows) != comb(r + k - 1, k - 1):
            faults.append(f"{len(rows)} rows, expected C({r + k - 1},{k - 1})")
        points = set()
        for row in rows:
            probs = [float(x) for x in row.split(",", k)[:k]]
            counts = tuple(round(p * r) for p in probs)
            if sum(counts) != r or any(p != c / r for p, c in zip(probs, counts)):
                faults.append(f"row {row[:40]!r} is not a grid point of resolution {r}")
                break
            points.add(counts)
        if len(points) != len(rows):
            faults.append("grid points repeat")
        match = _MAX_LINE.match(lines[-1])
        if not match:
            return faults + ["missing '# max_S' line"]
        if not (ref.close(float(match[1]), log_lam) and ref.close(float(match[2]), log_lam)):
            faults.append(f"max_S/bound {match[1]}/{match[2]} differ from log(lam)")
        for i in sampled:
            if i >= len(rows):
                continue
            fields = rows[i].split(",")
            p = [Fraction(round(float(x) * r), r) for x in fields[:k]]
            if not ref.close(float(fields[k]), ref.order_parameter(b, p)):
                faults.append(f"row {i}: S = {fields[k]} differs from the exact reference")
            if not ref.close(float(fields[k + 1]), log_lam):
                faults.append(f"row {i}: bound {fields[k + 1]} differs from log(lam)")
        return faults

    return check


def _alter_sampled_s(k: int, row: int) -> Callable[[str], str]:
    def alter(text: str) -> str:
        lines = text.splitlines()
        fields = lines[row + 1].split(",")
        fields[k] = repr(float(fields[k]) + 1e-9)
        lines[row + 1] = ",".join(fields)
        return "\n".join(lines)

    return alter


def _drop_last_row(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(lines[:-2] + lines[-1:])


def build_sweep(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    for i, (entry_id, r) in enumerate(SWEEP_CASES):
        b = reorder_source(catalog.entry(entry_id).branching, rng)
        path = workdir / f"sweep{i}.json"
        io.save(b, path)
        k = len(b.source)
        points = comb(r + k - 1, k - 1)
        sampled = sorted(rng.sample(range(points), SWEEP_SAMPLES))
        plan.add(
            ["--grid-resolution", str(r), "sweep", "--branching", str(path)],
            workdir / f"out{i}.csv",
            _sweep_check(ref.Branching.of(b), r, sampled),
        )
        plan.items += points
        if i == 0:
            plan.corruptions += [
                Corruption("altered S value", i, _alter_sampled_s(k, sampled[0])),
                Corruption("dropped grid row", i, _drop_last_row),
            ]
    plan.sizes = {"grid_points": plan.items, "cases": len(SWEEP_CASES)}
    return plan


# -- enumerate ---------------------------------------------------------------

# (N, m): plain Z_N source, algebra of m sectors.  The count of results is
# (N - m)! / ((m!)^k k!) with k = N/m - 1, independent of the labels.
ENUMERATE_PLAIN = ((12, 3), (18, 6), (21, 7), (10, 2))
# Product of two Rep(S3) dimension sets, condensing the four dimension-1
# sectors (index 4) with at most 6 condensed sectors of dim <= 2.  The count
# does not depend on labels.  Every run recounts each case with
# reference.count_branchings; tests/bruteforce_enumerator.py would try
# 5^(9k) matrices here and does not finish.
MIXED_DIMS = {f"{a}{b}": da * db for a, da in (("1", 1), ("X", 1), ("Y", 2)) for b, db in (("1", 1), ("X", 1), ("Y", 2))}
MIXED_ALGEBRA = ("11", "1X", "X1", "XX")
MIXED_MAX_SECTORS = 6
MIXED_COUNT = 34
# The DFS's cost depends on which positions of the source order hold the
# vacuum, the algebra and the larger sectors: up to 3x between seeds on the
# mixed case.  So that every seed costs the same, that pattern of kinds is
# drawn once from PATTERN_SEED; the workload seed names the sectors in each
# kind, which picks the labels that form each algebra.
PATTERN_SEED = 0


def plain_count(n: int, m: int) -> int:
    k = n // m - 1
    return math.factorial(n - m) // (math.factorial(m) ** k * math.factorial(k))


def slotted(kinds: dict[str, list[str]], pattern: random.Random, rng: random.Random) -> list[str]:
    """Labels in a source order whose kind at each position ``pattern``
    fixes, and whose names within each kind ``rng`` shuffles."""
    order = [kind for kind, names in kinds.items() for _ in names]
    pattern.shuffle(order)
    pools = {kind: rng.sample(names, len(names)) for kind, names in kinds.items()}
    return [pools[kind].pop() for kind in order]


def _enumerate_check(source: ref.Sectors, algebra: tuple[int, ...], max_sectors: int, count: int) -> Check:
    def check(text: str, rc: int) -> list[str]:
        faults = _rc_fault(rc)
        recount = ref.count_branchings(tuple(map(int, source.dims)), algebra, max_sectors, 2)
        if recount != count:
            faults.append(f"the reference search finds {recount} branchings, the pin says {count}")
        doc = json.loads(text)
        found = doc["branchings"]
        if doc["count"] != count or len(found) != count:
            faults.append(f"count {doc['count']} with {len(found)} listed, expected {count}")
        for i, b in enumerate(found):
            faults += [f"result {i}: {f}" for f in ref.branching_faults(b, source, algebra, max_sectors, 2)]
        if len({ref.canonical_key(b) for b in found}) != len(found):
            faults.append("canonical keys repeat")
        return faults

    return check


def _drop_branching(text: str) -> str:
    doc = json.loads(text)
    doc["branchings"].pop()
    doc["count"] = len(doc["branchings"])
    return json.dumps(doc)


def build_enumerate(seed: int, workdir: Path) -> Plan:
    rng, pattern = random.Random(seed), random.Random(PATTERN_SEED)
    plan = Plan()
    cases = []
    for n, m in ENUMERATE_PLAIN:
        names = rng.sample([str(i) for i in range(1, n)], n - 1)
        labels = slotted({"vacuum": ["0"], "algebra": names[: m - 1], "other": names[m - 1 :]}, pattern, rng)
        picked = {"0", *names[: m - 1]}
        source = AnyonSystem(tuple(labels), (1.0,) * n, "0")
        cases.append((source, picked, n // m, plain_count(n, m)))
    kinds = {"vacuum": ["11"], "algebra": [x for x in MIXED_ALGEBRA if x != "11"]}
    for d in (2, 4):
        kinds[f"dim{d}"] = [x for x, dx in MIXED_DIMS.items() if dx == d]
    labels = slotted(kinds, pattern, rng)
    source = AnyonSystem(tuple(labels), tuple(float(MIXED_DIMS[x]) for x in labels), "11")
    cases.append((source, set(MIXED_ALGEBRA), MIXED_MAX_SECTORS, MIXED_COUNT))

    for i, (source, picked, max_sectors, count) in enumerate(cases):
        path = workdir / f"source{i}.json"
        io.save(source, path)
        algebra = tuple(int(x in picked) for x in source.labels)
        plan.add(
            ["enumerate", "--source", str(path), "--algebra", ",".join(map(str, algebra)),
             "--max-sectors", str(max_sectors), "--max-dim", "2"],
            workdir / f"out{i}.json",
            _enumerate_check(ref.Sectors.of(source), algebra, max_sectors, count),
        )
        plan.items += count
    plan.corruptions.append(Corruption("dropped branching", 0, _drop_branching))
    plan.sizes = {"cases": len(cases), "results": plan.items}
    return plan


# -- duality -----------------------------------------------------------------

def _plain_identity(n: int) -> BranchingData:
    return trivial_condensation(AnyonSystem(tuple(str(i) for i in range(n)), (1.0,) * n, "0"))


# (name, branching A, expected count).  The count of dualities between A and
# any relabelling of A is the number of automorphism pairs of A, so it does
# not depend on the planted relabelling.
DUALITY_CASES = (
    ("plain6-identity", lambda: _plain_identity(6), 120),
    ("z8-trivial", lambda: catalog.entry("z8-trivial").branching, 48),
    ("z7-trivial", lambda: catalog.entry("z7-trivial").branching, 48),
    ("toric-1Y", lambda: catalog.entry("toric-1Y").branching, 1),
    ("z6-full", lambda: catalog.entry("z6-full").branching, 8),
)
TRIALS = 100
TORIC_SWAP = {"1": "1", "Y": "Z", "X": "X", "Z": "Y"}


def plant(bA: BranchingData, sigma: dict, tau: dict) -> BranchingData:
    """The branching B with n_B[a, tau(t)] = n_A[sigma(a), t]."""
    src, cond = bA.source, bA.condensed
    n = np.zeros_like(bA.n)
    for i, a in enumerate(src.labels):
        for j, t in enumerate(cond.labels):
            n[i, cond.index(tau[t])] = bA.n[src.index(sigma[a]), j]
    return BranchingData(src, cond, n)


def _duality_check(bA: ref.Branching, bB: ref.Branching, planted: dict, count: int) -> Check:
    def check(text: str, rc: int) -> list[str]:
        faults = _rc_fault(rc)
        doc = json.loads(text)
        found = doc["dualities"]
        if doc["count"] != count or len(found) != count:
            faults.append(f"count {doc['count']} with {len(found)} listed, expected {count}")
        pairs = set()
        for i, d in enumerate(found):
            if not d["residual"] <= 1e-12:
                faults.append(f"duality {i}: residual {d['residual']!r} above 1e-12")
            faults += [f"duality {i}: {f}" for f in ref.duality_faults(d, bA, bB)]
            pairs.add(json.dumps([d["source_perm"], d["condensed_perm"]], sort_keys=True))
        if len(pairs) != len(found):
            faults.append("dualities repeat")
        if json.dumps([planted["source_perm"], planted["condensed_perm"]], sort_keys=True) not in pairs:
            faults.append("planted duality missing")
        return faults

    return check


def _drop_planted(planted: dict) -> Callable[[str], str]:
    def drop(text: str) -> str:
        doc = json.loads(text)
        doc["dualities"] = [
            d for d in doc["dualities"]
            if (d["source_perm"], d["condensed_perm"]) != (planted["source_perm"], planted["condensed_perm"])
        ]
        doc["count"] = len(doc["dualities"])
        return json.dumps(doc)

    return drop


def build_duality(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    pairs = 0
    for i, (name, make, count) in enumerate(DUALITY_CASES):
        bA = make()
        a = ref.Branching.of(bA)
        sigmas = ref.automorphisms(a.source, a.source)
        taus = ref.automorphisms(a.condensed, a.condensed)
        pairs += len(sigmas) * len(taus)
        sigma = TORIC_SWAP if name == "toric-1Y" else rng.choice(sigmas)
        tau = rng.choice(taus)
        bB = plant(bA, sigma, tau)
        path_a, path_b = workdir / f"a{i}.json", workdir / f"b{i}.json"
        io.save(bA, path_a)
        io.save(bB, path_b)
        planted = {"source_perm": sigma, "condensed_perm": tau}
        plan.add(
            ["duality", "--a", str(path_a), "--b", str(path_b), "--trials", str(TRIALS)],
            workdir / f"out{i}.json",
            _duality_check(a, ref.Branching.of(bB), planted, count),
        )
        plan.items += count
        if i == 0:
            plan.corruptions.append(Corruption("missing planted duality", i, _drop_planted(planted)))
    plan.sizes = {"cases": len(DUALITY_CASES), "sigma_tau_pairs": pairs, "dualities": plan.items}
    return plan


# -- queries -----------------------------------------------------------------

QUERY_CATALOG = (
    "toric-1Y", "toric-1Z", "repS3-1X", "repS3-1Y", "repS3-lagrangian",
    "z2-trivial", "z3-trivial", "toric-trivial", "repS3-trivial",
) + tuple(f"z{n}-full" for n in range(2, 13))
QUERY_FILES = ("toric-1Y", "repS3-1X", "repS3-1Y", "z7-full")
# One large source as a file: Z_N with every sector condensed.  Its commands
# cost two to three times the others', so its 42 commands are the slowest 4 %
# and p99 reads their cost.  Without it the list's costs are nearly flat,
# and p99 read whichever small commands the host happened to slow.
QUERY_LARGE_N = 256
# Commands per branching source; the seed only orders them and draws states,
# so every seed costs the same.  25 sources x 42 = 1,050 commands.
QUERY_MIX = {"entropy": 34, "condense": 4, "validate": 4}


def _state(rng: random.Random, k: int) -> tuple[str, list[Fraction]]:
    weights = [rng.randint(0, 12) for _ in range(k)]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    return ",".join(f"{w}/{total}" if w else "0" for w in weights), probs


def _entropy_check(b: ref.Branching, p: list[Fraction]) -> Check:
    def check(text: str, rc: int) -> list[str]:
        want, log_lam = ref.order_parameter(b, p), math.log(b.lam)
        faults = _rc_fault(rc)
        doc = json.loads(text)
        if not ref.close(doc["order_parameter"], want):
            faults.append(f"S = {doc['order_parameter']!r}, exact reference {want!r}")
        if not ref.close(doc["bound"], log_lam):
            faults.append(f"bound {doc['bound']!r} differs from log(lam)")
        return faults

    return check


def _condense_check(b: ref.Branching, p: list[Fraction]) -> Check:
    def check(text: str, rc: int) -> list[str]:
        restricted = ref.restrict(b, p)
        lifted = [float(x) for x in ref.lift(b, restricted)]
        restricted = [float(x) for x in restricted]
        faults = _rc_fault(rc)
        doc = json.loads(text)
        for key, want in (("restricted", restricted), ("lifted", lifted)):
            got = doc[key]
            if len(got) != len(want) or not all(ref.close(x, y) for x, y in zip(got, want)):
                faults.append(f"{key} {got} differs from the exact reference")
        return faults

    return check


def _validate_check(text: str, rc: int) -> list[str]:
    faults = _rc_fault(rc)
    reports = json.loads(text)
    if len(reports) != 1 or reports[0]["ok"] is not True:
        faults.append("a catalog branching did not validate")
    return faults


def _alter_s(text: str) -> str:
    doc = json.loads(text)
    doc["order_parameter"] += 1e-9
    return json.dumps(doc)


def build_queries(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    pool = []  # (argv naming the branching, the same as a validate target, reference data)
    for entry_id in QUERY_CATALOG:
        b = ref.Branching.of(catalog.entry(entry_id).branching)
        pool.append((["--catalog", entry_id], ["--catalog", entry_id], b))
    for i, entry_id in enumerate(QUERY_FILES):
        b = reorder_source(catalog.entry(entry_id).branching, rng)
        path = workdir / f"branching{i}.json"
        io.save(b, path)
        pool.append((["--branching", str(path)], [str(path)], ref.Branching.of(b)))
    b = reorder_source(catalog.zn_full(QUERY_LARGE_N), rng)
    path = workdir / "large.json"
    io.save(b, path)
    pool.append((["--branching", str(path)], [str(path)], ref.Branching.of(b)))

    jobs = [(kind, source) for source in pool for kind, count in QUERY_MIX.items() for _ in range(count)]
    rng.shuffle(jobs)
    for i, (kind, (named, target, b)) in enumerate(jobs):
        out = workdir / f"out{i}.json"
        if kind == "validate":
            plan.add(["validate"] + target, out, _validate_check)
            continue
        text, p = _state(rng, len(b.source.labels))
        check = _entropy_check(b, p) if kind == "entropy" else _condense_check(b, p)
        plan.add([kind] + named + ["--state", text], out, check)
    first = [kind for kind, _ in jobs].index("entropy")
    plan.corruptions += [
        Corruption("wrong exit code", first, rc=1),
        Corruption("altered S value", first, _alter_s),
    ]
    plan.items = len(jobs)
    plan.sizes = {
        **{f"{kind}_commands": count * len(pool) for kind, count in QUERY_MIX.items()},
        "catalog_ids": len(QUERY_CATALOG),
        "branching_files": len(QUERY_FILES) + 1,
        "large_file_sectors": QUERY_LARGE_N,
    }
    return plan


BUILDERS = {
    "sweep": build_sweep,
    "enumerate": build_enumerate,
    "duality": build_duality,
    "queries": build_queries,
}
