"""Benchmark of the anycond CLI: one workload per call, run in-process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
The run

1. times ``setup_s``: fresh interpreters that import ``anycond`` and write
   the workload's inputs, several times, median;
2. writes the inputs once more and runs the workload's fixed command list
   through ``anycond.cli.main`` in passes for about ``--seconds``;
3. checks every output of the last pass against an exact reference, checks
   that every pass printed the same, and feeds each kind of check a
   corrupted output that it must reject;
4. prints a stamp line (versions, sizes, self-test) and, last, one JSON
   object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics and installs nothing in the
library.  ``--trace 1`` alternates untraced passes with passes under the
timing wrappers of ``tracing`` and reports per-layer metrics, including
the tracing overhead.  ``--workload all`` runs each workload in its own
process and prints every metric by name with its unit.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import heapq
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "enumerate", "duality", "queries")
SETUP_REPEATS = 3
MIN_PASSES = 2
# In an untraced pass over n commands, one of the n // RETIME_SHARE slowest
# runs again after every RETIME_SHARE // 2 commands; lists shorter than
# RETIME_SHARE have none.
RETIME_SHARE = 32
OUT = ROOT / ".bench_out"
CPUS = sorted(os.sched_getaffinity(0))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the checkout's own ``anycond`` from ``src``, nothing else."""
    src = ROOT / "src"
    if not (src / "anycond" / "__init__.py").is_file():
        sys.exit(f"error: {src}/anycond not found; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(BENCH)]
    import anycond

    if Path(anycond.__file__).resolve().parent != (src / "anycond").resolve():
        sys.exit(f"error: imported anycond from {anycond.__file__}, not from {src}")


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


def move_to_fastest_cpu():
    """Pin this process (and the children it starts) to the CPU that runs a
    fixed probe loop fastest.

    On a shared host one virtual CPU at a time runs up to 1.7x slower for
    tens of seconds while the other stays fast, so a run that sits on the
    slow one reads slow throughout.  The probe costs about 30 ms.
    """
    if len(CPUS) > 1:
        probes = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            probes[cpu] = min(_probe() for _ in range(3))
        os.sched_setaffinity(0, {min(probes, key=probes.get)})


def time_setups(args, scratch: Path) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        move_to_fastest_cpu()
        workdir = scratch / f"setup{i}"
        workdir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(workdir)
    return times


def run_command(cli, i: int, argv: list[str]) -> tuple[float, int]:
    # A CLI command normally starts in a fresh interpreter.  Collecting the
    # previous command's garbage untimed gives each command that empty
    # collector, so the collections it pays for are its own and do not
    # depend on where it sits in the list.
    gc.collect()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed command, not a failed run
        print(f"command {i} raised {exc!r}", file=sys.stderr)
        rc = -1
    return time.perf_counter() - start, rc


def run_pass(plan, cli, history=()) -> tuple[list[list[float]], list[int], list[str]]:
    """One pass over the command list: each command's latency samples, its
    exit code (the first non-zero one) and its output digest.

    Given the earlier untraced passes, the pass also times again the
    commands that look slowest so far.  A command's fastest time is its
    cost only once one of its samples missed every slow stretch of the
    host.  A few passes leave about 1 % of commands with no such sample,
    the very share a p99 reads, so after every ``RETIME_SHARE // 2``
    commands, the least-sampled of the ``n // RETIME_SHARE`` slowest runs
    again.
    """
    n = len(plan.commands)
    samples, codes = [[] for _ in range(n)], [0] * n
    tail = n // RETIME_SHARE if history else 0
    best = fastest(history) if tail else []
    counts = [sum(len(p[0][i]) for p in history) for i in range(n)] if tail else []

    def timed(i):
        latency, rc = run_command(cli, i, plan.commands[i])
        samples[i].append(latency)
        codes[i] = codes[i] or rc
        if tail:
            best[i] = min(best[i], latency)
            counts[i] += 1

    for i in range(n):
        timed(i)
        if tail and (i + 1) % (RETIME_SHARE // 2) == 0:
            slow = heapq.nlargest(tail, range(n), key=best.__getitem__)
            timed(min(slow, key=lambda j: (counts[j], -best[j])))
    digests = [hashlib.sha1(p.read_bytes()).hexdigest() if p.exists() else "" for p in plan.outputs]
    return samples, codes, digests


def fastest(passes) -> list[float]:
    """Each command's fastest latency over the given passes.

    On a shared host the CPU runs up to 1.5x slower for stretches of tens
    of milliseconds to seconds, a third of the time or more, so medians
    swing with the load; the fastest time of each command is the steady
    estimate of its unloaded cost.
    """
    return [min(min(s) for s in column) for column in zip(*(samples for samples, _, _ in passes))]


def check_outputs(plan, passes) -> tuple[int, list[str]]:
    """Failed executions: crashes, non-zero exits, wrong output in the last
    pass, or output that differs from the last pass's."""
    last_digests = passes[-1][2]
    failed, notes = 0, []
    for i, (check, path) in enumerate(zip(plan.checks, plan.outputs)):
        rc = passes[-1][1][i]
        try:
            faults = check(path.read_text(encoding="utf-8"), rc) if path.exists() else ["no output"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            faults = [f"unreadable output: {exc!r}"]
        for _, codes, digests in passes:
            if faults or codes[i] != 0 or digests[i] != last_digests[i]:
                failed += 1
        notes += [f"command {i}: {f}" for f in faults[:3]]
    return failed, notes


def self_test(plan) -> dict[str, str]:
    """Feed each check a corrupted copy of a real output; each must fail."""
    results = {}
    for c in plan.corruptions:
        text = c.text(plan.outputs[c.index].read_text(encoding="utf-8"))
        faults = plan.checks[c.index](text, 0 if c.rc is None else c.rc)
        results[c.what] = "detected" if faults else "MISSED"
    return results


def environment_stamp(args, plan) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(CPUS),
        "sizes": {**plan.sizes, "commands": len(plan.commands)},
    }


def percentile_ms(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def run_workload(args) -> int:
    load_program()
    import tracing
    import workloads
    from anycond import cli

    if args.setup_only:
        workloads.BUILDERS[args.workload](args.seed, Path(args.setup_only))
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-t{args.trace}-", dir=OUT))
    setups = time_setups(args, scratch)
    workdir = scratch / "run"
    workdir.mkdir()
    plan = workloads.BUILDERS[args.workload](args.seed, workdir)

    # The harness's own objects (plan, references, modules) are not the
    # program's heap: keep them out of every collection the commands pay for.
    gc.collect()
    gc.freeze()
    tracer = tracing.Tracer() if args.trace else None
    runs, untraced, traced = [], [], []  # every pass in order; the untraced; the traced
    start = last = time.perf_counter()
    # Passes repeat while the next one would end nearer the deadline than not.
    while (
        min(len(untraced), len(traced) if tracer else MIN_PASSES) < MIN_PASSES
        or time.perf_counter() - start + (time.perf_counter() - last) / 2 < args.seconds
    ):
        move_to_fastest_cpu()
        last = time.perf_counter()
        if tracer is not None and len(traced) < len(untraced):
            # No retiming here: traced passes must make the same calls each time.
            tracer.install()
            try:
                runs.append(run_pass(plan, cli))
            finally:
                tracer.remove()
            tracer.fold()
            traced.append(runs[-1])
        else:
            runs.append(run_pass(plan, cli, untraced))
            untraced.append(runs[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced_fastest = fastest(untraced)

    failed, notes = check_outputs(plan, runs)
    selftest = self_test(plan)
    attempted = len(runs) * len(plan.commands)
    correct = failed == 0 and all(v == "detected" for v in selftest.values())

    wall = sum(untraced_fastest)
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (sum(fastest(traced)) / wall - 1, "ratio")
        tracer.write(scratch / "spans.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "items_per_s": (plan.items / wall, "1/s"),
            "command.p50_ms": (percentile_ms(untraced_fastest, 50), "ms"),
            "command.p99_ms": (percentile_ms(untraced_fastest, 99), "ms"),
        }

    stamp = environment_stamp(args, plan)
    stamp.update(
        passes=len(untraced),
        traced_passes=len(traced),
        setup_samples_s=setups,
        failed_frac=failed / attempted,
        selftest=selftest,
        faults=notes[:20],
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    shutil.rmtree(workdir)
    (scratch / "result.json").write_text(json.dumps({"stamp": stamp, **result}, indent=2) + "\n")
    for note in notes[:20]:
        print(note, file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; every metric by name and unit."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
