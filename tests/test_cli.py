"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import dataclasses
import errno
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import run_clean
from reference_sweep import sweep_text

import anycond as ac
from anycond import cli
from anycond import io as cio
from anycond import search
from anycond.catalog import ZN_CAP
from anycond.cli import main

DEFAULT_CHUNK = cli.SWEEP_CHUNK


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_catalog_entry_ok(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "toric-1Y")
    assert code == 0
    report = json.loads(out)
    assert report[0]["ok"] is True


def test_validate_broken_file_names_failing_sector(capsys, tmp_path):
    doc = cio.branching_to_dict(ac.entry("toric-1Y").branching)
    doc["n"][1] = [1, 1]  # breaks the weighted row sum for sector Y
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report[0]["ok"] is False
    details = " ".join(v["detail"] for v in report[0]["violations"])
    assert "'Y'" in details


def test_validate_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, number",
    [
        (["entropy", "--catalog", "toric-1Y", "--state-file", "{file}/x"], errno.ENOTDIR),
        (["--output", "{file}/x", "catalog", "list"], errno.ENOTDIR),
        (["--output", "{dir}/" + "a" * 300, "catalog", "list"], errno.ENAMETOOLONG),
        (["--output", "/dev/full", "catalog", "list"], errno.ENOSPC),
    ],
    ids=["state-file-under-a-file", "output-under-a-file", "name-too-long", "output-full"],
)
def test_any_os_error_is_one_line_and_exit_2(tmp_path, argv, number):
    # Not only the missing file, the directory and the denied permission:
    # these ended in a traceback and exit 1.
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    file = tmp_path / "file"
    file.write_text("{}")
    code, out, err = run_clean(*(a.format(file=file, dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: [Errno {number}] ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["catalog", "list"], ["catalog", "show", "toric-1Y"]])
def test_a_full_stdout_is_one_line_and_exit_2(capsys, argv):
    # The long listing fails in its write, the short entry in the flush of
    # stdout that ends the command.  Either way the bytes it could not write
    # stay buffered, so the command points stdout at devnull and closing it
    # does not fail again.
    with open("/dev/full", "w", encoding="utf-8") as full:
        with contextlib.redirect_stdout(full):
            code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "list"],
        ["catalog", "show", "toric-1Y"],
        ["--grid-resolution", "30", "sweep", "--catalog", "toric-1Y"],
    ],
)
def test_a_full_stdout_ends_the_process_with_one_line(argv):
    # `anycond catalog list > /dev/full`: without devnull behind stdout the
    # flush at interpreter exit failed again, printed "Exception ignored"
    # and ended the process with status 120.  Only a buffered stdout keeps
    # the bytes it could not write, so PYTHONUNBUFFERED is left out.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "anycond", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=dict(env, PYTHONPATH=path),
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: [Errno {errno.ENOSPC}] No space left on device\n".encode()


def test_entropy_golden_value(capsys):
    code, out, _ = run(capsys, "entropy", "--catalog", "repS3-1Y", "--state", "1/2,0,1/2")
    assert code == 0
    report = json.loads(out)
    assert report["order_parameter"] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)
    assert report["log_base"] == "natural"


def test_entropy_bits_flag(capsys):
    code, out, _ = run(
        capsys, "--bits", "entropy", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["order_parameter"] == pytest.approx(1.0, abs=1e-12)
    assert report["log_base"] == "bits"


def test_entropy_renormalises_the_state_before_the_bound_check(capsys):
    # The state sums to 1 + 1e-10, inside the 1e-9 slack; unnormalised it
    # read S = 0.69314718063 > log 2.
    code, out, _ = run(capsys, "entropy", "--catalog", "toric-1Y", "--state", "1,0,0,1e-10")
    assert code == 0
    report = json.loads(out)
    assert report["order_parameter"] <= report["bound"]
    assert report["order_parameter"] == pytest.approx(math.log(2.0), abs=1e-15)


def test_entropy_exit_code_follows_tolerance(capsys, monkeypatch):
    real = cli.order_parameter

    def over_bound(b, rho, bits=False):
        report = real(b, rho, bits)
        return dataclasses.replace(report, order_parameter=report.bound + 1e-7)

    monkeypatch.setattr(cli, "order_parameter", over_bound)
    argv = ["entropy", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2"]
    assert run(capsys, *argv)[0] == 1
    assert run(capsys, "--tolerance", "1e-6", *argv)[0] == 0


def test_entropy_bad_state_is_usage_error(capsys):
    code, _, err = run(capsys, "entropy", "--catalog", "toric-1Y", "--state", "1,2")
    assert code == 2
    assert "error" in err


def test_condense_reports_probs_and_residuals(capsys):
    code, out, _ = run(capsys, "condense", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["restricted"] == [0.5, 0.5]
    assert payload["lifted"] == [0.25, 0.25, 0.25, 0.25]
    assert all(v <= 1e-12 for v in payload["residuals"].values())


def test_condense_from_files(capsys, tmp_path):
    bpath = tmp_path / "b.json"
    cio.save(ac.entry("repS3-1X").branching, bpath)
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"probs": [0, 0, 1]}))
    code, out, _ = run(capsys, "condense", "--branching", str(bpath), "--state-file", str(spath))
    assert code == 0
    payload = json.loads(out)
    assert payload["restricted"] == [0.0, 0.5, 0.5]



@pytest.mark.parametrize("command", ["entropy", "condense"])
def test_state_file_that_is_not_json_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    code, out, err = run(capsys, command, "--catalog", "toric-1Y", "--state-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--catalog", "toric-1Y", "--state-file"],
        ["condense", "--catalog", "toric-1Y", "--state-file"],
        ["validate"],
        ["enumerate", "--algebra", "1", "--source"],
    ],
)
def test_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: not UTF-8 text")

def test_sweep_resolution_two_has_ten_rows_and_footer(capsys):
    code, out, _ = run(capsys, "--grid-resolution", "2", "sweep", "--catalog", "toric-1Y")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p_1,p_Y,p_X,p_Z,S,bound,residual")
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 10
    footer = lines[-1]
    assert footer.startswith("# max_S=")
    assert f"{math.log(2.0)!r}" in footer


def test_sweep_resolution_one_is_vertices_only(capsys):
    code, out, _ = run(capsys, "--grid-resolution", "1", "sweep", "--catalog", "repS3-1X")
    assert code == 0
    data = [l for l in out.strip().splitlines()[1:] if not l.startswith("#")]
    assert len(data) == 3
    for line in data:
        probs = [float(x) for x in line.split(",")[:3]]
        assert sorted(probs) == [0.0, 0.0, 1.0]


def test_sweep_grid_cap(capsys):
    code, _, err = run(capsys, "--grid-resolution", "10000000", "sweep", "--catalog", "toric-1Y")
    assert code == 2
    assert "cap" in err


def test_sweep_of_one_sector_is_one_row_at_any_resolution(capsys, tmp_path):
    # One point at any resolution: its cells are made per batch, not as a
    # table of r + 1 probabilities, which at r = 1e7 took seconds and 1.4 GB.
    system = ac.AnyonSystem(("1",), (1.0,), "1")
    b = ac.BranchingData(system, system, [[1]])
    path = tmp_path / "one.json"
    cio.save(b, path)
    for r in (1000, 10**7):
        start = time.perf_counter()
        code, out, _ = run(capsys, "--grid-resolution", str(r), "sweep", "--branching", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, sweep_text(b, r))


def test_sweep_memory_stays_flat_in_the_resolution(tmp_path):
    # A two-part grid of r + 1 points: each batch formats its own cells, so
    # the peak does not grow with r.
    peaks = []
    for r in (500, 50_000):
        tracemalloc.start()
        code = main(["--grid-resolution", str(r), "--output", os.devnull, "sweep", "--catalog", "z2-full"])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert code == 0
    assert peaks[1] < peaks[0] + 2**20, peaks


def test_sweep_lagrangian_max_attains_bound_at_vertex(capsys, catalog_entry):
    # S(p) = D(p || R p) is jointly convex in p, so its maximum over the
    # simplex lies at a vertex, and at the vacuum vertex it is log(lam): the
    # footer's max_S equals its bound on every valid branching.
    argv = ["--grid-resolution", "3", "sweep", "--catalog", catalog_entry.id]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    footer = out.strip().splitlines()[-1]
    max_s = float(footer.split("max_S=")[1].split(" ")[0])
    assert max_s == pytest.approx(float(footer.split("bound=")[1]), abs=1e-12)
    if catalog_entry.id == "repS3-lagrangian":
        assert max_s == pytest.approx(math.log(6.0), abs=1e-12)
        argmax = footer.split("argmax=")[1].split(" ")[0]
        assert [float(x) for x in argmax.split("|")] == [1.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "entry_id,resolution", [("toric-1Y", 20), ("repS3-1Y", 60), ("z6-full", 8)]
)
def test_sweep_output_does_not_depend_on_chunk_size(
    capsys, monkeypatch, tmp_path, entry_id, resolution
):
    # Each grid holds more than one default chunk.
    argv = ["--grid-resolution", str(resolution), "sweep", "--catalog", entry_id]
    outputs = set()
    for size in (1, 7, DEFAULT_CHUNK):
        monkeypatch.setattr(cli, "SWEEP_CHUNK", size)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        target = tmp_path / f"sweep-{size}.csv"
        assert run(capsys, "--output", str(target), *argv)[:2] == (0, "")
        outputs |= {out, target.read_text(encoding="utf-8")}
    assert len(outputs) == 1
    assert len(out.splitlines()) - 2 > DEFAULT_CHUNK


def test_sweep_footer_keeps_the_first_maximum_across_chunks(capsys, monkeypatch):
    # Z_3 reaches log 3 at its three vertices: the vacuum vertex opens the
    # grid, the other two come 1,275 and 1,325 rows later, in other chunks.
    for size in (1, 7, DEFAULT_CHUNK):
        monkeypatch.setattr(cli, "SWEEP_CHUNK", size)
        code, out, _ = run(capsys, "--grid-resolution", "50", "sweep", "--catalog", "z3-full")
        assert code == 0
        lines = out.splitlines()
        values = [float(line.split(",")[3]) for line in lines[1:-1]]
        top = max(values)
        assert values.count(top) == 3
        first = lines[1 + values.index(top)].split(",")[:3]
        assert lines[-1].split("argmax=")[1].split(" ")[0] == "|".join(first)


def test_sweep_above_the_bound_exits_1(capsys):
    # On the 1-X edge of repS3-1Y, S is log 3 exactly, and rounding puts the
    # computed value one ulp above the bound, which a tolerance of 1e-300
    # does not absorb.
    argv = ["--tolerance", "1e-300", "--grid-resolution", "5", "sweep", "--catalog", "repS3-1Y"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == sweep_text(ac.entry("repS3-1Y").branching, 5)
    footer = "# max_S=1.09861228866811 argmax=0.8|0.2|0.0 bound=1.0986122886681098"
    assert out.splitlines()[-1] == footer


def test_closed_pipe_ends_without_a_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # Buffered, so stdout keeps the bytes the closed pipe refused.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env = dict(env, PYTHONPATH=path)
    # About 5 MB of CSV, far more than a pipe buffers.
    argv = ["--grid-resolution", "80", "sweep", "--catalog", "toric-1Y"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "anycond", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"p_1,p_Y")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")


def test_enumerate_cli(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--catalog",
        "toric-1Y",
        "--algebra",
        "1,1,0,0",
        "--max-sectors",
        "4",
        "--max-dim",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["branchings"][0]["n"] == [[1, 0], [1, 0], [0, 1], [0, 1]]


@pytest.mark.parametrize("flag", ["--max-dim", "--max-sectors"])
def test_enumerate_bounds_beyond_the_budget_change_nothing(capsys, flag):
    # toric-1Y over 1 + Y leaves a budget of one unit of d**2 beyond the
    # vacuum: one more sector, of dim 1, whatever the bounds.
    argv = ["enumerate", "--catalog", "toric-1Y", "--algebra", "1,1,0,0"]
    code, want, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, flag, "1000000") == (0, want, "")


@pytest.mark.parametrize("d_y", [2.0, 2 + 1e-8], ids=["exact", "off-by-1e-8"])
def test_enumerate_prints_only_branchings_that_validate_accepts(capsys, tmp_path, d_y):
    s = ac.entry("repS3-1Y").branching.source
    source = tmp_path / "source.json"
    cio.save(ac.AnyonSystem(s.labels, (1.0, 1.0, d_y), s.vacuum, s.dual, s.twist), source)
    printed = 0
    for algebra in ("1,0,0", "1,1,0", "1,0,1"):
        code, out, _ = run(
            capsys, "--tolerance", "1e-6", "enumerate", "--source", str(source), "--algebra", algebra
        )
        assert code == 0
        for k, doc in enumerate(json.loads(out)["branchings"]):
            path = tmp_path / f"{algebra}-{k}.json"
            path.write_text(json.dumps(doc))
            assert run(capsys, "--tolerance", "1e-6", "validate", str(path))[0] == 0
            printed += 1
    # Over the off source every row of Y misses its dim by 1e-8, more than
    # the 1e-9 at which a branching compiles.
    assert printed == (3 if d_y == 2.0 else 0)


def test_enumerate_at_a_tolerance_that_rounds_the_vacuum_dim_to_zero(tmp_path):
    # The dims round to (0, 1) within 0.8, so the index is 0 and D**2
    # cannot be taken modulo it.
    source = tmp_path / "source.json"
    cio.save(ac.AnyonSystem(("1", "a"), (0.3, 1.0), "1"), source)
    argv = ["--tolerance", "0.8", "enumerate", "--source", str(source), "--algebra", "1,0"]
    code, out, err = run_clean(*argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 0


def test_enumerate_bad_algebra_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--catalog", "toric-1Y", "--algebra", "0,1,0,0")
    assert code == 2
    assert "error" in err


def test_enumerate_refuses_an_invalid_source_with_its_report(capsys, tmp_path):
    # It printed an empty result and exited 0 where validate exits 1.
    path = tmp_path / "source.json"
    doc = {"schema_version": 1, "labels": ["1", "a", "b"], "dims": [1, 1, 1], "vacuum": "1",
           "dual": {"1": "1", "a": "b", "b": "b"}}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    violations = json.loads(out)[0]["violations"]
    assert [v["rule"] for v in violations] == ["dual-involution"]
    # The source is checked before --algebra is read.
    for algebra in ("1,1,1", "x"):
        code, out, err = run_clean("enumerate", "--source", str(path), "--algebra", algebra)
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["error"] == "source system is not valid"
        assert report["ok"] is False and report["violations"] == violations


def test_enumerate_validates_its_source_once(monkeypatch):
    # Once by the command, once by the library function, never by the search.
    calls = []

    def counted(*args):
        calls.append(args)
        return ac.validate_system(*args)

    monkeypatch.setattr(cli, "validate_system", counted)
    monkeypatch.setattr(search, "validate_system", counted)
    code, out, err = run_clean("enumerate", "--catalog", "toric-1Y", "--algebra", "1,1,0,0")
    assert (code, err) == (0, "") and json.loads(out)["count"] > 0
    assert len(calls) == 1
    source = ac.entry("toric-1Y").branching.source
    assert search.enumerate_branchings(source, ac.CondensableAlgebra(source, (1, 1, 0, 0)), 4, 2)
    assert len(calls) == 2


def test_enumerate_names_the_file_field_and_sector_of_a_non_integer_dim(tmp_path):
    system = ac.AnyonSystem(("1", "a", "b"), (1.0, 1.5, 2.5), "1")
    branching = ac.BranchingData(system, system, np.eye(3, dtype=int))
    for doc, field in ((system, "dims"), (branching, "source.dims")):
        path = tmp_path / f"{field}.json"
        cio.save(doc, path)
        code, out, err = run_clean("enumerate", "--source", str(path), "--algebra", "1,0,0")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {field}: enumeration requires integer dims, within 1e-09, "
            "but sector 'a' has d = 1.5\n"
        )
        # A refusal that is not about the file's dims names no field.
        code, out, err = run_clean("enumerate", "--source", str(path), "--algebra", "1,0")
        assert (code, out, err) == (2, "", "error: one coefficient per source sector required\n")


def test_enumerate_names_a_file_field_only_for_the_typed_dims_refusal(tmp_path, monkeypatch):
    # Any other ValueError is a usage error, even one whose text reads alike.
    def refuse(*args):
        raise ValueError("enumeration requires integer dims, or so it says")

    monkeypatch.setattr(cli, "branching_blocks", refuse)
    path = tmp_path / "source.json"
    cio.save(ac.entry("toric-1Y").branching.source, path)
    code, out, err = run_clean("enumerate", "--source", str(path), "--algebra", "1,1,0,0")
    assert (code, out, err) == (2, "", "error: enumeration requires integer dims, or so it says\n")


def test_duality_cli_finds_the_swap(capsys):
    code, out, _ = run(
        capsys, "duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    duality = payload["dualities"][0]
    assert duality["source_perm"]["Y"] == "Z"
    assert duality["residual"] <= 1e-12


def _toric_off_by_1e7(tmp_path):
    """toric-1Y with d_Y = 1 + 1e-7: the dimension constraints miss by more
    than the 1e-9 at which a branching compiles, so it is rejected at any
    --tolerance."""
    b = ac.entry("toric-1Y").branching
    s = b.source
    source = ac.AnyonSystem(s.labels, (1.0, 1.0 + 1e-7, 1.0, 1.0), s.vacuum, s.dual, s.twist)
    path = tmp_path / "off.json"
    cio.save(ac.BranchingData(source, b.condensed, b.n), path)
    return str(path)


def _assert_not_condensable(out, rules):
    payload = json.loads(out)
    assert payload["error"] == "branching data is not condensable"
    assert payload["ok"] is False
    found = {v["rule"] for v in payload["violations"]}
    assert set(rules) <= found
    assert any("'Y'" in v["detail"] for v in payload["violations"])


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--state", "1/2,0,0,1/2"],
        ["condense", "--state", "1/2,0,0,1/2"],
        ["sweep", "--grid-resolution", "2"],
    ],
    ids=["entropy", "condense", "sweep"],
)
def test_branching_within_tolerance_but_not_compilable_is_reported(capsys, tmp_path, argv):
    path = _toric_off_by_1e7(tmp_path)
    # At the default tolerance validation already rejects the file.
    code, out, _ = run(capsys, *argv, "--branching", path)
    assert code == 1
    _assert_not_condensable(out, ["dim-restriction", "dim-lift"])
    # At 1e-6 too: the dimension constraints are checked at min(--tolerance, 1e-9).
    code, out, err = run(capsys, "--tolerance", "1e-6", *argv, "--branching", path)
    assert code == 1
    assert err == ""
    _assert_not_condensable(out, ["dim-restriction", "dim-lift"])
    assert not any(line.startswith("p_") for line in out.splitlines())


@pytest.mark.parametrize("extra", [[], ["--trials", "0"], ["--tolerance", "1e-6"]])
def test_duality_rejects_a_non_condensable_branching(capsys, tmp_path, extra):
    path = _toric_off_by_1e7(tmp_path)
    code, out, err = run(capsys, "duality", "--a", path, "--b", path, *extra)
    assert code == 1
    assert err == ""
    _assert_not_condensable(out, ["dim-restriction"])
    good = tmp_path / "good.json"
    cio.save(ac.entry("toric-1Y").branching, good)
    code, out, _ = run(capsys, "duality", "--a", str(good), "--b", path, *extra)
    assert code == 1
    _assert_not_condensable(out, ["dim-restriction"])


def test_duality_negative_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z", "--trials", "-1"])
    assert info.value.code == 2
    assert "--trials must be non-negative" in capsys.readouterr().err


DUALITY_ARGV = ["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z"]
ENUMERATE_ARGV = ["enumerate", "--catalog", "toric-1Y", "--algebra", "1,1,0,0"]


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["--tolerance", value, "validate", "--catalog", "toric-1Y"]
            for value in ("nan", "inf", "-inf", "0", "-1")
        ),
        ["--tolerance", "nan", "entropy", "--catalog", "toric-1Y", "--state", "1,0,0,0"],
        ["--seed", "-1", *DUALITY_ARGV],
        ["--seed", str(2**63), *DUALITY_ARGV],
        [*DUALITY_ARGV, "--trials", "-1"],
        ["--grid-resolution", "0", "sweep", "--catalog", "toric-1Y"],
        [*ENUMERATE_ARGV, "--max-sectors", "0"],
        [*ENUMERATE_ARGV, "--max-dim", "0"],
    ],
    ids=lambda argv: " ".join(argv[:3] if argv[0].startswith("--") else argv[-2:]),
)
def test_every_numeric_flag_refuses_a_bad_value(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("trials", [str(cli.TRIALS_CAP + 1), "1000000000000", "10" + "0" * 400])
def test_duality_trials_beyond_the_cap_is_usage_error(capsys, monkeypatch, trials):
    # Refused by the parser, before any state is drawn.
    monkeypatch.setattr(cli, "_residuals", None)
    with pytest.raises(SystemExit) as info:
        main(["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z", "--trials", trials])
    assert info.value.code == 2
    assert f"--trials exceeds the cap of {cli.TRIALS_CAP}" in capsys.readouterr().err


def test_duality_trials_at_the_cap_is_accepted(capsys, monkeypatch):
    seen = []

    def record(bA, bB, sigmas, taus, trials, seed):
        seen.append(trials)
        return np.zeros(len(sigmas))

    monkeypatch.setattr(cli, "_residuals", record)
    args = ["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z"]
    assert main(args + ["--trials", str(cli.TRIALS_CAP)]) == 0
    assert seen == [10**6]
    assert json.loads(capsys.readouterr().out)["dualities"][0]["residual"] == 0.0


def test_catalog_list_contains_reference_entries(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    ids = {e["id"] for e in json.loads(out)["entries"]}
    assert {"toric-1Y", "repS3-1X", "repS3-1Y", "repS3-lagrangian", "z2-full"} <= ids


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "repS3-lagrangian")
    assert code == 0
    payload = json.loads(out)
    assert payload["branching"]["n"] == [[1], [1], [2]]
    assert any(g["log_of"] == "6" for g in payload["expected"])


def test_catalog_show_unknown_id(capsys):
    code, _, err = run(capsys, "catalog", "show", "bogus")
    assert code == 2
    known = ", ".join(e.id for e in ac.catalog())
    assert err == f"error: unknown catalog entry 'bogus'; known: {known}\n"


def test_catalog_id_over_the_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "entropy", "--catalog", "z2000-full", "--state", "1")
    assert (code, out) == (2, "")
    assert err == f"error: catalog entry 'z2000-full': N exceeds the cap of {ZN_CAP}\n"


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "--output", str(target), "entropy", "--catalog", "z2-full", "--state", "1,0"
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["order_parameter"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_validate_nothing_is_usage_error(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "nothing to validate" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["entropy", "--state", "1"], "provide --catalog ID or --branching FILE"),
        (["entropy", "--catalog", "toric-1Y"], "provide --state P1,P2,... or --state-file FILE"),
        (["enumerate", "--algebra", "1"], "provide --catalog ID or --source FILE"),
        (["duality", "--a", "x.json"], "provide --a/--b files or --catalog-a/--catalog-b ids"),
        (["duality", "--catalog-a", "z9-trivial", "--catalog-b", "z9-trivial"],
         "9 labels exceed the search cap 8"),
    ],
    ids=["entropy-no-branching", "entropy-no-state", "enumerate-no-source", "duality-one-file",
         "duality-beyond-the-label-cap"],
)
def test_missing_or_oversized_input_is_a_usage_error(argv, message):
    code, out, err = run_clean(*argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_catalog_show_without_an_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["catalog", "show"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: catalog show requires an entry id\n")


def test_global_flags_accepted_after_subcommand(capsys):
    code, out, _ = run(capsys, "sweep", "--catalog", "toric-1Y", "--grid-resolution", "1")
    assert code == 0
    assert len([l for l in out.strip().splitlines()[1:] if not l.startswith("#")]) == 4

    code, out, _ = run(capsys, "entropy", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2", "--bits")
    assert code == 0
    assert json.loads(out)["log_base"] == "bits"


# The command mix of this module, as argv lists for one shared parser:
# global flags before and after the subcommand, a --bits parse followed by
# plain ones, repeated and appended options.
PARSER_MIX = [
    ["validate", "--catalog", "toric-1Y"],
    ["validate", "--catalog", "toric-1Y", "--catalog", "repS3-1X", "a.json", "b.json"],
    ["validate", "/no/such/file.json"],
    ["validate"],
    ["entropy", "--catalog", "repS3-1Y", "--state", "1/2,0,1/2"],
    ["--bits", "entropy", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2"],
    ["entropy", "--catalog", "toric-1Y", "--state", "1,0,0,1e-10"],
    ["entropy", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2", "--bits"],
    ["entropy", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2"],
    ["--tolerance", "1e-6", "entropy", "--branching", "f.json", "--state", "1,0"],
    ["condense", "--catalog", "toric-1Y", "--state", "1/2,0,0,1/2"],
    ["condense", "--branching", "b.json", "--state-file", "s.json"],
    ["--grid-resolution", "2", "sweep", "--catalog", "toric-1Y"],
    ["sweep", "--catalog", "toric-1Y", "--grid-resolution", "1"],
    ["sweep", "--catalog", "toric-1Y"],
    ["--output", "out.csv", "sweep", "--catalog", "repS3-1X", "--bits"],
    ["enumerate", "--catalog", "toric-1Y", "--algebra", "1,1,0,0", "--max-sectors", "4",
     "--max-dim", "2"],
    ["enumerate", "--source", "s.json", "--algebra", "1,0,0,0"],
    ["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z"],
    ["duality", "--a", "a.json", "--b", "b.json", "--trials", "0", "--seed", "7"],
    ["--seed", "3", "duality", "--a", "a.json", "--b", "b.json"],
    ["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z", "--trials", "-1"],
    ["catalog", "list"],
    ["catalog", "show", "repS3-lagrangian"],
    ["catalog", "show"],
    ["--output", "out.json", "entropy", "--catalog", "z2-full", "--state", "1,0"],
]


def test_one_parser_parses_like_fresh_parsers():
    shared = cli.build_parser()
    for argv in PARSER_MIX + PARSER_MIX[::-1]:
        assert vars(shared.parse_args(argv)) == vars(cli.build_parser().parse_args(argv)), argv
    # A parse that fails part way leaves nothing behind either.
    with pytest.raises(SystemExit):
        shared.parse_args(["--bits", "enumerate", "--catalog", "toric-1Y"])
    plain = ["entropy", "--catalog", "toric-1Y", "--state", "1,0,0,0"]
    assert vars(shared.parse_args(plain)) == vars(cli.build_parser().parse_args(plain))
    assert shared.parse_args(plain).bits is False


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built, build = [], cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "--bits", "entropy", "--catalog", "toric-1Y", "--state", "1,0,0,0")[0] == 0
        code, out, _ = run(capsys, "entropy", "--catalog", "toric-1Y", "--state", "1,0,0,0")
    finally:
        cli._parser.cache_clear()
    assert code == 0
    assert json.loads(out)["log_base"] == "natural"
    assert len(built) == 1


@pytest.mark.parametrize("value", ["true", "Infinity", "-Infinity", "NaN"])
def test_twist_that_is_a_bool_or_not_finite_is_a_usage_error(capsys, tmp_path, value):
    text = cio.dumps(ac.entry("toric-1Y").branching).replace('"X": "1/2"', f'"X": {value}')
    assert value in text
    path = tmp_path / "twist.json"
    path.write_text(text)
    for argv in (["validate", str(path)], ["entropy", "--branching", str(path), "--state", "1,0,0,0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: source.twist.X: not a fraction")


def test_validate_reports_what_the_other_commands_report(capsys, tmp_path):
    # Not compilable: validate once printed "ok": true at --tolerance 1e-6
    # and exited 0 here, while entropy exited 1.
    path = _toric_off_by_1e7(tmp_path)
    code, out, _ = run(capsys, "--tolerance", "1e-6", "validate", path)
    assert code == 1
    [report] = json.loads(out)
    code, out, _ = run(
        capsys, "--tolerance", "1e-6", "entropy", "--branching", path, "--state", "1,0,0,0"
    )
    assert code == 1
    _assert_not_condensable(out, ["dim-restriction"])
    rejected = json.loads(out)
    del rejected["error"]
    assert report == {"target": path, **rejected}


# A 401-digit integer is a valid JSON number and a valid rational, but no
# float holds it: each input path reports it as bad input (exit 2), not as a
# domain failure or a traceback.
HUGE = 10**400


def test_state_too_large_for_a_float_is_a_usage_error(capsys):
    code, out, err = run(capsys, "entropy", "--catalog", "toric-1Y", "--state", f"{HUGE},0,0,0")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot parse state '{HUGE},0,0,0'")


@pytest.mark.parametrize("value", [HUGE, str(HUGE)], ids=["integer", "string"])
def test_state_file_entry_too_large_for_a_float_is_a_usage_error(capsys, tmp_path, value):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"probs": [0, value, 0, 0]}))
    code, out, err = run(capsys, "condense", "--catalog", "toric-1Y", "--state-file", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: probs[1]: too large for a float\n"


def test_dim_too_large_for_a_float_is_a_usage_error(capsys, tmp_path):
    doc = cio.branching_to_dict(ac.entry("toric-1Y").branching)
    doc["source"]["dims"][2] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["sweep", "--branching", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: source.dims: an entry is too large for a float\n"


# Inputs that escaped the parsing boundary as a traceback, a numpy warning, a
# domain failure or a wrong culprit.  Each is a one-place change to a valid
# repS3-1Y file, and validate, entropy and sweep must all exit 2 naming it.
def _rejected_by_every_command(tmp_path, text, message):
    path = tmp_path / "mutant.json"
    path.write_text(text)
    for argv in (
        ["validate", str(path)],
        ["entropy", "--branching", str(path), "--state", "1,0,0"],
        ["--grid-resolution", "2", "sweep", "--branching", str(path)],
    ):
        code, out, err = run_clean(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


def _rep_s3_1y_with(place, value):
    doc = cio.branching_to_dict(ac.entry("repS3-1Y").branching)
    *parents, last = place
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


def test_coefficient_beyond_every_integer_type_is_a_usage_error(tmp_path):
    text = _rep_s3_1y_with(["n", 1, 0], 10**30)
    _rejected_by_every_command(tmp_path, text, "n[1][0]: too large for int64")


def test_coefficient_of_two_to_the_63_names_its_entry(tmp_path):
    text = _rep_s3_1y_with(["n", 1, 0], 2**63)
    _rejected_by_every_command(tmp_path, text, "n[1][0]: too large for int64")


def test_dim_whose_square_overflows_is_a_usage_error(tmp_path):
    text = _rep_s3_1y_with(["source", "dims", 1], 1e308)
    _rejected_by_every_command(tmp_path, text, "source.dims: the squares")


def test_infinite_dim_is_a_usage_error(tmp_path):
    text = _rep_s3_1y_with(["source", "dims", 1], math.inf)
    assert "Infinity" in text
    _rejected_by_every_command(tmp_path, text, "source.dims: an entry is not a number: inf")


def test_deeply_nested_json_is_a_usage_error(tmp_path):
    _rejected_by_every_command(tmp_path, "[" * 100_000, "invalid JSON")


def test_schema_version_must_be_an_integer(tmp_path):
    text = _rep_s3_1y_with(["schema_version"], 1.0)
    _rejected_by_every_command(tmp_path, text, "schema_version: unsupported schema version 1.0")


def test_catalog_id_beyond_the_zn_cap_is_a_usage_error():
    start = time.perf_counter()
    code, out, err = run_clean("entropy", "--catalog", "z10000000-full", "--state", "1")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert "N exceeds the cap of 1024" in err


# Twelve bytes whose exponent Fraction would expand into a billion-digit
# integer; each input path refuses it before parsing, in well under a second.
VAST = "1e999999999"
VAST_PROBLEM = f"not a number: '{VAST}' (decimal exponent beyond ±10000)"


def _refused_fast(check):
    start = time.perf_counter()
    check()
    assert time.perf_counter() - start < 5.0


def test_vast_exponent_in_a_dim_is_a_usage_error(tmp_path):
    text = _rep_s3_1y_with(["source", "dims", 1], VAST)
    _refused_fast(
        lambda: _rejected_by_every_command(tmp_path, text, f"source.dims: an entry is {VAST_PROBLEM}")
    )


def test_vast_exponent_in_a_twist_is_a_usage_error(tmp_path):
    text = _rep_s3_1y_with(["source", "twist", "X"], VAST)
    problem = VAST_PROBLEM.replace("a number", "a fraction")
    _refused_fast(
        lambda: _rejected_by_every_command(tmp_path, text, f"source.twist.X: {problem}")
    )


def test_vast_exponent_in_a_state_is_a_usage_error(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"probs": [VAST, 0, 0]}))
    for argv, message in (
        (["--state", f"{VAST},0,0"], f"cannot parse state '{VAST},0,0': --state[0]: {VAST_PROBLEM}"),
        (["--state-file", str(path)], f"probs[0]: {VAST_PROBLEM}"),
    ):
        def check():
            code, out, err = run_clean("entropy", "--catalog", "repS3-1Y", *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")

        _refused_fast(check)


@pytest.mark.parametrize("entry_id", [e.id for e in ac.catalog()])
def test_a_shared_entry_prints_the_same_bytes_on_every_call(capsys, entry_id):
    # ``anycond.catalog`` is the function; the module is looked up by name.
    shared = importlib.import_module("anycond.catalog")._shared_entry
    k = len(ac.entry(entry_id).branching.source)
    state = ",".join([f"1/{k}"] * k)
    commands = [
        ["entropy", "--catalog", entry_id, "--state", state],
        ["condense", "--catalog", entry_id, "--state", state],
        ["validate", "--catalog", entry_id],
    ]

    def outputs():
        return [run(capsys, *argv) for argv in commands]

    shared.cache_clear()
    first = outputs()
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert outputs() == first
    shared.cache_clear()
    assert outputs() == first
