"""``sweep`` against the reference grid and writer, byte for byte."""

import pytest
from conftest import CATALOG_IDS
from reference_sweep import simplex_grid, sweep_text
from sweep_grid import sweep_grid

import anycond as ac
from anycond import cli
from anycond import io as cio

CHUNKS = (1, 7, cli.SWEEP_CHUNK)
# The (entry, resolution) pairs of the sweep benchmark.
BENCH_GRIDS = (("toric-1Y", 30), ("repS3-1Y", 100), ("z6-full", 11), ("repS3-lagrangian", 100))


def sweep(capsys, resolution, bits, *source):
    argv = ["--grid-resolution", str(resolution), *(["--bits"] if bits else []), "sweep", *source]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_sweep_matches_the_reference_on_every_entry(capsys, monkeypatch, entry_id):
    b = ac.entry(entry_id).branching
    for resolution in (1, 2, 3, 13):
        for bits in (False, True):
            want = sweep_text(b, resolution, bits)
            for size in CHUNKS:
                monkeypatch.setattr(cli, "SWEEP_CHUNK", size)
                assert sweep(capsys, resolution, bits, "--catalog", entry_id) == want


@pytest.mark.parametrize("entry_id,resolution", BENCH_GRIDS)
def test_sweep_matches_the_reference_on_the_bench_grids(capsys, monkeypatch, entry_id, resolution):
    b = ac.entry(entry_id).branching
    for bits in (False, True):
        want = sweep_text(b, resolution, bits)
        for size in CHUNKS[1:]:
            monkeypatch.setattr(cli, "SWEEP_CHUNK", size)
            assert sweep(capsys, resolution, bits, "--catalog", entry_id) == want


def test_sweep_of_one_sector_matches_the_reference(capsys, tmp_path):
    system = ac.AnyonSystem(("1",), (1.0,), "1")
    b = ac.BranchingData(system, system, [[1]])
    path = tmp_path / "one.json"
    cio.save(b, path)
    for bits in (False, True):
        assert sweep(capsys, 5, bits, "--branching", str(path)) == sweep_text(b, 5, bits)


def test_a_block_that_straddles_a_batch_is_split(capsys, monkeypatch):
    # Three parts at resolution 13: blocks of 14, 13, ... points, so with
    # batches of 7 points the first block fills two and later ones straddle.
    batches = list(cli._grid_batches(3, 13, 7))
    assert all(sum(hi - lo for *_, lo, hi in batch) == 7 for batch in batches[:-1])
    assert sum(len(batch) > 1 and batch[-1][3] <= batch[-1][1] for batch in batches) > 1
    # Z_2 is one block of 14 points, split across batches of 5.
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 5)
    b = ac.entry("z2-full").branching
    assert sweep(capsys, 13, False, "--catalog", "z2-full") == sweep_text(b, 13)


@pytest.mark.parametrize("size", CHUNKS)
def test_simplex_grid_equals_the_recursive_generator(monkeypatch, size):
    monkeypatch.setattr(cli, "SWEEP_CHUNK", size)
    for parts in range(1, 7):
        for resolution in range(9):
            assert list(sweep_grid(parts, resolution)) == list(
                simplex_grid(parts, resolution)
            )
