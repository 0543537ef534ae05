"""``sweep`` against the reference grid and writer, byte for byte."""

import tracemalloc

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


def test_every_grid_batch_but_the_last_is_full(capsys, monkeypatch):
    for parts in range(1, 9):
        for size in (1, 7, 1024):
            batches = list(cli._grid(parts, 7, size))
            assert all(len(counts) == size for counts in batches[:-1])
            assert 0 < len(batches[-1]) <= size
            assert all((counts.sum(axis=1) == 7).all() for counts in batches)
    # Z_2 is one edge of 14 points, split across batches of 5.
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 5)
    b = ac.entry("z2-full").branching
    assert sweep(capsys, 13, False, "--catalog", "z2-full") == sweep_text(b, 13)


@pytest.mark.parametrize("parts,resolution", [(2, 9_999_999), (1, 10**9)])
def test_grid_memory_does_not_grow_with_the_resolution(parts, resolution):
    # A table of resolution + 1 counts would take 80 MB or 8 GB.
    tracemalloc.start()
    try:
        first = next(cli._grid(parts, resolution, 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[0].tolist() == [resolution] + [0] * (parts - 1)
    assert peak < 2**20


@pytest.mark.parametrize("size", CHUNKS)
def test_simplex_grid_equals_the_recursive_generator(monkeypatch, size):
    monkeypatch.setattr(cli, "SWEEP_CHUNK", size)
    for parts in range(1, 9):
        for resolution in range(9):
            assert list(sweep_grid(parts, resolution)) == list(
                simplex_grid(parts, resolution)
            )
