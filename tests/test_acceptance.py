"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in failure output) and asserts at its stated tolerance.
Tolerances are pinned here: 1e-12 unless a criterion says otherwise.
"""

import json
import math

import numpy as np
import pytest

import anycond as ac
from anycond import io as cio
from anycond.catalog import rep_s3_system, toric_system
from anycond.cli import main as cli_main

import group_algebra_oracle as operator_oracle
from bruteforce_enumerator import brute_force_branchings, canonical_key
from conftest import fixes_restricted_states, random_states, restrict_lift_matrix

TOL = 1e-12
LOG2 = math.log(2.0)
LOG3 = math.log(3.0)

ALL_ENTRIES = [e.id for e in ac.catalog()]


def _record(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def _order_parameter(entry_id, probs):
    b = ac.entry(entry_id).branching
    return ac.order_parameter(b, ac.SectorState(b.source, probs)).order_parameter


GOLDEN_TABLES = {
    "z2-full": [
        ([0.5, 0.5], 0.0),
        ([1.0, 0.0], LOG2),
        ([0.0, 1.0], LOG2),
    ],
    "toric-1Y": [
        ([0.5, 0.5, 0.0, 0.0], 0.0),
        ([0.5, 0.0, 0.0, 0.5], LOG2),
        ([1 / 3, 1 / 3, 1 / 3, 0.0], LOG2 / 3),
        ([1 / 3, 1 / 3, 0.0, 1 / 3], LOG2 / 3),
        ([1 / 3, 0.0, 1 / 3, 1 / 3], LOG2 / 3),
        ([0.0, 1 / 3, 1 / 3, 1 / 3], LOG2 / 3),
    ],
    "repS3-1X": [
        ([1.0, 0.0, 0.0], LOG2),
        ([0.5, 0.5, 0.0], 0.0),
        ([0.5, 0.0, 0.5], LOG2 / 2),
        ([0.0, 0.5, 0.5], LOG2 / 2),
        ([1 / 3, 1 / 3, 1 / 3], 0.0),
    ],
    "repS3-1Y": [
        ([1.0, 0.0, 0.0], LOG3),
        ([0.5, 0.5, 0.0], LOG3),
        ([0.5, 0.0, 0.5], 0.5 * math.log(1.5)),
        ([0.0, 0.5, 0.5], 0.5 * math.log(1.5)),
        ([1 / 3, 1 / 3, 1 / 3], LOG2 / 3),
    ],
    "repS3-lagrangian": [
        ([1.0, 0.0, 0.0], math.log(6.0)),
        ([0.5, 0.5, 0.0], LOG3),
        ([0.5, 0.0, 0.5], math.log(1.5)),
        ([0.0, 0.5, 0.5], math.log(1.5)),
        ([1 / 3, 1 / 3, 1 / 3], LOG2 / 3),
    ],
}


def test_criterion_1_golden_entropy_tables():
    worst = 0.0
    for entry_id, table in GOLDEN_TABLES.items():
        for probs, want in table:
            got = _order_parameter(entry_id, probs)
            worst = max(worst, abs(got - want))
    _record("1 golden entropy tables", worst <= TOL, f"worst gap {worst:.2e}")


def test_criterion_2_index_values():
    expected = {
        "toric-1Y": 2,
        "repS3-1X": 2,
        "repS3-1Y": 3,
        "repS3-lagrangian": 6,
        "z2-full": 2,
        "z3-full": 3,
    }
    ok = all(ac.jones_index(ac.entry(k).branching) == float(v) for k, v in expected.items())
    ok = ok and all(ac.jones_index(ac.zn_full(n)) == float(n) for n in range(2, 9))
    _record("2 index values", ok)


# Operator-level models of the Rep(S3) condensations in the oracle: 1 + Y is
# the conditional expectation onto C[Z2], 1 + X the one onto C[Z3].
OPERATOR_MODELS = {"repS3-1Y": "Z2", "repS3-1X": "Z3"}


def test_criterion_3_channel_axioms():
    # On condensed states restrict(lift(.)) is the matrix Gamma of
    # conftest.restrict_lift_matrix, so the idempotence and restrict-after-
    # lift residuals both equal max|(Gamma - I) restrict(rho)|.  They vanish
    # on every entry whose Gamma fixes the image of restrict.  repS3-1Y is
    # the one entry where Gamma (eigenvalues 1 and 1/3) moves restricted
    # states: the residual there is |p_1 - p_X| / 3, and no lift on sector
    # distributions can both fix restricted states and meet the golden
    # S((1,0,0)) = log 3 of criterion 1.  The oracle shows why the channels
    # are still right: the round trip is the sector marginal of omega o E for
    # the conditional expectation onto C[Z2], which is a projector on the
    # algebra but, Z2 not being normal in S3, takes central states to
    # non-central ones (eigenvalue spread 2 |p_1 - p_X| / 3), so composing at
    # the sector level is not the image of E o E.
    failures = {}

    def note(entry_id, check, value):
        if value > TOL:
            failures.setdefault(entry_id, {})
            failures[entry_id][check] = max(failures[entry_id].get(check, 0.0), value)

    moved = [e for e in ALL_ENTRIES if not fixes_restricted_states(ac.entry(e).branching)]
    if moved != ["repS3-1Y"]:
        failures["catalog"] = {f"Gamma moves restricted states of {moved}": math.inf}

    for entry_id in ALL_ENTRIES:
        b = ac.entry(entry_id).branching
        note(entry_id, "kraus completeness", ac.kraus_invariant_residual(ac.kraus_restriction(b)))
        note(entry_id, "lifting trace identity", ac.kraus_invariant_residual(ac.kraus_lifting(b)))
        gamma = restrict_lift_matrix(b)
        composed = np.column_stack(
            [
                ac.restrict(b, ac.lift(b, ac.SectorState(b.condensed, vertex))).probs
                for vertex in np.eye(len(b.condensed))
            ]
        )
        note(entry_id, "restrict o lift vs Gamma", float(np.max(np.abs(composed - gamma))))
        for rho in random_states(b.source, 1000, seed=0):
            sigma = ac.restrict(b, rho)
            lifted = ac.lift(b, sigma)
            note(entry_id, "restrict trace", abs(sigma.probs.sum() - rho.probs.sum()))
            note(entry_id, "lift trace", abs(lifted.probs.sum() - sigma.probs.sum()))
            note(
                entry_id,
                "round trip vs coarse",
                float(np.max(np.abs(lifted.probs - ac.lift_coarse(b, rho).probs))),
            )
            predicted = float(np.max(np.abs(gamma @ sigma.probs - sigma.probs)))
            residuals = {
                "idempotence": ac.verify_idempotence(b, rho),
                "restrict after lift": float(
                    np.max(np.abs(ac.restrict(b, lifted).probs - sigma.probs))
                ),
            }
            for check, value in residuals.items():
                note(entry_id, f"{check} vs Gamma", abs(value - predicted))
                if entry_id not in moved:
                    note(entry_id, check, value)

    b = ac.entry("repS3-1Y").branching
    rho = ac.SectorState(b.source, [1.0, 0.0, 0.0])
    sigma = ac.restrict(b, rho)
    lifted = ac.lift(b, sigma)
    again = ac.restrict(b, lifted)
    chain_gap = max(
        float(np.max(np.abs(got.probs - np.array(want))))
        for got, want in ((sigma, [1, 0]), (lifted, [1 / 3, 0, 2 / 3]), (again, [2 / 3, 1 / 3]))
    )
    note("repS3-1Y", "chain (1,0,0) -> (1,0) -> (1/3,0,2/3) -> (2/3,1/3)", chain_gap)

    for entry_id, subgroup in OPERATOR_MODELS.items():
        b = ac.entry(entry_id).branching
        expectation = operator_oracle.conditional_expectation(operator_oracle.SUBGROUPS[subgroup])
        note(
            entry_id,
            "operator E o E = E",
            float(np.max(np.abs(expectation @ expectation - expectation))),
        )
        smallest_gap = math.inf
        for rho in random_states(b.source, 1000, seed=0):
            pulled = operator_oracle.pullback(
                expectation, operator_oracle.central_density(rho.probs)
            )
            marginal = operator_oracle.sector_marginal(pulled)
            note(
                entry_id,
                "operator marginal vs coarse",
                float(np.max(np.abs(marginal - ac.lift_coarse(b, rho).probs))),
            )
            gap = operator_oracle.centrality_gap(pulled)
            smallest_gap = min(smallest_gap, gap)
            p = rho.probs
            want = 2 / 3 * abs(p[0] - p[1]) if subgroup == "Z2" else 0.0
            note(entry_id, f"operator centrality gap on C[{subgroup}]", abs(gap - want))
        if subgroup == "Z2" and not smallest_gap > TOL:
            note(entry_id, "operator state central on C[Z2]", math.inf)

    detail = (
        "all entries within 1e-12"
        if not failures
        else "; ".join(
            f"{entry_id}: "
            + ", ".join(f"{check}={value:.2e}" for check, value in checks.items())
            for entry_id, checks in failures.items()
        )
    )
    _record("3 channel axioms", not failures, detail)


def test_criterion_4_bimodule_property():
    worst = 0.0
    for entry_id in ALL_ENTRIES:
        b = ac.entry(entry_id).branching
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = ac.DiagonalOperator(b.condensed, rng.normal(size=len(b.condensed)))
            q = ac.DiagonalOperator(b.condensed, rng.normal(size=len(b.condensed)))
            m = ac.DiagonalOperator(b.source, rng.normal(size=len(b.source)))
            worst = max(worst, ac.verify_bimodule(b, p, q, m))
    _record("4 bimodule property", worst <= TOL, f"worst residual {worst:.2e}")


def _sweep_values(b, resolution):
    from sweep_grid import sweep_grid

    values = []
    for combo in sweep_grid(len(b.source), resolution):
        probs = [k / resolution for k in combo]
        values.append(
            (ac.order_parameter(b, ac.SectorState(b.source, probs)).order_parameter, probs)
        )
    return values


def test_criterion_5_bound_and_lagrangian_saturation():
    ok = True
    detail = []
    for entry_id in ALL_ENTRIES:
        b = ac.entry(entry_id).branching
        bound = math.log(ac.jones_index(b))
        grid = _sweep_values(b, 4)
        randoms = [
            (ac.order_parameter(b, rho).order_parameter, None)
            for rho in random_states(b.source, 1000, seed=0)
        ]
        for s, _ in grid + randoms:
            if not (-1e-12 <= s <= bound + 1e-9):
                ok = False
                detail.append(f"{entry_id}: S={s} vs bound={bound}")
    for entry_id in ("z2-full", "z3-full", "repS3-lagrangian"):
        b = ac.entry(entry_id).branching
        bound = math.log(ac.jones_index(b))
        grid = _sweep_values(b, 4)
        max_s, argmax = max(grid, key=lambda t: t[0])
        at_vertex = sorted(argmax) == [0.0] * (len(argmax) - 1) + [1.0]
        if abs(max_s - bound) > TOL or not at_vertex:
            ok = False
            detail.append(f"{entry_id}: max {max_s} at {argmax}")
    _record("5 entropy bound", ok, "; ".join(detail))


def test_criterion_6_perturbation_exponent():
    ok = True
    detail = []
    for n in (2, 3):
        b = ac.zn_full(n)
        base = ac.symmetric_state(b.source)
        direction = np.zeros(n)
        direction[0], direction[-1] = 1.0, -1.0
        scan = ac.perturbation_scan(b, base, [direction], np.geomspace(1e-4, 1e-2, 9))
        exponent = scan.exponents[0]
        detail.append(f"Z_{n}: {exponent:.4f}")
        if abs(exponent - 2.0) > 0.05:
            ok = False
    _record("6 perturbation exponent", ok, ", ".join(detail))


def test_criterion_7_enumeration_matches_brute_force():
    cases = [
        (toric_system(), (1, 1, 0, 0), [1, 1, 1, 1]),
        (rep_s3_system(), (1, 1, 0), [1, 1, 2]),
    ]
    ok = True
    detail = []
    for source, column, dims in cases:
        algebra = ac.CondensableAlgebra(source, column)
        solver = ac.enumerate_branchings(source, algebra, max_sectors=4, max_dim=2)
        solver_keys = {
            canonical_key(
                [list(map(int, row)) for row in b.n],
                [int(round(d)) for d in b.condensed.dims],
                b.vacuum_column_index,
            )
            for b in solver
        }
        oracle_keys = brute_force_branchings(dims, source.vacuum_index, column, 4, 2)
        detail.append(f"{len(solver_keys)} solutions")
        if solver_keys != oracle_keys:
            ok = False
    _record("7 enumeration vs oracle", ok, ", ".join(detail))


def test_criterion_8_duality():
    bA = ac.entry("toric-1Y").branching
    bB = ac.entry("toric-1Z").branching
    found = ac.find_dualities(bA, bB)
    swap = ac.PermutationDuality(
        {"1": "1", "Y": "Z", "X": "X", "Z": "Y"}, {"phi": "phi", "X": "X"}
    )
    ok = found == [swap]
    residual = ac.verify_duality(bA, bB, swap, trials=100, seed=0) if ok else math.inf
    ok = ok and residual <= TOL
    empty = ac.find_dualities(
        ac.entry("repS3-1X").branching, ac.entry("repS3-1Y").branching
    )
    ok = ok and empty == []
    _record("8 duality search", ok, f"residual {residual:.2e}")


def test_criterion_9_io_round_trip(tmp_path):
    ok = True
    detail = []
    for entry_id in ALL_ENTRIES:
        b = ac.entry(entry_id).branching
        path = tmp_path / f"{entry_id}.json"
        cio.save(b, path)
        if cio.load(path) != b:
            ok = False
            detail.append(f"{entry_id} round trip")

    doc = cio.branching_to_dict(ac.entry("toric-1Y").branching)
    doc["n"][2][0] = -3
    try:
        cio.branching_from_dict(doc)
        ok = False
        detail.append("negative entry accepted")
    except cio.SchemaError as err:
        if err.field != "n[2][0]":
            ok = False
            detail.append(f"wrong field name {err.field}")

    doc = cio.system_to_dict(toric_system())
    del doc["vacuum"]
    try:
        cio.system_from_dict(doc)
        ok = False
        detail.append("missing vacuum accepted")
    except cio.SchemaError as err:
        if err.field != "vacuum":
            ok = False
            detail.append(f"wrong field name {err.field}")
    _record("9 io round trip", ok, "; ".join(detail))


def test_cli_reference_lines(capsys):
    # Spot checks of documented command lines against reference values.
    assert cli_main(["entropy", "--catalog", "repS3-1Y", "--state", "1/2,0,1/2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order_parameter"] == pytest.approx(0.5 * math.log(1.5), abs=TOL)

    assert cli_main(["duality", "--catalog-a", "toric-1Y", "--catalog-b", "toric-1Z"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1 and payload["dualities"][0]["source_perm"]["Y"] == "Z"
