"""Permutation dualities between condensation patterns."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond.catalog import zn_system
from anycond import duality, search
from anycond.duality import VERIFY_BLOCK_ROWS, verify_dualities
from backtracking_dualities import backtracking_dualities
from bruteforce_dualities import admissible_maps, brute_force_dualities, coefficient_residual


def _swap_yz():
    return ac.PermutationDuality(
        {"1": "1", "Y": "Z", "X": "X", "Z": "Y"}, {"phi": "phi", "X": "X"}
    )


def _identity_duality(b):
    return ac.PermutationDuality(
        {l: l for l in b.source.labels}, {l: l for l in b.condensed.labels}
    )


def test_apply_permutation_swaps_entries(toric_1y):
    rho = ac.SectorState(toric_1y.source, [0.1, 0.2, 0.3, 0.4])
    out = ac.apply_permutation(_swap_yz(), rho)
    assert np.allclose(out.probs, [0.1, 0.4, 0.3, 0.2], atol=1e-15)


def test_apply_identity_is_noop(toric_1y):
    rho = ac.SectorState(toric_1y.source, [0.1, 0.2, 0.3, 0.4])
    out = ac.apply_permutation(_identity_duality(toric_1y), rho)
    assert np.allclose(out.probs, rho.probs)


def test_applying_an_involution_twice_is_noop(toric_1y):
    rho = ac.SectorState(toric_1y.source, [0.1, 0.2, 0.3, 0.4])
    once = ac.apply_permutation(_swap_yz(), rho)
    twice = ac.apply_permutation(_swap_yz(), once)
    assert np.allclose(twice.probs, rho.probs)


def test_apply_permutation_must_fix_vacuum(toric_1y):
    rho = ac.SectorState(toric_1y.source, [0.25] * 4)
    moved_vacuum = ac.PermutationDuality(
        {"1": "Y", "Y": "1", "X": "X", "Z": "Z"}, {}
    )
    with pytest.raises(ValueError):
        ac.apply_permutation(moved_vacuum, rho)


def test_verify_duality_toric_swap(toric_1y, toric_1z):
    residual = ac.verify_duality(toric_1y, toric_1z, _swap_yz(), trials=100, seed=0)
    assert residual <= 1e-12


def test_verify_duality_identity_on_itself(toric_1y):
    residual = ac.verify_duality(toric_1y, toric_1y, _identity_duality(toric_1y))
    assert residual == 0.0


def test_verify_duality_detects_wrong_permutation(toric_1y, toric_1z):
    wrong = _identity_duality(toric_1y)
    residual = ac.verify_duality(toric_1y, toric_1z, wrong, trials=10)
    assert residual >= 1.0  # the integer coefficient identity already fails


def test_verify_duality_structural_mismatch(toric_1y, rep_s3_1x):
    with pytest.raises(ValueError):
        ac.verify_duality(toric_1y, rep_s3_1x, _swap_yz())


def test_find_dualities_toric_pair_is_exactly_the_swap(toric_1y, toric_1z):
    found = ac.find_dualities(toric_1y, toric_1z)
    assert found == [_swap_yz()]


def test_find_dualities_self_contains_identity(catalog_entry):
    b = catalog_entry.branching
    if len(b.source) > 8 or len(b.condensed) > 8:
        pytest.skip("beyond the factorial-search cap")
    found = ac.find_dualities(b, b)
    assert _identity_duality(b) in found


def test_find_dualities_rep_s3_mixed_pair_is_empty(rep_s3_1x, rep_s3_1y):
    # Indexes 2 vs 3 already rule out any duality.
    assert ac.find_dualities(rep_s3_1x, rep_s3_1y) == []


def test_found_dualities_verify(toric_1y, toric_1z):
    for duality in ac.find_dualities(toric_1y, toric_1z):
        assert ac.verify_duality(toric_1y, toric_1z, duality, trials=100) <= 1e-12


def test_inverse_duality_found_in_reverse_direction(toric_1y, toric_1z):
    forward = ac.find_dualities(toric_1y, toric_1z)
    backward = ac.find_dualities(toric_1z, toric_1y)
    for duality in forward:
        assert duality.inverse() in backward


def test_find_dualities_requires_shared_source(toric_1y, rep_s3_1x):
    with pytest.raises(ValueError):
        ac.find_dualities(toric_1y, rep_s3_1x)


def test_equal_index_with_different_condensed_sector_counts_gives_no_duality():
    source = ac.AnyonSystem(("1", "a", "b", "c"), (1.0, 1.0, 2.0, 2.0), "1")
    algebra = ac.CondensableAlgebra(source, (1, 1, 0, 0))
    fewer, more = ac.enumerate_branchings(source, algebra, max_sectors=8, max_dim=2)
    assert (len(fewer.condensed), len(more.condensed)) == (2, 5)
    assert ac.jones_index(fewer) == ac.jones_index(more) == 2
    assert ac.validate_branching(fewer).ok and ac.validate_branching(more).ok
    assert ac.find_dualities(fewer, more) == []


def test_find_dualities_cap():
    big = ac.trivial_condensation(zn_system(9))
    with pytest.raises(ValueError, match="cap"):
        ac.find_dualities(big, big)
    small = ac.trivial_condensation(zn_system(5))
    with pytest.raises(ValueError, match="cap"):
        ac.find_dualities(small, small, label_cap=3)
    assert len(ac.find_dualities(small, small)) >= 1


def test_twist_preservation_prunes_candidates(toric_1y, toric_1z):
    # Without the fermion twist the X sector could also be relabelled, and
    # a second (composite) duality shows up; the declared twists rule it out.
    plain_source = ac.AnyonSystem(("1", "Y", "X", "Z"), (1.0,) * 4, "1")
    strip = lambda b: ac.BranchingData(plain_source, b.condensed, b.n)
    found_plain = ac.find_dualities(strip(toric_1y), strip(toric_1z))
    assert len(found_plain) == 2
    assert len(ac.find_dualities(toric_1y, toric_1z)) == 1


def test_duality_is_rejected_for_non_bijections():
    with pytest.raises(ValueError):
        ac.PermutationDuality({"a": "x", "b": "x"}, {})


def test_verify_duality_rejects_negative_trials(toric_1y, toric_1z):
    with pytest.raises(ValueError, match="trials"):
        ac.verify_duality(toric_1y, toric_1z, _swap_yz(), trials=-5)


def test_verify_duality_without_trials_is_the_coefficient_residual(toric_1y, toric_1z):
    assert ac.verify_duality(toric_1y, toric_1z, _swap_yz(), trials=0) == 0.0
    wrong = _identity_duality(toric_1y)
    want = coefficient_residual(toric_1y, toric_1z, wrong.source_perm, wrong.condensed_perm)
    assert ac.verify_duality(toric_1y, toric_1z, wrong, trials=0) == float(want) == 1.0


# --- differential oracle: the exhaustive pair search --------------------------


def plant(bA, sigma, tau):
    """The branching B with n_B[a, tau(t)] = n_A[sigma(a), t], so that
    (sigma, tau) is a duality from A to B when both keep the sector data."""
    src, cond = bA.source, bA.condensed
    n = np.zeros_like(bA.n)
    for i, a in enumerate(src.labels):
        for j, t in enumerate(cond.labels):
            n[i, cond.index(tau[t])] = bA.n[src.index(sigma[a]), j]
    return ac.BranchingData(src, cond, n)


def _as_pairs(found):
    return [(list(d.source_perm.items()), list(d.condensed_perm.items())) for d in found]


def _oracle(bA, bB):
    return [(list(s.items()), list(t.items())) for s, t in brute_force_dualities(bA, bB)]


def _verify_per_trial(bA, bB, duality, trials, seed):
    """verify_duality as one state at a time: a SectorState, a permuted
    state and two restrict calls per trial, from the same random stream."""
    sigma, tau = duality.source_perm, duality.condensed_perm
    residual = float(coefficient_residual(bA, bB, sigma, tau))
    rng = np.random.default_rng(seed)
    tau_index = [bB.condensed.index(tau[t]) for t in bA.condensed.labels]
    for _ in range(trials):
        raw = rng.random(len(bA.source)) + 1e-12
        rho = ac.SectorState(bA.source, raw / raw.sum())
        lhs = ac.restrict(bB, rho).probs
        via_a = ac.restrict(bA, ac.apply_permutation(duality, rho)).probs
        relabelled = np.zeros_like(via_a)
        relabelled[tau_index] = via_a
        residual = max(residual, float(np.max(np.abs(lhs - relabelled))))
    return residual


CATALOG_PAIRS = [
    (a.id, b.id)
    for a in ac.catalog()
    for b in ac.catalog()
    if a.branching.source == b.branching.source
]


def _plain(labels, dims):
    return ac.AnyonSystem(tuple(labels), dims, labels[0])


# Plain sources (no twist or dual data) in which sectors of one dimension
# restrict to different row multisets, so the row test prunes sigma.
MIXED_ROWS = {
    "mixed-rows-5": lambda: ac.BranchingData(
        _plain("abcde", (1, 1, 2, 2, 2)),
        _plain("pqrs", (1, 1, 1, 2)),
        [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 1, 1, 0]],
    ),
    "mixed-rows-6": lambda: ac.BranchingData(
        _plain("abcdef", (1, 1, 1, 1, 2, 2)),
        _plain("pqr", (1, 1, 1)),
        [[1, 0, 0], [0, 0, 1], [0, 0, 1], [1, 0, 0], [0, 2, 0], [1, 0, 1]],
    ),
}


def _branching(name):
    make = MIXED_ROWS.get(name)
    return make() if make else ac.entry(name).branching


PLANTED_IDS = (
    "toric-1Y", "z6-full", "z7-trivial", "repS3-1X", "repS3-1Y", "repS3-lagrangian",
    "mixed-rows-5", "mixed-rows-6",
)


def _planted_cases():
    rng = random.Random(5)
    cases = []
    for name in PLANTED_IDS:
        bA = _branching(name)
        sigmas = admissible_maps(bA.source, bA.source)
        taus = admissible_maps(bA.condensed, bA.condensed)
        for k in range(3):
            sigma, tau = rng.choice(sigmas), rng.choice(taus)
            cases.append(pytest.param(bA, plant(bA, sigma, tau), sigma, tau, id=f"{name}-{k}"))
    return cases


PLANTED = _planted_cases()


@pytest.mark.parametrize("id_a,id_b", CATALOG_PAIRS)
def test_search_matches_the_oracle_on_catalog_pairs(id_a, id_b):
    bA, bB = ac.entry(id_a).branching, ac.entry(id_b).branching
    found = _as_pairs(ac.find_dualities(bA, bB))
    assert found == _oracle(bA, bB)
    assert found == _as_pairs(backtracking_dualities(bA, bB))


@pytest.mark.parametrize("bA,bB,sigma,tau", PLANTED)
def test_search_matches_the_oracle_on_planted_relabellings(bA, bB, sigma, tau):
    found = ac.find_dualities(bA, bB)
    assert _as_pairs(found) == _oracle(bA, bB)
    assert _as_pairs(found) == _as_pairs(backtracking_dualities(bA, bB))
    assert ac.PermutationDuality(sigma, tau) in found


def _strip(system, keep_dual, keep_twist):
    return ac.AnyonSystem(
        system.labels,
        system.dims,
        system.vacuum,
        system.dual if keep_dual else None,
        system.twist if keep_twist else None,
    )


# Sources of at most 6 labels keep the oracle's pair search short; without
# twist or dual data only those of at most 5.
HYPOTHESIS_IDS = (
    "toric-1Y", "toric-1Z", "toric-trivial", "repS3-1X", "repS3-1Y",
    "repS3-lagrangian", "repS3-trivial", "z4-full", "z5-trivial", "z6-full", "z6-trivial",
    "mixed-rows-5", "mixed-rows-6",
)


@st.composite
def relabellings(draw):
    """A branching A, possibly stripped of its twists or duals, and
    B = A relabelled by any vacuum-fixing (sigma, tau), admissible or not."""
    b = _branching(draw(st.sampled_from(HYPOTHESIS_IDS)))
    if len(b.source) <= 5:
        keep_dual, keep_twist = draw(st.booleans()), draw(st.booleans())
        b = ac.BranchingData(
            _strip(b.source, keep_dual, keep_twist), _strip(b.condensed, keep_dual, keep_twist), b.n
        )
    return _relabelled(draw, b)


def _relabelled(draw, b):
    """b, and b relabelled by a drawn vacuum-fixing (sigma, tau)."""

    def relabelling(system):
        rest = [l for l in system.labels if l != system.vacuum]
        return {system.vacuum: system.vacuum, **dict(zip(rest, draw(st.permutations(rest))))}

    return b, plant(b, relabelling(b.source), relabelling(b.condensed))


@given(pair=relabellings())
@settings(max_examples=150, deadline=None)
def test_search_matches_the_oracle_on_random_relabellings(pair):
    bA, bB = pair
    assert _as_pairs(ac.find_dualities(bA, bB)) == _oracle(bA, bB)
    assert _as_pairs(ac.find_dualities(bB, bA)) == _oracle(bB, bA)


def _verify_cases():
    for id_a, id_b in CATALOG_PAIRS:
        yield ac.entry(id_a).branching, ac.entry(id_b).branching
    for case in PLANTED:
        yield case.values[:2]


def test_batched_verify_matches_the_per_trial_loop():
    checked = 0
    for bA, bB in _verify_cases():
        # A few found dualities, and the identity, which fails on most pairs.
        candidates = ac.find_dualities(bA, bB)[:6] + [_identity_duality(bA)]
        for d in candidates:
            if set(d.condensed_perm.values()) != set(bB.condensed.labels):
                continue
            for seed in (0, 11):
                got = ac.verify_duality(bA, bB, d, trials=100, seed=seed)
                want = _verify_per_trial(bA, bB, d, 100, seed)
                assert got == want
                checked += 1
    assert checked > 100


def test_seven_plain_labels_give_720_dualities():
    # The exhaustive pair search tries 720 x 720 pairs here; from sigma
    # alone tau is forced to be sigma's inverse.
    plain = ac.AnyonSystem(tuple(str(i) for i in range(7)), (1.0,) * 7, "0")
    b = ac.trivial_condensation(plain)
    found = ac.find_dualities(b, b)
    assert len(found) == 720
    images = [tuple(int(d.source_perm[l]) for l in plain.labels) for d in found]
    assert images == sorted(set(images))
    assert all(d.condensed_perm == d.inverse().source_perm for d in found)
    assert max(ac.verify_duality(b, b, d, trials=20) for d in found) == 0.0


# --- the frontier search against the backtracking search it replaced --------


def _plain_condensing(n, condensed):
    """The last branching of the plain n-label source whose algebra holds
    its first ``condensed`` sectors, each condensed sector of dimension 1."""
    source = _plain([str(i) for i in range(n)], (1.0,) * n)
    algebra = ac.CondensableAlgebra(source, (1,) * condensed + (0,) * (n - condensed))
    return ac.enumerate_branchings(source, algebra, max_sectors=n, max_dim=1)[-1]


def test_nine_plain_labels_match_the_backtracking_reference():
    # The reference completes all 8! sigma here; 144 keep the column blocks.
    b = _plain_condensing(9, 3)
    found = _as_pairs(ac.find_dualities(b, b, label_cap=9))
    assert len(found) == 144
    assert found == _as_pairs(backtracking_dualities(b, b, label_cap=9))


# Sources of up to 8 labels, all declaring duals and twists, so that
# antiparticle pairs prune both frontiers; the reference's cost follows the
# sigma it completes, so these reach past the exhaustive oracle's sizes.
DECLARED_IDS = (
    "toric-1Y", "toric-1Z", "toric-trivial", "repS3-1X", "repS3-1Y", "repS3-trivial",
    "z6-full", "z6-trivial", "z7-trivial", "z8-full", "z8-trivial",
)


@st.composite
def declared_relabellings(draw):
    return _relabelled(draw, _branching(draw(st.sampled_from(DECLARED_IDS))))


@given(pair=declared_relabellings())
@settings(max_examples=100, deadline=None)
def test_search_matches_the_backtracking_reference_on_declared_relabellings(pair):
    bA, bB = pair
    for a, b in ((bA, bB), (bB, bA)):
        assert _as_pairs(ac.find_dualities(a, b)) == _as_pairs(backtracking_dualities(a, b))


@pytest.mark.parametrize("n,count", [(8, 48), (10, 384), (12, 3840)])
def test_plain_sources_condensing_two_sectors_at_scale(n, count):
    b = _plain_condensing(n, 2)
    found = ac.find_dualities(b, b, label_cap=12)
    assert len(found) == count
    assert not verify_dualities(b, b, found).any()
    images = [
        (tuple(b.source.index(d.source_perm[a]) for a in b.source.labels),
         tuple(b.condensed.index(d.condensed_perm[t]) for t in b.condensed.labels))
        for d in found
    ]
    assert images == sorted(set(images))


def _sigmas_kept(monkeypatch):
    """Record how many sigma reach the tau stage in each search."""
    kept, taus = [], duality._taus

    def record(nA, nB, sigmas, constraints):
        kept.append(len(sigmas))
        return taus(nA, nB, sigmas, constraints)

    monkeypatch.setattr(duality, "_taus", record)
    return kept


def _pruned_cases():
    return [case.values[:2] for case in PLANTED] + [
        (b, b) for b in (_plain_condensing(8, 2), _plain_condensing(9, 3))
    ]


@pytest.mark.parametrize("multiplier", [0, 1])
def test_colliding_column_keys_find_the_same_dualities(monkeypatch, multiplier):
    # Multiplier 0 keys a column by its last placed entry, 1 by its sum.
    cases = _pruned_cases()
    kept = _sigmas_kept(monkeypatch)
    want = [_as_pairs(ac.find_dualities(bA, bB, label_cap=9)) for bA, bB in cases]
    exact, kept[:] = list(kept), []
    monkeypatch.setattr(duality, "KEY_MULTIPLIER", multiplier)
    assert [_as_pairs(ac.find_dualities(bA, bB, label_cap=9)) for bA, bB in cases] == want
    # Weaker keys keep at least as many sigma, and more somewhere.
    assert all(weak >= strong for weak, strong in zip(kept, exact)) and kept != exact


def test_the_tau_stage_spans_many_blocks(monkeypatch):
    # As in the many-block check below: tau relabels, and every sigma of
    # seven plain labels is one block when each block may hold one cell.
    plain = ac.AnyonSystem(tuple(str(i) for i in range(7)), (1.0,) * 7, "0")
    b = ac.trivial_condensation(plain)
    rest = plain.labels[1:]
    bB = plant(b, {l: l for l in plain.labels}, {"0": "0", **dict(zip(rest, rest[::-1]))})
    cases = _pruned_cases() + [(b, bB), (bB, b)]
    want = [_as_pairs(ac.find_dualities(bA, bB, label_cap=9)) for bA, bB in cases]
    assert len(want[-1]) == 720
    monkeypatch.setattr(search, "FILL_CHUNK", 1)
    assert [_as_pairs(ac.find_dualities(bA, bB, label_cap=9)) for bA, bB in cases] == want


# --- every found duality checked on one stack of states -----------------------


def _per_duality(bA, bB, found, trials, seed):
    return [ac.verify_duality(bA, bB, d, trials=trials, seed=seed) for d in found]


@pytest.mark.parametrize("trials", [0, 1, 100, 1000])
def test_stacked_verify_is_each_single_check_bit_for_bit(trials):
    checked = 0
    for k, (bA, bB) in enumerate(_verify_cases()):
        found = ac.find_dualities(bA, bB) + [_identity_duality(bA)]
        found = [d for d in found if set(d.condensed_perm.values()) == set(bB.condensed.labels)]
        got = verify_dualities(bA, bB, found, trials=trials, seed=k)
        assert got.dtype == np.float64 and got.shape == (len(found),)
        assert got.tolist() == _per_duality(bA, bB, found, trials, k)
        # The per-trial loop costs ~0.1 ms a state, so it checks two dualities
        # of each pair, and at 1,000 trials one of every fourth pair.
        reference = found[:2] if trials < 1000 else found[:1] if k % 4 == 0 else []
        assert got.tolist()[: len(reference)] == [
            _verify_per_trial(bA, bB, d, trials, k) for d in reference
        ]
        checked += len(found)
    assert checked > 250


def test_stacked_verify_spans_many_blocks_on_seven_plain_labels():
    plain = ac.AnyonSystem(tuple(str(i) for i in range(7)), (1.0,) * 7, "0")
    b = ac.trivial_condensation(plain)
    # B's condensed dims are off by up to 6e-13, within every tolerance, so
    # each duality reads a small channel gap of its own; and tau relabels.
    rest = plain.labels[1:]
    off = ac.AnyonSystem(plain.labels, tuple(1 + k * 1e-13 for k in range(7)), "0")
    bB = plant(ac.BranchingData(plain, off, b.n), {l: l for l in plain.labels},
               {"0": "0", **dict(zip(rest, rest[::-1]))})
    found = ac.find_dualities(b, bB)
    assert len(found) == 720 and VERIFY_BLOCK_ROWS // 100 * 72 == 720  # 72 blocks
    got = verify_dualities(b, bB, found, trials=100, seed=3)
    assert got.tolist() == _per_duality(b, bB, found, 100, 3)
    assert 0 < got.min() and got.max() < 1e-12
    sample = found[::71]  # at least one duality from every tenth of the blocks
    assert [got[found.index(d)] for d in sample] == [
        _verify_per_trial(b, bB, d, 100, 3) for d in sample
    ]


def test_stacked_verify_of_no_dualities_is_empty(toric_1y, toric_1z):
    for trials in (0, 100):
        got = verify_dualities(toric_1y, toric_1z, [], trials=trials)
        assert got.shape == (0,) and got.dtype == np.float64


def _bad_dualities(b):
    """Dualities that fail a label check, each with the start of its error;
    the first fails both maps, and the source map is checked first."""
    src, cond = b.source.labels, b.condensed.labels
    ident, kept = {l: l for l in src}, {t: t for t in cond}
    return [
        (ac.PermutationDuality({l: l for l in src[:-1]}, {}), "source_perm must map the labels"),
        (ac.PermutationDuality({**ident, src[0]: src[1], src[1]: src[0]}, kept), "source_perm must fix"),
        (ac.PermutationDuality({**ident, src[1]: src[2], src[2]: src[1]}, kept),
         "source_perm does not preserve the dimension of 'X'"),
        (ac.PermutationDuality(ident, {t: t for t in cond[:-1]}), "condensed_perm must map"),
    ]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_stacked_verify_raises_the_single_error_of_the_first_bad_duality(where):
    bA = ac.entry("repS3-1Y").branching  # dims 1, 1, 2
    found = ac.find_dualities(bA, bA) * 3
    bad_ones = _bad_dualities(bA)
    for k, (bad, message) in enumerate(bad_ones):
        with pytest.raises(ValueError, match=f"^{message}") as single:
            ac.verify_duality(bA, bA, bad)
        position = {"first": 0, "middle": len(found) // 2, "last": len(found)}[where]
        # Another bad duality later in the list does not change the error.
        later = bad_ones[k - 1][0]
        dualities = found[:position] + [bad] + found[position:] + [later]
        for trials in (0, 100):
            with pytest.raises(ValueError) as batch:
                verify_dualities(bA, bA, dualities, trials=trials)
            assert str(batch.value) == str(single.value)


def test_stacked_verify_rejects_negative_trials_and_other_sources(toric_1y, toric_1z, rep_s3_1x):
    with pytest.raises(ValueError, match="trials must be non-negative"):
        verify_dualities(toric_1y, toric_1z, [_swap_yz()], trials=-1)
    with pytest.raises(ValueError, match="one source system"):
        verify_dualities(toric_1y, rep_s3_1x, [])


# --- one relabelling rule for the search and the check -----------------------


def test_a_changed_dimension_is_named_in_the_map_order():
    # The maps swap a and b (dims 1 and 2) and list the labels as 1, c, b, a:
    # the first changed dimension in the map's own order is b's, not a's.
    b = ac.trivial_condensation(_plain("1abc", (1.0, 1.0, 2.0, 3.0)))
    ident = {"1": "1", "c": "c", "b": "b", "a": "a"}
    swap = {"1": "1", "c": "c", "b": "a", "a": "b"}
    rho = ac.SectorState(b.source, [0.1, 0.2, 0.3, 0.4])
    message = "^source_perm does not preserve the dimension of 'b'$"
    with pytest.raises(ValueError, match=message):
        ac.apply_permutation(ac.PermutationDuality(swap, ident), rho)
    for duality, what in ((ac.PermutationDuality(swap, ident), "source_perm"),
                          (ac.PermutationDuality(ident, swap), "condensed_perm")):
        message = f"^{what} does not preserve the dimension of 'b'$"
        with pytest.raises(ValueError, match=message):
            ac.verify_duality(b, b, duality)
        for trials in (0, 100):
            with pytest.raises(ValueError, match=message):
                verify_dualities(b, b, [_identity_duality(b), duality], trials=trials)


def test_every_found_duality_passes_the_check():
    checked = 0
    for bA, bB in _verify_cases():
        found = ac.find_dualities(bA, bB)
        assert verify_dualities(bA, bB, found, trials=1).shape == (len(found),)
        checked += len(found)
    assert checked > 200


def test_dimensions_off_by_more_than_the_tolerance_are_not_relabelled():
    # Within 1e-6 the swap of a and b keeps every dimension; within the
    # 1e-9 that both the search and the check use, it does not.
    source = _plain("1ab", (1.0, 1.0, 1.0 + 1e-7))
    b = ac.trivial_condensation(source)
    assert ac.find_dualities(b, b) == [_identity_duality(b)]
    swap = ac.PermutationDuality({"1": "1", "a": "b", "b": "a"}, {"1": "1", "a": "b", "b": "a"})
    with pytest.raises(ValueError, match="^source_perm does not preserve the dimension of 'a'$"):
        ac.verify_duality(b, b, swap)


def test_a_nan_dimension_is_never_kept():
    # nan is within no tolerance of anything, itself included: no map keeps
    # a's dimension, not even the identity.
    b = ac.trivial_condensation(_plain("1ab", (1.0, float("nan"), 1.0)))
    assert ac.find_dualities(b, b) == []
    identity = _identity_duality(b)
    message = "^source_perm does not preserve the dimension of 'a'$"
    with pytest.raises(ValueError, match=message):
        ac.verify_duality(b, b, identity)
    with pytest.raises(ValueError, match=message):
        ac.apply_permutation(identity, ac.SectorState(b.source, [0.2, 0.3, 0.5]))


def test_a_changed_twist_is_refused(toric_1y, toric_1z):
    # The map moves the boson Y onto the fermion X and X onto the boson Z;
    # it keeps every dimension, and n_B[a, t] = n_A[sigma(a), t] holds, so
    # only the twists rule it out.  The search returns the Y <-> Z swap alone.
    cycle = ac.PermutationDuality({"1": "1", "Y": "X", "X": "Z", "Z": "Y"}, {"phi": "phi", "X": "X"})
    assert ac.find_dualities(toric_1y, toric_1z) == [_swap_yz()]
    message = "^source_perm does not preserve the twist of 'Y'$"
    with pytest.raises(ValueError, match=message):
        ac.verify_duality(toric_1y, toric_1z, cycle)
    for trials in (0, 100):
        with pytest.raises(ValueError, match=message):
            verify_dualities(toric_1y, toric_1z, [_swap_yz(), cycle, _swap_yz()], trials=trials)
    with pytest.raises(ValueError, match=message):
        ac.apply_permutation(cycle, ac.SectorState(toric_1y.source, [0.25] * 4))


def test_a_broken_antiparticle_pair_is_refused():
    # On Z_4 the swap of 1 and 2 keeps dims and twists, but 1 and 3 are
    # antiparticles while 2 and 3 are not; the first label in label order
    # whose pair breaks is named.
    b = ac.trivial_condensation(zn_system(4))
    ident = {a: a for a in b.source.labels}
    swap = {**ident, "1": "2", "2": "1"}
    conjugation = {**ident, "1": "3", "3": "1"}
    assert ac.verify_duality(b, b, ac.PermutationDuality(conjugation, conjugation)) == 0.0
    with pytest.raises(ValueError, match="^source_perm does not preserve the antiparticle of '1'$"):
        ac.apply_permutation(ac.PermutationDuality(swap, {}), ac.SectorState(b.source, [0.25] * 4))
    for duality, what in ((ac.PermutationDuality(swap, ident), "source_perm"),
                          (ac.PermutationDuality(ident, swap), "condensed_perm")):
        with pytest.raises(ValueError, match=f"^{what} does not preserve the antiparticle of '1'$"):
            ac.verify_duality(b, b, duality)


def _last_relabelling(system):
    """The last relabelling of the system that the rule admits, in the
    oracle's order (a swap of the toric bosons, charge conjugation on Z_3),
    listed in reverse label order."""
    sigma = admissible_maps(system, system)[-1]
    return {a: sigma[a] for a in reversed(system.labels)}


def test_apply_permutation_is_a_read_only_scatter(catalog_entry):
    source = catalog_entry.branching.source
    sigma = _last_relabelling(source)
    duality = ac.PermutationDuality(sigma, {})
    for golden in catalog_entry.expected:
        rho = golden.state(source)
        want = np.empty(len(source))
        for a, p in zip(source.labels, rho.probs):
            want[source.index(sigma[a])] = p
        out = ac.apply_permutation(duality, rho)
        assert out == ac.SectorState(source, want)
        assert out.system is source and not out.probs.flags.writeable


THREE_CYCLES = {
    "toric-1Y-plain": (lambda: _strip(ac.entry("toric-1Y").branching.source, False, False),
                       {"1": "1", "Y": "X", "X": "Z", "Z": "Y"}),
    "mixed-rows-6": (lambda: MIXED_ROWS["mixed-rows-6"]().source,
                     {"a": "a", "b": "c", "c": "d", "d": "b", "e": "f", "f": "e"}),
}


@pytest.mark.parametrize("name", THREE_CYCLES)
def test_apply_permutation_scatters_a_three_cycle(name):
    # A 3-cycle is not its own inverse, so a gather would put the weights
    # elsewhere; every catalog relabelling is an involution.
    make, sigma = THREE_CYCLES[name]
    source = make()
    weights = np.arange(1.0, len(source) + 1)
    rho = ac.SectorState(source, weights / weights.sum())
    want = np.empty(len(source))
    for a, p in zip(source.labels, rho.probs):
        want[source.index(sigma[a])] = p
    gathered = rho.probs[[source.index(sigma[a]) for a in source.labels]]
    assert not np.array_equal(gathered, want)
    out = ac.apply_permutation(ac.PermutationDuality(sigma, {}), rho)
    assert out == ac.SectorState(source, want)
    assert out.system is source and not out.probs.flags.writeable


# --- the check side of the rule against the oracle, map by map ----------------


def _variants(system):
    """The system and copies that differ in the data the rule reads: no
    twists or duals, twists only, duals only, two partial dual maps (a label
    a map omits is its own antiparticle), one pairing the first and last
    non-vacuum sectors and one naming the first alone, the last sector's
    twist moved by half a turn, and its dim off by 1e-7 (beyond the
    tolerance) and by 1e-10 (within)."""
    labels, dims, vacuum = system.labels, system.dims, system.vacuum
    dual, twist = system.dual, system.twist
    first, last = labels[1], labels[-1]

    def bumped(by):
        return ac.AnyonSystem(labels, dims[:-1] + (dims[-1] + by,), vacuum, dual, twist)

    return {
        "full": system,
        "plain": _strip(system, False, False),
        "twist-only": _strip(system, False, True),
        "dual-only": _strip(system, True, False),
        "paired-dual": ac.AnyonSystem(labels, dims, vacuum, {first: last, last: first}, twist),
        "one-entry-dual": ac.AnyonSystem(labels, dims, vacuum, {first: first}, twist),
        "twist+1/2": ac.AnyonSystem(
            labels, dims, vacuum, dual, {**twist, last: twist[last] + Fraction(1, 2)}
        ),
        "dim+1e-7": bumped(1e-7),
        "dim+1e-10": bumped(1e-10),
    }


def _first_fault(domain, codomain, perm, tol=1e-9):
    """What the rule names for a vacuum-fixing bijection, read from the
    plain attributes: the first changed dimension or twist in the map's own
    order, then the first label in domain order whose antiparticle pair
    breaks; None when the map keeps everything."""
    dim, cdim = dict(zip(domain.labels, domain.dims)), dict(zip(codomain.labels, codomain.dims))
    twists = domain.twist is not None and codomain.twist is not None
    for a, b in perm.items():
        if not abs(dim[a] - cdim[b]) <= tol:
            return f"dimension of {a!r}"
        if twists and domain.twist.get(a, 0) != codomain.twist.get(b, 0):
            return f"twist of {a!r}"
    if domain.dual is not None and codomain.dual is not None:
        for a in domain.labels:
            b = perm[a]
            if perm[domain.dual.get(a, a)] != codomain.dual.get(b, b):
                return f"antiparticle of {a!r}"
    return None


def _vacuum_fixing_maps(domain, codomain):
    """Every vacuum-fixing label bijection, listed in label order and again
    in reverse label order, so that "first in the map's order" differs."""
    rest = [a for a in domain.labels if a != domain.vacuum]
    cod_rest = [b for b in codomain.labels if b != codomain.vacuum]
    for image in itertools.permutations(cod_rest):
        perm = {domain.vacuum: codomain.vacuum, **dict(zip(rest, image))}
        yield perm
        yield dict(reversed(perm.items()))


def _expect(what, fault, call, *args, **kwargs):
    if fault is None:
        call(*args, **kwargs)
    else:
        with pytest.raises(ValueError, match=f"^{what} does not preserve the {fault}$"):
            call(*args, **kwargs)


# Each catalog source, and Z_4 and Z_5 for more antiparticle pairs, with
# the kinds of change that some map of it or of its variants makes.
ALL_KINDS = {"dimension", "twist", "antiparticle"}
DIFFERENTIAL_SOURCES = {
    "z2": (zn_system(2), {"dimension", "twist"}),  # one map per pair of variants
    "z3": (zn_system(3), ALL_KINDS),
    "toric": (ac.entry("toric-1Y").branching.source, ALL_KINDS),
    "repS3": (ac.entry("repS3-1Y").branching.source, ALL_KINDS),
    "z4": (zn_system(4), ALL_KINDS),
    "z5": (zn_system(5), ALL_KINDS),
}


def test_the_differential_sources_are_the_catalog_sources():
    sources = [source for source, _ in DIFFERENTIAL_SOURCES.values()]
    assert all(e.branching.source in sources for e in ac.catalog())


@pytest.mark.parametrize("name", DIFFERENTIAL_SOURCES)
def test_the_check_refuses_exactly_what_the_oracle_does_not_admit(name):
    source, kinds = DIFFERENTIAL_SOURCES[name]
    variants = _variants(source)
    one = ac.AnyonSystem(("v",), (1.0,), "v")
    seen = set()
    for domain in variants.values():
        # The source side: apply_permutation and the sigma of verify_duality.
        b = ac.BranchingData(domain, one, np.zeros((len(domain), 1), dtype=int))
        rho = ac.SectorState(domain, np.full(len(domain), 1 / len(domain)))
        admitted = admissible_maps(domain, domain)
        for perm in _vacuum_fixing_maps(domain, domain):
            fault = _first_fault(domain, domain, perm)
            assert (fault is None) == (perm in admitted)
            duality = ac.PermutationDuality(perm, {"v": "v"})
            _expect("source_perm", fault, ac.apply_permutation, duality, rho)
            _expect("source_perm", fault, ac.verify_duality, b, b, duality, trials=0)
            seen.add(fault and fault.split()[0])
        # The condensed side, between two variants of one system.
        for codomain in variants.values():
            bA = ac.BranchingData(one, domain, np.zeros((1, len(domain)), dtype=int))
            bB = ac.BranchingData(one, codomain, np.zeros((1, len(codomain)), dtype=int))
            admitted = admissible_maps(domain, codomain)
            for perm in _vacuum_fixing_maps(domain, codomain):
                fault = _first_fault(domain, codomain, perm)
                assert (fault is None) == (perm in admitted)
                duality = ac.PermutationDuality({"v": "v"}, perm)
                _expect("condensed_perm", fault, ac.verify_duality, bA, bB, duality, trials=0)
                seen.add(fault and fault.split()[0])
    assert seen == kinds | {None}
