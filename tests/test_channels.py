"""Restriction and lifting channels, Kraus matrices, operator identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond.channels import _kraus_set, condensed_block_probs, source_block_probs

from conftest import fixes_restricted_states, random_states


def state(b_or_system, probs, condensed=False):
    if isinstance(b_or_system, ac.BranchingData):
        system = b_or_system.condensed if condensed else b_or_system.source
    else:
        system = b_or_system
    return ac.SectorState(system, probs)


# --- restriction -----------------------------------------------------------


def test_restrict_toric_half_vacuum_half_fermion_pair(toric_1y):
    out = ac.restrict(toric_1y, state(toric_1y, [0.5, 0, 0, 0.5]))
    assert np.allclose(out.probs, [0.5, 0.5], atol=1e-15)


def test_restrict_vacuum_goes_to_condensed_vacuum(catalog_entry):
    b = catalog_entry.branching
    probs = np.zeros(len(b.source))
    probs[b.source.vacuum_index] = 1.0
    out = ac.restrict(b, state(b, probs))
    want = np.zeros(len(b.condensed))
    want[b.condensed.vacuum_index] = 1.0
    assert np.allclose(out.probs, want, atol=1e-15)


def test_restrict_rep_s3_splitting_sector(rep_s3_1x):
    out = ac.restrict(rep_s3_1x, state(rep_s3_1x, [0, 0, 1]))
    assert np.allclose(out.probs, [0, 0.5, 0.5], atol=1e-15)


def test_restrict_requires_source_state(toric_1y, rep_s3_1x):
    rho = state(rep_s3_1x, [1, 0, 0])
    with pytest.raises(ac.SystemMismatchError):
        ac.restrict(toric_1y, rho)


# --- lifting ---------------------------------------------------------------


def test_lift_toric_uniform(toric_1y):
    out = ac.lift(toric_1y, state(toric_1y, [0.5, 0.5], condensed=True))
    assert np.allclose(out.probs, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_lift_toric_condensed_vacuum(toric_1y):
    out = ac.lift(toric_1y, state(toric_1y, [1, 0], condensed=True))
    assert np.allclose(out.probs, [0.5, 0.5, 0, 0], atol=1e-15)


def test_lift_rep_s3_1y_weights_by_dimension(rep_s3_1y):
    out = ac.lift(rep_s3_1y, state(rep_s3_1y, [1, 0], condensed=True))
    # Over (1, X, Y): the vacuum channel feeds 1 and Y, weighted by dims.
    assert np.allclose(out.probs, [1 / 3, 0, 2 / 3], atol=1e-15)


def test_lift_requires_condensed_state(toric_1y):
    with pytest.raises(ac.SystemMismatchError):
        ac.lift(toric_1y, state(toric_1y, [0.25] * 4))


# --- round trip ------------------------------------------------------------


def test_round_trip_toric(toric_1y):
    out = ac.round_trip(toric_1y, state(toric_1y, [0.5, 0, 0, 0.5]))
    assert np.allclose(out.probs, [0.25] * 4, atol=1e-15)


def test_round_trip_z2_always_maximally_mixed():
    b = ac.zn_full(2)
    for probs in ([1, 0], [0.3, 0.7], [0.5, 0.5]):
        out = ac.round_trip(b, state(b, probs))
        assert np.allclose(out.probs, [0.5, 0.5], atol=1e-15)


def test_round_trip_fixed_point(toric_1y):
    rho = state(toric_1y, [0.25] * 4)
    out = ac.round_trip(toric_1y, rho)
    assert np.allclose(out.probs, rho.probs, atol=1e-15)


# --- coarse form -----------------------------------------------------------


def test_lift_coarse_toric_vertex(toric_1y):
    out = ac.lift_coarse(toric_1y, state(toric_1y, [1, 0, 0, 0]))
    assert np.allclose(out.probs, [0.5, 0.5, 0, 0], atol=1e-15)


def test_lift_coarse_zn_uniform():
    for n in (2, 3, 5):
        b = ac.zn_full(n)
        rng = np.random.default_rng(n)
        raw = rng.random(n)
        out = ac.lift_coarse(b, state(b, raw / raw.sum()))
        assert np.allclose(out.probs, np.full(n, 1 / n), atol=1e-14)


def test_lift_coarse_rep_s3_fixed_splitting_sector(rep_s3_1x):
    out = ac.lift_coarse(rep_s3_1x, state(rep_s3_1x, [0, 0, 1]))
    assert np.allclose(out.probs, [0, 0, 1], atol=1e-15)


def test_round_trip_equals_lift_coarse(catalog_entry):
    b = catalog_entry.branching
    for rho in random_states(b.source, 200, seed=1):
        a = ac.round_trip(b, rho).probs
        c = ac.lift_coarse(b, rho).probs
        assert np.max(np.abs(a - c)) <= 1e-12


# --- conservation properties ----------------------------------------------


def test_both_channels_preserve_total_probability(catalog_entry):
    b = catalog_entry.branching
    for rho in random_states(b.source, 100, seed=2):
        sigma = ac.restrict(b, rho)
        assert abs(sigma.probs.sum() - 1.0) <= 1e-12
        assert abs(ac.lift(b, sigma).probs.sum() - 1.0) <= 1e-12


def test_absolute_continuity(catalog_entry):
    b = catalog_entry.branching
    for rho in random_states(b.source, 50, seed=3):
        back = ac.round_trip(b, rho).probs
        assert np.all(back[rho.probs > 0] > 0)


# restrict(lift(.)) is the matrix Gamma of conftest.restrict_lift_matrix, so
# the section and idempotence identities hold on every state exactly when
# Gamma fixes the image of restrict.  A shared parent alone does not break
# that (repS3-1X splits Y into two condensed sectors and keeps it); repS3-1Y
# is the one catalog entry where Gamma moves restricted states (see the
# dedicated tests below).
SECTION_ENTRY_IDS = [e.id for e in ac.catalog() if fixes_restricted_states(e.branching)]
assert SECTION_ENTRY_IDS == [e.id for e in ac.catalog() if e.id != "repS3-1Y"], SECTION_ENTRY_IDS


@pytest.mark.parametrize("entry_id", SECTION_ENTRY_IDS)
def test_restrict_after_lift_fixes_restricted_states(entry_id):
    b = ac.entry(entry_id).branching
    for rho in random_states(b.source, 100, seed=4):
        sigma = ac.restrict(b, rho)
        again = ac.restrict(b, ac.lift(b, sigma))
        assert np.max(np.abs(again.probs - sigma.probs)) <= 1e-12


def test_restrict_after_lift_is_identity_without_splitting(toric_1y):
    # No source sector feeds two condensed sectors here, so Gamma is the
    # identity and the section holds on every condensed state, not only on
    # restricted ones.
    for sigma in random_states(toric_1y.condensed, 100, seed=5):
        again = ac.restrict(toric_1y, ac.lift(toric_1y, sigma))
        assert np.max(np.abs(again.probs - sigma.probs)) <= 1e-12


def test_shared_parent_breaks_the_section_property(rep_s3_1y):
    # Y restricts to both condensed sectors and lifting mixes them: with
    # n.T @ n = [[2, 1], [1, 2]] and index 3, Gamma has eigenvalues 1 and
    # 1/3, and restrict(lift(.)) contracts towards the uniform condensed
    # state instead of fixing restricted states.
    sigma = state(rep_s3_1y, [1.0, 0.0], condensed=True)
    again = ac.restrict(rep_s3_1y, ac.lift(rep_s3_1y, sigma))
    assert np.allclose(again.probs, [2 / 3, 1 / 3], atol=1e-15)
    rho = state(rep_s3_1y, [1.0, 0.0, 0.0])
    assert ac.verify_idempotence(rep_s3_1y, rho) == pytest.approx(1 / 3, abs=1e-12)


# --- Kraus realisation ------------------------------------------------------


def test_toric_restriction_kraus_entries(toric_1y):
    ks = ac.kraus_restriction(toric_1y)
    assert len(ks.operators) == 4
    for k in ks.operators:
        nonzero = np.abs(k[np.nonzero(k)])
        assert 1 <= nonzero.size <= 2
        assert np.allclose(nonzero, 1.0)


def units(dim, sectors, entries):
    """One dim x dim matrix per source sector, zero but for the given
    {(sector, row, column): value} entries."""
    ops = np.zeros((sectors, dim, dim), dtype=complex)
    for (a, row, col), value in entries.items():
        ops[a, row, col] = value
    return ops


# Block basis (1, X, Y, then the condensed sectors).  In repS3-lagrangian
# n[Y, phi] = 2, so the label-level weight of Y -> phi is the sum of two
# channel copies; in repS3-1Y, Y feeds both condensed sectors.
KRAUS_ENTRIES = {
    "repS3-lagrangian": (
        {(0, 3, 0): 1.0, (1, 3, 1): 1.0, (2, 3, 2): 1.0},
        {(0, 0, 3): np.sqrt(1 / 6), (1, 1, 3): np.sqrt(1 / 6), (2, 2, 3): np.sqrt(2 / 3)},
    ),
    "repS3-1Y": (
        {(0, 3, 0): 1.0, (1, 4, 1): 1.0, (2, 3, 2): np.sqrt(1 / 2), (2, 4, 2): np.sqrt(1 / 2)},
        {
            (0, 0, 3): np.sqrt(1 / 3),
            (1, 1, 4): np.sqrt(1 / 3),
            (2, 2, 3): np.sqrt(2 / 3),
            (2, 2, 4): np.sqrt(2 / 3),
        },
    ),
}


@pytest.mark.parametrize("entry_id", sorted(KRAUS_ENTRIES))
def test_kraus_entries_with_multiplicity_and_shared_parent(entry_id):
    b = ac.entry(entry_id).branching
    restriction, lifting = KRAUS_ENTRIES[entry_id]
    dim = len(b.source) + len(b.condensed)
    for ks, entries in ((ac.kraus_restriction(b), restriction), (ac.kraus_lifting(b), lifting)):
        assert ks.block_dim == dim
        np.testing.assert_array_equal(np.stack(ks.operators), units(dim, 3, entries))


def test_channel_resolved_restriction_splits_a_multiplicity(rep_s3_lagrangian):
    # The bimodule check's basis: one vector per channel copy (1, X, Y, Y),
    # then phi.  Each copy of Y -> phi carries half the label-level weight.
    ks = _kraus_set(rep_s3_lagrangian, "restriction", resolved=True)
    half = np.sqrt(1 / 2)
    entries = {(0, 4, 0): 1.0, (1, 4, 1): 1.0, (2, 4, 2): half, (2, 4, 3): half}
    np.testing.assert_array_equal(np.stack(ks.operators), units(5, 3, entries))


def test_kraus_invariant_residual_sees_a_scaled_operator(rep_s3_1y):
    # Negative control: scaling K_Y by 1.1 scales its contribution by 1.21.
    # K_Y^dag K_Y has 1 at (Y, Y), and tr(L_Y L_Y^dag) = 4/3.
    for ks, want in ((ac.kraus_restriction(rep_s3_1y), 0.21), (ac.kraus_lifting(rep_s3_1y), 0.28)):
        ops = list(ks.operators)
        ops[2] = 1.1 * ops[2]
        bad = ac.KrausSet(ks.branching, tuple(ops), ks.direction)
        assert ac.kraus_invariant_residual(bad) == pytest.approx(want, abs=1e-12)


def test_kraus_invariants(catalog_entry):
    b = catalog_entry.branching
    assert ac.kraus_invariant_residual(ac.kraus_restriction(b)) <= 1e-12
    assert ac.kraus_invariant_residual(ac.kraus_lifting(b)) <= 1e-12


def test_kraus_apply_reproduces_restrict(catalog_entry):
    b = catalog_entry.branching
    ks = ac.kraus_restriction(b)
    for rho in random_states(b.source, 20, seed=6):
        out = ks.apply(ac.embed_source(b, rho))
        assert np.max(np.abs(condensed_block_probs(b, out) - ac.restrict(b, rho).probs)) <= 1e-12


def test_kraus_apply_reproduces_lift(catalog_entry):
    b = catalog_entry.branching
    ks = ac.kraus_lifting(b)
    for rho in random_states(b.source, 20, seed=7):
        sigma = ac.restrict(b, rho)
        out = ks.apply(ac.embed_condensed(b, sigma))
        assert np.max(np.abs(source_block_probs(b, out) - ac.lift(b, sigma).probs)) <= 1e-12


# --- operator identities ----------------------------------------------------


def test_idempotence_examples(toric_1y, rep_s3_1y):
    assert ac.verify_idempotence(toric_1y, state(toric_1y, [0.5, 0, 0, 0.5])) == 0.0
    # The flat state restricts onto the balanced condensed state, which the
    # round trip does fix even for the shared-parent pattern.
    r = ac.verify_idempotence(rep_s3_1y, state(rep_s3_1y, [1 / 3, 1 / 3, 1 / 3]))
    assert r <= 1e-12


@pytest.mark.parametrize("entry_id", SECTION_ENTRY_IDS)
def test_idempotence_random(entry_id):
    b = ac.entry(entry_id).branching
    worst = max(
        ac.verify_idempotence(b, rho) for rho in random_states(b.source, 200, seed=8)
    )
    assert worst <= 1e-12


def test_bimodule_unital_case(catalog_entry):
    b = catalog_entry.branching
    one = ac.DiagonalOperator(b.condensed, np.ones(len(b.condensed)))
    rng = np.random.default_rng(9)
    m = ac.DiagonalOperator(b.source, rng.normal(size=len(b.source)))
    assert ac.verify_bimodule(b, one, one, m) <= 1e-12


def test_bimodule_orthogonal_supports_kill_everything(toric_1y):
    p = ac.DiagonalOperator(toric_1y.condensed, [2.0, 0.0])
    q = ac.DiagonalOperator(toric_1y.condensed, [0.0, 3.0])
    rng = np.random.default_rng(10)
    m = ac.DiagonalOperator(toric_1y.source, rng.normal(size=4))
    assert ac.verify_bimodule(toric_1y, p, q, m) <= 1e-15


def test_bimodule_random(catalog_entry):
    b = catalog_entry.branching
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = ac.DiagonalOperator(b.condensed, rng.normal(size=len(b.condensed)))
        q = ac.DiagonalOperator(b.condensed, rng.normal(size=len(b.condensed)))
        m = ac.DiagonalOperator(b.source, rng.normal(size=len(b.source)))
        assert ac.verify_bimodule(b, p, q, m) <= 1e-12


def test_bimodule_rejects_wrong_systems(toric_1y):
    one_src = ac.DiagonalOperator(toric_1y.source, np.ones(4))
    one_cond = ac.DiagonalOperator(toric_1y.condensed, np.ones(2))
    with pytest.raises(ac.SystemMismatchError):
        ac.verify_bimodule(toric_1y, one_src, one_src, one_src)
    with pytest.raises(ac.SystemMismatchError):
        ac.verify_bimodule(toric_1y, one_cond, one_cond, one_cond)


# --- state validation -------------------------------------------------------


def test_sector_state_rejects_bad_input(toric_1y):
    system = toric_1y.source
    with pytest.raises(ValueError):
        ac.SectorState(system, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        ac.SectorState(system, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        ac.SectorState(system, [1.0, 0.0])


def test_sector_state_rejects_nan(toric_1y):
    with pytest.raises(ValueError, match="^probabilities must be finite$"):
        ac.SectorState(toric_1y.source, [0.5, float("nan"), 0.5, 0.0])


@pytest.mark.parametrize(
    "coeffs, message",
    [([1.0, 2.0], r"^expected 4 coefficients, got shape \(2,\)$"),
     ([1.0, float("inf"), 0.0, 0.0], "^coefficients must be finite$")],
    ids=["wrong-shape", "inf"],
)
def test_diagonal_operator_rejects_bad_coefficients(toric_1y, coeffs, message):
    with pytest.raises(ValueError, match=message):
        ac.DiagonalOperator(toric_1y.source, coeffs)


@pytest.mark.parametrize("kind", ["branching", "state"])
def test_equality_with_another_type_is_left_to_the_other_operand(toric_1y, kind):
    value = toric_1y if kind == "branching" else ac.SectorState(toric_1y.source, [1, 0, 0, 0])
    assert value.__eq__(object()) is NotImplemented
    assert value != "toric-1Y"


@st.composite
def simplex4(draw):
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
            min_size=4,
            max_size=4,
        )
    )
    total = sum(raw)
    return [x / total for x in raw]


@given(probs=simplex4())
@settings(max_examples=200, deadline=None)
def test_idempotence_property_toric(probs):
    b = ac.entry("toric-1Y").branching
    rho = ac.SectorState(b.source, probs)
    assert ac.verify_idempotence(b, rho) <= 1e-12
    assert abs(ac.restrict(b, rho).probs.sum() - 1.0) <= 1e-12
