"""Shannon and relative entropies, the order parameter, reference states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anycond as ac
from anycond.catalog import rep_s3_system, toric_system, zn_system

from conftest import random_states

LOG2 = math.log(2.0)


def _state(system, probs):
    return ac.SectorState(system, probs)


# --- shannon ---------------------------------------------------------------


def test_shannon_uniform_two():
    z2 = zn_system(2)
    assert ac.shannon(_state(z2, [0.5, 0.5])) == pytest.approx(LOG2, abs=1e-15)


def test_shannon_point_mass():
    z2 = zn_system(2)
    assert ac.shannon(_state(z2, [1.0, 0.0])) == 0.0


def test_shannon_quarter_quarter_half():
    z3 = zn_system(3)
    got = ac.shannon(_state(z3, [0.25, 0.25, 0.5]))
    assert got == pytest.approx(1.5 * LOG2, abs=1e-14)


# --- relative entropy -------------------------------------------------------


def test_relative_entropy_of_state_with_itself():
    z2 = zn_system(2)
    p = _state(z2, [0.3, 0.7])
    assert ac.relative_entropy(p, p) == 0.0


def test_relative_entropy_point_vs_uniform():
    z2 = zn_system(2)
    got = ac.relative_entropy(_state(z2, [1, 0]), _state(z2, [0.5, 0.5]))
    assert got == pytest.approx(LOG2, abs=1e-15)


def test_relative_entropy_disjoint_support_is_infinite():
    z2 = zn_system(2)
    assert ac.relative_entropy(_state(z2, [1, 0]), _state(z2, [0, 1])) == math.inf


def test_relative_entropy_requires_same_system():
    with pytest.raises(ValueError):
        ac.relative_entropy(_state(zn_system(2), [1, 0]), _state(zn_system(3), [1, 0, 0]))


# --- order parameter --------------------------------------------------------


@pytest.mark.parametrize(
    "entry_id,probs,expected",
    [
        ("toric-1Y", [0.5, 0, 0, 0.5], LOG2),
        ("repS3-1Y", [1 / 3, 1 / 3, 1 / 3], LOG2 / 3),
        ("repS3-lagrangian", [1, 0, 0], math.log(6.0)),
    ],
)
def test_order_parameter_reference_points(entry_id, probs, expected):
    b = ac.entry(entry_id).branching
    report = ac.order_parameter(b, _state(b.source, probs))
    assert report.order_parameter == pytest.approx(expected, abs=1e-12)


def test_order_parameter_report_contents(toric_1y):
    report = ac.order_parameter(toric_1y, _state(toric_1y.source, [0.5, 0, 0, 0.5]))
    assert report.bound == pytest.approx(LOG2, abs=1e-15)
    assert report.formula_residual <= 1e-10
    assert report.log_base == "natural"
    assert len(report.per_sector) == 4
    assert sum(report.per_sector) == pytest.approx(report.order_parameter, abs=1e-12)
    assert 0.0 <= report.order_parameter <= report.bound + 1e-9


def test_order_parameter_in_bits(toric_1y):
    rho = _state(toric_1y.source, [0.5, 0, 0, 0.5])
    nat = ac.order_parameter(toric_1y, rho)
    bits = ac.order_parameter(toric_1y, rho, bits=True)
    assert bits.log_base == "bits"
    assert bits.order_parameter == pytest.approx(nat.order_parameter / LOG2, abs=1e-12)
    assert bits.bound == pytest.approx(nat.bound / LOG2, abs=1e-12)
    assert bits.order_parameter == pytest.approx(1.0, abs=1e-12)


def test_formula_residual_small_on_random_states(catalog_entry):
    b = catalog_entry.branching
    for rho in random_states(b.source, 100, seed=12):
        report = ac.order_parameter(b, rho)
        assert report.formula_residual <= 1e-10


def test_bound_holds_on_random_states(catalog_entry):
    b = catalog_entry.branching
    lam = ac.jones_index(b)
    for rho in random_states(b.source, 200, seed=13):
        s = ac.order_parameter(b, rho).order_parameter
        assert -1e-12 <= s <= math.log(lam) + 1e-9


def test_zero_exactly_on_round_trip_fixed_points(catalog_entry):
    # The order parameter vanishes iff the state equals its round trip.
    b = catalog_entry.branching
    for rho in random_states(b.source, 30, seed=14):
        s = ac.order_parameter(b, rho).order_parameter
        gap = np.max(np.abs(ac.round_trip(b, rho).probs - rho.probs))
        if gap > 1e-6:
            assert s > 0.0
        if gap <= 1e-13:
            assert abs(s) <= 1e-10
    fixed = ac.symmetric_state(b.source)
    assert np.max(np.abs(ac.round_trip(b, fixed).probs - fixed.probs)) <= 1e-12
    assert abs(ac.order_parameter(b, fixed).order_parameter) <= 1e-12


def test_positive_when_not_fixed(toric_1y):
    rho = _state(toric_1y.source, [0.7, 0.1, 0.1, 0.1])
    report = ac.order_parameter(toric_1y, rho)
    assert report.order_parameter > 1e-3


def test_zn_closed_form():
    # Full condensation of Z_N: order parameter is log N minus the Shannon
    # entropy, exactly.
    for n in (2, 3, 5):
        b = ac.zn_full(n)
        for rho in random_states(b.source, 50, seed=n):
            s = ac.order_parameter(b, rho).order_parameter
            assert s == pytest.approx(math.log(n) - ac.shannon(rho), abs=1e-12)


# --- reference states -------------------------------------------------------


def test_infinite_temperature_toric_default_multiplicities():
    got = ac.infinite_temperature_state(toric_system())
    assert np.allclose(got.probs, [0.25] * 4, atol=1e-15)


def test_infinite_temperature_rep_s3():
    got = ac.infinite_temperature_state(rep_s3_system())
    assert np.allclose(got.probs, [0.25, 0.25, 0.5], atol=1e-15)


def test_infinite_temperature_single_sector():
    system = ac.AnyonSystem(("1",), (1.0,), "1")
    assert np.allclose(ac.infinite_temperature_state(system).probs, [1.0])


def test_infinite_temperature_with_multiplicities():
    got = ac.infinite_temperature_state(rep_s3_system(), {"1": 2, "X": 1, "Y": 1})
    assert np.allclose(got.probs, [0.4, 0.2, 0.4], atol=1e-15)
    with pytest.raises(ValueError):
        ac.infinite_temperature_state(rep_s3_system(), [1, 0, 1])


def test_infinite_temperature_rejects_unknown_labels():
    # A mapping key that is not a sector is an error, as in
    # CondensableAlgebra.from_labels, not a silently ignored entry.
    with pytest.raises(ValueError, match=r"\['q', 'y'\]"):
        ac.infinite_temperature_state(toric_system(), {"y": 5, "1": 2, "q": 1})


def test_symmetric_state_values():
    assert np.allclose(ac.symmetric_state(zn_system(4)).probs, [0.25] * 4)
    assert np.allclose(ac.symmetric_state(rep_s3_system()).probs, [1 / 6, 1 / 6, 2 / 3])
    assert np.allclose(ac.symmetric_state(toric_system()).probs, [0.25] * 4)


def test_symmetric_state_has_zero_order_parameter(catalog_entry):
    b = catalog_entry.branching
    s = ac.order_parameter(b, ac.symmetric_state(b.source)).order_parameter
    assert abs(s) <= 1e-12


# --- perturbation scan ------------------------------------------------------


def test_perturbation_exponent_z2():
    b = ac.zn_full(2)
    base = ac.symmetric_state(b.source)
    scan = ac.perturbation_scan(
        b, base, [[1.0, -1.0]], np.geomspace(1e-4, 1e-2, 7)
    )
    assert scan.exponents[0] == pytest.approx(2.0, abs=0.05)


def test_perturbation_zero_epsilon_gives_zero():
    b = ac.zn_full(2)
    base = ac.symmetric_state(b.source)
    scan = ac.perturbation_scan(b, base, [[1.0, -1.0]], [0.0, 1e-3])
    row = [r for r in scan.rows if r[1] == 0.0][0]
    assert row[2] == pytest.approx(0.0, abs=1e-15)


def test_perturbation_zero_direction_is_constant():
    b = ac.zn_full(3)
    base = ac.symmetric_state(b.source)
    scan = ac.perturbation_scan(b, base, [[0.0, 0.0, 0.0]], [0.0, 1e-3, 1e-2])
    values = [r[2] for r in scan.rows]
    assert max(values) - min(values) <= 1e-15
    assert math.isnan(scan.exponents[0])


def test_perturbation_rows_are_sorted():
    b = ac.zn_full(2)
    base = ac.symmetric_state(b.source)
    scan = ac.perturbation_scan(b, base, [[1, -1], [-1, 1]], [1e-2, 1e-3])
    assert [r[:2] for r in scan.rows] == [
        (0, 1e-3),
        (0, 1e-2),
        (1, 1e-3),
        (1, 1e-2),
    ]


def test_perturbation_rejects_simplex_violation():
    b = ac.zn_full(2)
    base = ac.symmetric_state(b.source)
    with pytest.raises(ValueError, match="simplex"):
        ac.perturbation_scan(b, base, [[1.0, -1.0]], [0.9])


def test_perturbation_rejects_non_zero_sum_direction():
    b = ac.zn_full(2)
    base = ac.symmetric_state(b.source)
    with pytest.raises(ValueError, match="zero-sum"):
        ac.perturbation_scan(b, base, [[1.0, 0.0]], [1e-3])


# --- hypothesis properties --------------------------------------------------


@st.composite
def simplex3(draw):
    raw = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    total = sum(raw)
    return [x / total for x in raw]


@given(probs=simplex3())
@settings(max_examples=200, deadline=None)
def test_bound_property_rep_s3_lagrangian(probs):
    b = ac.entry("repS3-lagrangian").branching
    report = ac.order_parameter(b, ac.SectorState(b.source, probs))
    assert -1e-12 <= report.order_parameter <= report.bound + 1e-9
    assert report.formula_residual <= 1e-10
