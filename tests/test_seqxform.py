import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcosim.errors import DegenerateVoltageError
from tdcosim.seqxform import (
    FORTESCUE,
    FORTESCUE_INV,
    PhasePowers,
    PhaseVoltages,
    phase_currents_from_power,
)

from oracles import fortescue_inverse, fortescue_matrix


def pol(mag, deg):
    return mag * cmath.exp(1j * cmath.pi * deg / 180.0)


finite_complex = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
triple = st.tuples(finite_complex, finite_complex, finite_complex)


def test_matrices_match_independent_construction():
    assert np.allclose(FORTESCUE, fortescue_matrix(), atol=1e-15)
    assert np.allclose(FORTESCUE_INV, fortescue_inverse(), atol=1e-15)


def test_balanced_positive_set_maps_to_pure_positive():
    v0, v1, v2 = FORTESCUE_INV @ np.array([pol(1, 0), pol(1, -120), pol(1, 120)])
    assert abs(v0) < 1e-12
    assert abs(v1 - 1.0) < 1e-12
    assert abs(v2) < 1e-12


def test_common_mode_set_maps_to_pure_zero():
    v0, v1, v2 = FORTESCUE_INV @ np.array([pol(1, 0), pol(1, 0), pol(1, 0)])
    assert abs(v0 - 1.0) < 1e-12
    assert abs(v1) < 1e-12
    assert abs(v2) < 1e-12


def test_slightly_unbalanced_set_matches_dense_multiply_oracle():
    v = np.array([pol(1.02, 0), pol(0.98, -118), pol(1.00, 121)])
    seq = FORTESCUE_INV @ v
    # frozen from the dense-matrix oracle
    assert seq[0] == pytest.approx(0.0149599311865909 - 0.00270711343321223j, abs=1e-12)
    assert seq[1] == pytest.approx(0.999750235211702 + 0.0172179710685786j, abs=1e-12)
    assert seq[2] == pytest.approx(0.00528983360170718 - 0.0145108576353664j, abs=1e-12)
    oracle = fortescue_inverse() @ v
    assert np.allclose(seq, oracle, atol=1e-14)


def test_pure_positive_maps_to_balanced_phases():
    va, vb, vc = FORTESCUE @ np.array([0, 1, 0], dtype=complex)
    assert abs(va - pol(1, 0)) < 1e-12
    assert abs(vb - pol(1, -120)) < 1e-12
    assert abs(vc - pol(1, 120)) < 1e-12


def test_zero_maps_to_zero():
    v = FORTESCUE @ np.zeros(3, dtype=complex)
    assert np.all(v == 0)


@given(triple)
@settings(max_examples=200)
def test_round_trip_identity(vals):
    seq = np.array(vals)
    back = FORTESCUE_INV @ (FORTESCUE @ seq)
    assert np.max(np.abs(back - seq)) < 1e-12


@given(triple)
@settings(max_examples=200)
def test_forward_round_trip_identity(vals):
    v = np.array(vals)
    back = FORTESCUE @ (FORTESCUE_INV @ v)
    assert np.max(np.abs(back - v)) < 1e-12


@given(triple, triple)
@settings(max_examples=200)
def test_linearity(x, y):
    vx = np.array(x)
    vy = np.array(y)
    lhs = FORTESCUE_INV @ (vx + vy)
    rhs = FORTESCUE_INV @ vx + FORTESCUE_INV @ vy
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(triple, triple)
@settings(max_examples=200)
def test_power_invariance(vv, ii):
    v = np.asarray(vv)
    i = np.asarray(ii)
    v012 = FORTESCUE_INV @ v
    i012 = FORTESCUE_INV @ i
    total_phase = np.sum(v * np.conj(i))
    total_seq = 3.0 * np.sum(v012 * np.conj(i012))
    assert abs(total_phase - total_seq) < 1e-10


def test_unity_voltage_currents():
    v = PhaseVoltages.balanced(1.0)
    s = PhasePowers(1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    i = phase_currents_from_power(s.as_array(), v.as_array())
    assert np.allclose(np.abs(i), 1.0, atol=1e-12)
    assert np.allclose(np.angle(i), np.angle(v.as_array()), atol=1e-12)


def test_zero_power_zero_currents():
    i = phase_currents_from_power(
        np.zeros(3, dtype=complex), PhaseVoltages.balanced(1.0).as_array()
    )
    assert np.all(i == 0)


def test_unbalanced_conj_division_per_phase():
    s = PhasePowers(0.9 + 0.3j, 1.1 - 0.1j, 0.7 + 0.2j)
    v = PhaseVoltages(pol(1.01, 2), pol(0.97, -119), pol(1.03, 118))
    i = phase_currents_from_power(s.as_array(), v.as_array())
    expected = [
        np.conj((0.9 + 0.3j) / pol(1.01, 2)),
        np.conj((1.1 - 0.1j) / pol(0.97, -119)),
        np.conj((0.7 + 0.2j) / pol(1.03, 118)),
    ]
    assert np.allclose(i, expected, atol=1e-14)


def test_degenerate_voltage_raises_with_phase_name():
    v = PhaseVoltages(1.0, 1e-9, 1.0)
    with pytest.raises(DegenerateVoltageError) as err:
        phase_currents_from_power(PhasePowers(1, 1, 1).as_array(), v.as_array())
    assert err.value.phase == "b"
