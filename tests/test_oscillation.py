"""Oscillation kinematics against hand values and the 2x2 matrix oracle.

The constant-density matter curve lives in scripts/matter_effect_check.py,
its one caller; the matter tests load that script by path.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nulgi.errors import DomainError
from nulgi.oscillation import (
    PHASE_PER_EV2_KM_OVER_GEV,
    OscParams,
    accumulated_phase,
    survival_probability,
)

import oracles
from oracles import accumulated_phase_interval, correlation

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "matter_effect_check.py"
_spec = importlib.util.spec_from_file_location("matter_effect_check", _SCRIPT)
matter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matter)
MatterParams = matter.MatterParams
matter_params = matter.matter_params
matter_survival_probability = matter.matter_survival_probability
osc_frequency = matter.osc_frequency
phase_from_frequency = matter.phase_from_frequency

# Hand evaluation of 1e3 / (4e9 * hbar*c[eV m]) with hbar*c = 197.3269804 MeV fm.
KAPPA_BY_HAND = 1.2669327

MINOS_LIKE = OscParams(dm2=2.5e-3, sin2_2theta=0.95, baseline_km=735.0)

# Frozen from the hand-evaluated kappa: 1.2669327 * 2.5e-3 * 735 / 2.25.
PSI_AT_2_25_GEV = 1.0346616878819308


def test_unit_constant_matches_hand_value():
    assert abs(PHASE_PER_EV2_KM_OVER_GEV - KAPPA_BY_HAND) < 5e-7
    independent = 1.0e3 / (4.0e9 * oracles.HBARC_HAND_EV_M)
    assert_allclose(PHASE_PER_EV2_KM_OVER_GEV, independent, rtol=1e-9)


def test_osc_frequency_hand_values():
    assert osc_frequency(MINOS_LIKE, 1.0) == pytest.approx(1.25e-12, rel=1e-12)
    zero = OscParams(dm2=0.0, sin2_2theta=0.5, baseline_km=735.0)
    assert osc_frequency(zero, 1.0) == 0.0
    # Signed: the splitting's sign passes straight through.
    flipped = OscParams(dm2=-2.5e-3, sin2_2theta=0.95, baseline_km=735.0)
    assert osc_frequency(flipped, 1.0) == pytest.approx(-1.25e-12, rel=1e-12)


@given(e=st.floats(0.1, 100.0), dm2=st.floats(1e-5, 1e-2))
def test_osc_frequency_halves_when_energy_doubles(e, dm2):
    params = OscParams(dm2=dm2, sin2_2theta=0.5, baseline_km=735.0)
    assert_allclose(osc_frequency(params, 2.0 * e), 0.5 * osc_frequency(params, e))


def test_osc_frequency_rejects_nonpositive_energy():
    with pytest.raises(DomainError):
        osc_frequency(MINOS_LIKE, 0.0)
    with pytest.raises(DomainError):
        osc_frequency(MINOS_LIKE, -2.0)


def test_accumulated_phase_frozen_value():
    assert_allclose(accumulated_phase(MINOS_LIKE, 2.25), PSI_AT_2_25_GEV, rtol=1e-12)
    assert accumulated_phase(MINOS_LIKE, 2.25) == pytest.approx(1.0347, abs=5e-5)


def test_accumulated_phase_zero_splitting():
    params = OscParams(dm2=0.0, sin2_2theta=0.95, baseline_km=735.0)
    for e in (0.5, 2.25, 50.0):
        assert accumulated_phase(params, e) == 0.0


def test_accumulated_phase_nonnegative_for_negative_dm2():
    flipped = OscParams(dm2=-2.5e-3, sin2_2theta=0.95, baseline_km=735.0)
    assert accumulated_phase(flipped, 2.25) == accumulated_phase(MINOS_LIKE, 2.25)


def test_first_oscillation_cycle_at_minos_length_over_energy():
    # 250 km/GeV sits inside the first cycle, below the survival minimum at
    # psi = pi/2, for the whole atmospheric-splitting band.
    for dm2 in (2.2e-3, 2.4e-3, 2.6e-3):
        params = OscParams(dm2=dm2, sin2_2theta=0.95, baseline_km=250.0)
        psi = accumulated_phase(params, 1.0)
        assert 0.0 < psi < math.pi / 2


def test_phase_span_of_standard_energy_window():
    params = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
    lo = accumulated_phase(params, 50.0)
    hi = accumulated_phase(params, 0.5)
    assert 0.0 < lo < 0.1
    assert math.pi < hi <= 1.5 * math.pi


@given(
    e=st.floats(0.1, 100.0),
    start=st.floats(0.0, 500.0),
    length=st.floats(0.0, 800.0),
)
def test_interval_phase_is_stationary(e, start, length):
    end = start + length
    value = accumulated_phase_interval(MINOS_LIKE.dm2, e, start, end)
    assert value == accumulated_phase_interval(MINOS_LIKE.dm2, e, 0.0, end - start)


def test_interval_phase_stationary_exact_on_representable_endpoints():
    a = accumulated_phase_interval(MINOS_LIKE.dm2, 2.0, 128.0, 192.0)
    b = accumulated_phase_interval(MINOS_LIKE.dm2, 2.0, 0.0, 64.0)
    assert a == b


@given(e_a=st.floats(0.2, 80.0), e_b=st.floats(0.2, 80.0))
@settings(max_examples=300)
def test_phase_sum_rule(e_a, e_b):
    # 1/E_a + 1/E_b = 1/E_c makes the phases add exactly.
    e_c = 1.0 / (1.0 / e_a + 1.0 / e_b)
    total = accumulated_phase(MINOS_LIKE, e_a) + accumulated_phase(MINOS_LIKE, e_b)
    assert_allclose(total, accumulated_phase(MINOS_LIKE, e_c), rtol=1e-12)


def test_phase_from_frequency_consistency():
    omega = osc_frequency(MINOS_LIKE, 2.25)
    assert_allclose(
        phase_from_frequency(omega, 735.0), accumulated_phase(MINOS_LIKE, 2.25),
        rtol=1e-12,
    )


def test_survival_hand_values():
    assert survival_probability(0.95, 0.0) == 1.0
    assert survival_probability(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert survival_probability(0.95, math.pi / 4) == pytest.approx(0.525, abs=1e-12)


def test_survival_accepts_arrays():
    psis = np.linspace(0.0, 4.0, 7)
    probs = survival_probability(0.95, psis)
    assert probs.shape == psis.shape
    assert_allclose(probs[0], 1.0)


@given(s=st.floats(0.0, 1.0), psi=st.floats(-20.0, 20.0))
@settings(max_examples=300)
def test_survival_bounds_period_and_parity(s, psi):
    p = float(survival_probability(s, psi))
    assert 0.0 <= p <= 1.0
    assert_allclose(p, float(survival_probability(s, psi + math.pi)), atol=1e-12)
    assert_allclose(p, float(survival_probability(s, -psi)), atol=1e-12)


def test_survival_rejects_bad_amplitude():
    with pytest.raises(DomainError):
        survival_probability(1.2, 0.5)
    with pytest.raises(DomainError):
        survival_probability(-0.1, 0.5)


@given(s=st.floats(0.0, 1.0), psi=st.floats(-10.0, 10.0))
@settings(max_examples=300)
def test_correlation_is_two_p_minus_one(s, psi):
    assert_allclose(
        float(correlation(s, psi)),
        2.0 * float(survival_probability(s, psi)) - 1.0,
        atol=1e-15,
    )


def test_correlation_hand_values():
    assert correlation(0.95, 0.0) == 1.0
    assert correlation(1.0, math.pi / 2) == pytest.approx(-1.0, abs=1e-15)


def test_matter_params_vacuum_limit():
    eff = matter_params(MINOS_LIKE, 0.0, 2.25)
    assert_allclose(eff.omega_m, osc_frequency(MINOS_LIKE, 2.25), rtol=1e-14)
    assert_allclose(eff.sin2_2theta_m, MINOS_LIKE.sin2_2theta, rtol=1e-14)
    assert not eff.degenerate


def test_matter_resonance_saturates_amplitude():
    params = OscParams(dm2=2.5e-3, sin2_2theta=0.6, baseline_km=735.0)
    omega = osc_frequency(params, 2.0)
    resonant = omega * math.sqrt(1.0 - params.sin2_2theta)
    assert_allclose(matter_params(params, resonant, 2.0).sin2_2theta_m, 1.0, rtol=1e-12)


def test_matter_suppression_at_large_potential():
    params = OscParams(dm2=2.5e-3, sin2_2theta=0.6, baseline_km=735.0)
    omega = osc_frequency(params, 2.0)
    eff = matter_params(params, 100.0 * omega, 2.0)
    # Amplitude falls like (omega/v_c)^2; the oracle value is the exact target.
    direct = oracles.expm_survival(2.5e-3, 0.6, 735.0, 2.0, v_c=100.0 * omega)
    assert eff.sin2_2theta_m < 1e-3
    assert_allclose(matter_survival_probability(params, 100.0 * omega, 2.0), direct, atol=1e-10)


def test_matter_degenerate_case_flagged():
    flat = OscParams(dm2=0.0, sin2_2theta=0.6, baseline_km=735.0)
    eff = matter_params(flat, 0.0, 2.0)
    assert eff == MatterParams(omega_m=0.0, sin2_2theta_m=0.0, degenerate=True)
    assert matter_survival_probability(flat, 0.0, 2.0) == 1.0


def test_matter_survival_matches_expm_oracle():
    # Vacuum, weak, resonant and strong matter, over a spread of energies.
    rng = np.random.default_rng(11)
    for _ in range(60):
        dm2 = float(rng.uniform(5e-4, 5e-3))
        s2t = float(rng.uniform(0.05, 1.0))
        e = float(rng.uniform(0.5, 30.0))
        omega = dm2 / (2.0e9 * e)
        v_c = float(rng.choice([0.0, 0.1, 1.0, 10.0])) * omega
        params = OscParams(dm2=dm2, sin2_2theta=s2t, baseline_km=735.0)
        assert_allclose(
            matter_survival_probability(params, v_c, e),
            oracles.expm_survival(dm2, s2t, 735.0, e, v_c=v_c),
            atol=1e-10,
        )


def test_identity_terms_never_move_probabilities():
    # Identity shifts are pure global phase. Keep them at potential scale:
    # a GeV-sized term means 1e21 radians and expm returns garbage.
    base = oracles.expm_survival(2.5e-3, 0.95, 735.0, 2.25)
    for identity_ev in (1.0e-13, 4.0e-12, -3.0e-12):
        shifted = oracles.expm_survival(
            2.5e-3, 0.95, 735.0, 2.25, identity_ev=identity_ev
        )
        assert_allclose(shifted, base, atol=1e-9)


def test_params_validation():
    with pytest.raises(DomainError):
        OscParams(dm2=2.5e-3, sin2_2theta=1.5, baseline_km=735.0)
    with pytest.raises(DomainError):
        OscParams(dm2=2.5e-3, sin2_2theta=0.95, baseline_km=0.0)
    with pytest.raises(DomainError):
        OscParams(dm2=2.5e-3, sin2_2theta=0.95, baseline_km=735.0, v_c=-1.0)
    with pytest.raises(DomainError):
        OscParams(dm2=math.inf, sin2_2theta=0.95, baseline_km=735.0)


@pytest.mark.parametrize("name", ["v_c", "v_n"])
@pytest.mark.parametrize("value", [1e-13, -1e-13, math.inf, math.nan])
def test_params_reject_matter_potentials(name, value):
    # Every analysis runs in vacuum: a potential would be silently ignored.
    message = f"{name} must be 0 (analyses run in vacuum), got {value!r}"
    with pytest.raises(DomainError) as err:
        OscParams(dm2=2.5e-3, sin2_2theta=0.95, baseline_km=735.0, **{name: value})
    assert str(err.value) == message
    assert OscParams(2.5e-3, 0.95, 735.0, **{name: 0.0}) == OscParams(2.5e-3, 0.95, 735.0)
