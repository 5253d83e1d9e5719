"""Phase attachment and sum-rule tuple selection, checked against brute force."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nulgi.errors import DataError, DomainError
from nulgi.leggett_garg import KKind
from nulgi.oscillation import OscParams, accumulated_phase
from nulgi.selection import (
    MeasuredPoint,
    PhaseTuple,
    attach_phases,
    evaluate_tuple,
    select_ntuples,
)

import oracles

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)

# kappa * dm2 * baseline: psi = PHASE_SCALE / E for these parameters.
PHASE_SCALE = accumulated_phase(PARAMS, 1.0)


def points_with_phases(phases, p_mumu=0.5, sigma=0.02):
    """Dataset whose attached phases reproduce the given values (to 1 ulp)."""
    return [
        MeasuredPoint(energy_gev=PHASE_SCALE / psi, p_mumu=p_mumu, sigma_stat=sigma)
        for psi in phases
    ]


def decorated(phases, **kw):
    return attach_phases(points_with_phases(phases, **kw), PARAMS)


def test_attach_phases_sorts_and_fills():
    pts = [
        MeasuredPoint(5.0, 0.6, 0.02),
        MeasuredPoint(1.0, 0.4, 0.02),
        MeasuredPoint(2.0, 0.5, 0.02),
    ]
    dec = attach_phases(pts, PARAMS)
    assert [p.energy_gev for p in dec] == [1.0, 2.0, 5.0]
    for p in dec:
        assert_allclose(p.psi, accumulated_phase(PARAMS, p.energy_gev), rtol=1e-15)
    # Pure: the inputs keep their None phases.
    assert all(p.psi is None for p in pts)


def test_attach_phases_frozen_example():
    dec = attach_phases(
        [MeasuredPoint(2.94, 0.5, 0.02)],
        OscParams(dm2=2.5e-3, sin2_2theta=0.95, baseline_km=735.0),
    )
    assert_allclose(dec[0].psi, 0.7918329243994369, rtol=1e-12)
    assert dec[0].psi == pytest.approx(0.7918, abs=5e-5)


def test_attach_phases_rejects_duplicates_and_empty():
    with pytest.raises(DataError):
        attach_phases(
            [MeasuredPoint(2.0, 0.5, 0.02), MeasuredPoint(2.0, 0.6, 0.02)], PARAMS
        )
    with pytest.raises(DataError):
        attach_phases([], PARAMS)


def test_zero_splitting_yields_no_tuples():
    flat = OscParams(dm2=0.0, sin2_2theta=0.95, baseline_km=735.0)
    dec = attach_phases(
        [MeasuredPoint(e, 0.5, 0.02) for e in (1.0, 2.0, 3.0, 4.0)], flat
    )
    assert all(p.psi == 0.0 for p in dec)
    assert select_ntuples(dec, 3, 0.005) == []


def test_exact_sum_triple_found():
    dec = decorated([0.5, 0.7, 1.2])
    found = select_ntuples(dec, 3, 0.005)
    assert len(found) == 1
    (t,) = found
    # Dataset is energy-ascending, so phases run 1.2, 0.7, 0.5.
    assert t.indices == (1, 2)
    assert t.target_index == 0
    assert t.n == 3
    assert abs(t.mismatch) < 1e-12


def test_offset_sum_finds_nothing():
    dec = decorated([0.5, 0.7, 1.3])
    assert select_ntuples(dec, 3, 0.005) == []


def test_exact_sum_quadruples_include_repeated_components():
    # 0.5 + 0.4 + 0.3 = 1.2 and 0.4 + 0.4 + 0.4 = 1.2: with repetition
    # allowed the order-4 search legitimately returns both multisets.
    dec = decorated([0.3, 0.4, 0.5, 1.2])
    found = select_ntuples(dec, 4, 0.005)
    assert len(found) == 2
    multisets = {t.indices for t in found}
    # Phase order in the dataset is 1.2, 0.5, 0.4, 0.3.
    assert multisets == {(1, 2, 3), (2, 2, 2)}
    assert all(t.target_index == 0 for t in found)
    assert all(abs(t.mismatch) < 1e-12 for t in found)


def test_unique_exact_quadruple():
    dec = decorated([0.3, 0.45, 0.5, 1.25])
    found = select_ntuples(dec, 4, 0.005)
    assert len(found) == 1
    assert found[0].indices == (1, 2, 3)
    assert found[0].target_index == 0


def test_selection_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for trial in range(60):
        size = int(rng.integers(3, 16))
        phases = np.sort(rng.uniform(0.05, 4.0, size=size))[::-1]
        dec = decorated(list(phases))
        psis = [p.psi for p in dec]
        n = 3 if trial % 2 else 4
        if size < n:
            continue
        mode = "relative" if trial % 3 else "absolute"
        tol = float(rng.choice([0.002, 0.01, 0.05]))
        got = select_ntuples(dec, n, tol, mode)
        want = oracles.brute_force_ntuples(psis, n, tol, mode)
        assert {(t.indices, t.target_index) for t in got} == {
            (c, t) for c, t, _ in want
        }
        by_key = {(c, t): m for c, t, m in want}
        for t in got:
            assert_allclose(t.mismatch, by_key[(t.indices, t.target_index)], atol=1e-15)


def test_tolerance_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        phases = rng.uniform(0.1, 4.0, size=14)
        dec = decorated(list(phases))
        keys = []
        for tol in (0.0005, 0.005, 0.01):
            found = select_ntuples(dec, 3, tol)
            keys.append({(t.indices, t.target_index) for t in found})
        assert keys[0] <= keys[1] <= keys[2]


def test_selection_is_deterministic_and_order_insensitive():
    rng = np.random.default_rng(10)
    phases = list(rng.uniform(0.1, 4.0, size=12))
    pts = points_with_phases(phases)
    first = select_ntuples(attach_phases(pts, PARAMS), 3, 0.01)
    again = select_ntuples(attach_phases(pts, PARAMS), 3, 0.01)
    shuffled = select_ntuples(attach_phases(pts[::-1], PARAMS), 3, 0.01)
    assert first == again == shuffled
    # Canonical output order: ascending target phase.
    target_psis = [attach_phases(pts, PARAMS)[t.target_index].psi for t in first]
    assert target_psis == sorted(target_psis)


def test_component_indices_run_descending_in_phase():
    rng = np.random.default_rng(12)
    dec = decorated(list(rng.uniform(0.1, 4.0, size=12)))
    for t in select_ntuples(dec, 4, 0.05):
        comp_psis = [dec[i].psi for i in t.indices]
        assert comp_psis == sorted(comp_psis, reverse=True)


@given(
    phases=st.lists(
        st.floats(0.05, 4.0), min_size=4, max_size=10, unique=True
    ),
    tol=st.floats(1e-4, 0.05),
)
@settings(max_examples=150, deadline=None)
def test_returned_mismatch_always_within_tolerance(phases, tol):
    # Phases closer than this map to one energy, which attach_phases rightly
    # rejects as a duplicate: such a draw is not a valid spectrum.
    assume(min(b / a for a, b in itertools.pairwise(sorted(phases))) > 1 + 1e-9)
    dec = decorated(phases)
    for t in select_ntuples(dec, 3, tol):
        assert abs(t.mismatch) <= tol
        total = sum(dec[i].psi for i in t.indices)
        target = dec[t.target_index].psi
        assert_allclose(t.mismatch, (total - target) / target, atol=1e-12)


def test_selection_validation():
    dec = decorated([0.5, 0.7, 1.2, 1.9])
    with pytest.raises(DomainError):
        select_ntuples(dec, 2, 0.005)
    with pytest.raises(DomainError):
        select_ntuples(dec, 3, 0.0)
    with pytest.raises(DomainError):
        select_ntuples(dec, 3, 0.005, "fuzzy")
    with pytest.raises(DataError):
        select_ntuples(dec[:2], 3, 0.005)
    with pytest.raises(DataError):
        select_ntuples(points_with_phases([0.5, 0.7, 1.2]), 3, 0.005)
    with pytest.raises(DomainError):
        PhaseTuple(indices=(0, 1), target_index=2, n=4, mismatch=0.0)


def test_evaluate_tuple_hand_values():
    dec = decorated([0.5, 0.7, 1.2], p_mumu=0.75)
    dec = [dataclasses.replace(p, p_mumu=v) for p, v in zip(dec, (0.25, 0.75, 0.75))]
    t = PhaseTuple(indices=(1, 2), target_index=0, n=3, mismatch=0.0)
    kv = evaluate_tuple(t, dec)
    assert kv.value == pytest.approx(1.5, abs=1e-15)
    assert kv.kind is KKind.QUANTUM_FROM_DATA
    assert kv.phases == (dec[1].psi, dec[2].psi)

    flat = [dataclasses.replace(p, p_mumu=0.9) for p in dec]
    assert evaluate_tuple(t, flat).value == pytest.approx(0.8, abs=1e-15)
    ones = [dataclasses.replace(p, p_mumu=1.0) for p in dec]
    assert evaluate_tuple(t, ones).value == pytest.approx(1.0, abs=1e-15)


def test_evaluate_tuple_propagates_quadrature():
    dec = decorated([0.5, 0.7, 1.2])
    dec = [
        dataclasses.replace(p, sigma_stat=s) for p, s in zip(dec, (0.3, 0.1, 0.2))
    ]
    t = PhaseTuple(indices=(1, 2), target_index=0, n=3, mismatch=0.0)
    kv = evaluate_tuple(t, dec)
    assert_allclose(kv.uncertainty, 2.0 * math.sqrt(0.01 + 0.04 + 0.09), rtol=1e-15)


def test_evaluate_tuple_uses_total_sigma():
    dec = decorated([0.5, 0.7, 1.2])
    dec = [dataclasses.replace(p, sigma_stat=0.3, sigma_sys=0.4) for p in dec]
    t = PhaseTuple(indices=(1, 2), target_index=0, n=3, mismatch=0.0)
    kv = evaluate_tuple(t, dec)
    assert_allclose(kv.uncertainty, 2.0 * math.sqrt(3 * 0.25), rtol=1e-15)


def test_evaluate_tuple_rejects_bad_indices():
    dec = decorated([0.5, 0.7, 1.2])
    with pytest.raises(IndexError):
        evaluate_tuple(PhaseTuple(indices=(1, 5), target_index=0, n=3, mismatch=0.0), dec)
