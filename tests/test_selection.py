"""Phase attachment and sum-rule tuple selection, checked against brute force."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nulgi import selection
from nulgi.errors import DataError, DomainError
from nulgi.oscillation import OscParams, accumulated_phase
from nulgi.pipeline import tuple_table
from nulgi.selection import (
    PhaseTuple,
    Spectrum,
    TupleSet,
    attach_phases,
    select_ntuples,
)
from nulgi.synthetic import generate_synthetic

import oracles
from table_columns import whole_column

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)

# kappa * dm2 * baseline: psi = PHASE_SCALE / E for these parameters.
PHASE_SCALE = accumulated_phase(PARAMS, 1.0)


def points_with_phases(phases, p_mumu=0.5, sigma=0.02):
    """Dataset whose attached phases reproduce the given values (to 1 ulp)."""
    return Spectrum(
        energy_gev=PHASE_SCALE / np.asarray(phases, dtype=float), p_mumu=p_mumu,
        sigma_stat=sigma,
    )


def decorated(phases, **kw):
    return attach_phases(points_with_phases(phases, **kw), PARAMS)


def rows(ts):
    """(component indices, target index, mismatch) per tuple, read from the columns."""
    return list(zip(
        map(tuple, ts.comp_idx.tolist()), ts.target_idx.tolist(), ts.mismatch.tolist()
    ))


def test_attach_phases_sorts_and_fills():
    pts = Spectrum([5.0, 1.0, 2.0], [0.6, 0.4, 0.5], [0.02, 0.03, 0.04])
    # The spectrum holds its rows in ascending energy from construction on.
    assert pts.energy_gev.tolist() == [1.0, 2.0, 5.0]
    assert pts.p_mumu.tolist() == [0.4, 0.5, 0.6]
    assert pts.sigma_stat.tolist() == [0.03, 0.04, 0.02]
    dec = attach_phases(pts, PARAMS)
    assert dec.energy_gev.tolist() == [1.0, 2.0, 5.0]
    assert dec.psi.tolist() == [accumulated_phase(PARAMS, e) for e in (1.0, 2.0, 5.0)]
    # Pure: the input keeps its None phases.
    assert pts.psi is None
    with pytest.raises(ValueError):
        dec.psi[0] = 0.0


def test_sigma_is_math_hypot_bit_for_bit():
    # np.hypot differs from math.hypot in the last bit on about 0.5% of
    # random pairs; sigma must keep math.hypot's bits.
    stat, sys = np.random.default_rng(0).uniform(0.0, 1.0, size=(2, 100_000))
    want = list(map(math.hypot, stat.tolist(), sys.tolist()))
    differs = np.hypot(stat, sys) != want
    assert differs.sum() > 100
    stat, sys = stat[differs], sys[differs]
    spectrum = Spectrum(1.0 + np.arange(stat.size), 0.5, stat, sys)
    assert spectrum.sigma.tolist() == np.array(want)[differs].tolist()


def test_attach_phases_frozen_example():
    dec = attach_phases(
        Spectrum([2.94], [0.5], [0.02]),
        OscParams(dm2=2.5e-3, sin2_2theta=0.95, baseline_km=735.0),
    )
    assert_allclose(dec.psi[0], 0.7918329243994369, rtol=1e-12)
    assert dec.psi[0] == pytest.approx(0.7918, abs=5e-5)


def test_spectrum_rejects_duplicates_and_selection_an_empty_one():
    with pytest.raises(DataError, match=r"^duplicate energy value 2\.0 GeV$"):
        Spectrum([2.0, 2.0], [0.5, 0.6], [0.02, 0.02])
    empty = attach_phases(Spectrum([], [], []), PARAMS)
    assert len(empty) == 0 and empty.psi.shape == (0,)
    with pytest.raises(DataError, match="^need at least 3 points for order-3 tuples, got 0$"):
        select_ntuples(empty, 3, 0.005)


def test_building_a_spectrum_holds_little_beyond_its_columns():
    # 200 001 ascending bins, as generate_synthetic gives them: the checks
    # take one mask at a time and the columns are copied without a sort.
    # The five float64 columns kept are 40 bytes a bin; the masks, the
    # duplicate scan and the argsort gathers took 71 in all.
    bins = 200_001
    energy = np.geomspace(0.5, 50.0, bins)
    p_mumu, sigma = np.full(bins, 0.5), np.full(bins, 0.05)
    tracemalloc.start()
    try:
        points = Spectrum(energy, p_mumu, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / bins < 48, peak / bins
    # The columns are copies: the caller's arrays stay its own.
    energy[0] = 7.0
    assert points.energy_gev[0] == 0.5 and not np.shares_memory(points.p_mumu, p_mumu)


def test_zero_splitting_yields_no_tuples():
    flat = OscParams(dm2=0.0, sin2_2theta=0.95, baseline_km=735.0)
    dec = attach_phases(Spectrum([1.0, 2.0, 3.0, 4.0], 0.5, 0.02), flat)
    assert (dec.psi == 0.0).all()
    assert len(select_ntuples(dec, 3, 0.005)) == 0


def test_exact_sum_triple_found():
    dec = decorated([0.5, 0.7, 1.2])
    found = select_ntuples(dec, 3, 0.005)
    assert len(found) == 1
    ((indices, target, mismatch),) = rows(found)
    # Dataset is energy-ascending, so phases run 1.2, 0.7, 0.5.
    assert indices == (1, 2)
    assert target == 0
    assert found.n == 3
    assert abs(mismatch) < 1e-12


def test_offset_sum_finds_nothing():
    dec = decorated([0.5, 0.7, 1.3])
    assert len(select_ntuples(dec, 3, 0.005)) == 0


def test_exact_sum_quadruples_include_repeated_components():
    # 0.5 + 0.4 + 0.3 = 1.2 and 0.4 + 0.4 + 0.4 = 1.2: with repetition
    # allowed the order-4 search legitimately returns both multisets.
    dec = decorated([0.3, 0.4, 0.5, 1.2])
    found = select_ntuples(dec, 4, 0.005)
    assert len(found) == 2
    multisets = {c for c, _, _ in rows(found)}
    # Phase order in the dataset is 1.2, 0.5, 0.4, 0.3.
    assert multisets == {(1, 2, 3), (2, 2, 2)}
    assert all(t == 0 for _, t, _ in rows(found))
    assert all(abs(m) < 1e-12 for _, _, m in rows(found))


def test_unique_exact_quadruple():
    dec = decorated([0.3, 0.45, 0.5, 1.25])
    found = select_ntuples(dec, 4, 0.005)
    assert len(found) == 1
    assert rows(found)[0][:2] == ((1, 2, 3), 0)


def test_selection_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for trial in range(60):
        size = int(rng.integers(3, 16))
        phases = np.sort(rng.uniform(0.05, 4.0, size=size))[::-1]
        dec = decorated(list(phases))
        psis = dec.psi.tolist()
        n = 3 if trial % 2 else 4
        if size < n:
            continue
        tol = float(rng.choice([0.002, 0.01, 0.05]))
        got = select_ntuples(dec, n, tol)
        want = oracles.brute_force_ntuples(psis, n, tol)
        assert {(c, t) for c, t, _ in rows(got)} == {(c, t) for c, t, _ in want}
        by_key = {(c, t): m for c, t, m in want}
        for c, t, m in rows(got):
            assert_allclose(m, by_key[(c, t)], atol=1e-15)


def test_tolerance_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        phases = rng.uniform(0.1, 4.0, size=14)
        dec = decorated(list(phases))
        keys = []
        for tol in (0.0005, 0.005, 0.01):
            found = select_ntuples(dec, 3, tol)
            keys.append({(c, t) for c, t, _ in rows(found)})
        assert keys[0] <= keys[1] <= keys[2]


def test_selection_is_deterministic_and_order_insensitive():
    rng = np.random.default_rng(10)
    phases = list(rng.uniform(0.1, 4.0, size=12))
    pts = points_with_phases(phases)
    first = select_ntuples(attach_phases(pts, PARAMS), 3, 0.01)
    again = select_ntuples(attach_phases(pts, PARAMS), 3, 0.01)
    reversed_pts = Spectrum(pts.energy_gev[::-1], pts.p_mumu[::-1], pts.sigma_stat[::-1])
    shuffled = select_ntuples(attach_phases(reversed_pts, PARAMS), 3, 0.01)
    assert first == again == shuffled
    # Canonical output order: ascending target phase.
    target_psis = attach_phases(pts, PARAMS).psi[first.target_idx].tolist()
    assert target_psis == sorted(target_psis)


def test_component_indices_run_descending_in_phase():
    rng = np.random.default_rng(12)
    dec = decorated(list(rng.uniform(0.1, 4.0, size=12)))
    for indices in select_ntuples(dec, 4, 0.05).comp_idx.tolist():
        comp_psis = dec.psi[indices].tolist()
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
    for indices, target_index, mismatch in rows(select_ntuples(dec, 3, tol)):
        assert abs(mismatch) <= tol
        total = sum(dec.psi[list(indices)].tolist())
        target = dec.psi[target_index]
        assert_allclose(mismatch, (total - target) / target, atol=1e-12)


def test_selection_validation():
    dec = decorated([0.5, 0.7, 1.2, 1.9])
    with pytest.raises(DomainError):
        select_ntuples(dec, 2, 0.005)
    with pytest.raises(DomainError):
        select_ntuples(dec, 3, 0.0)
    with pytest.raises(DataError):
        select_ntuples(decorated([0.5, 0.7]), 3, 0.005)
    with pytest.raises(DataError):
        select_ntuples(points_with_phases([0.5, 0.7, 1.2]), 3, 0.005)
    with pytest.raises(DomainError):
        TupleSet(n=4, size=4, comp_idx=[(0, 1)], target_idx=[2], mismatch=[0.0])


def one_triple(size=3):
    return TupleSet(n=3, size=size, comp_idx=[[1, 2]], target_idx=[0], mismatch=[0.0])


def test_evaluate_tuple_hand_values():
    dec = decorated([0.5, 0.7, 1.2], p_mumu=0.75)
    dec = dataclasses.replace(dec, p_mumu=[0.25, 0.75, 0.75])
    table = tuple_table(one_triple(), dec, PARAMS)
    assert whole_column(table, "k_value")[0] == pytest.approx(1.5, abs=1e-15)
    assert whole_column(table, "component_indices")[0].tolist() == [1, 2]
    assert whole_column(table, "phase_sum")[0] == dec.psi[1] + dec.psi[2]

    flat = dataclasses.replace(dec, p_mumu=0.9)
    assert whole_column(tuple_table(one_triple(), flat, PARAMS), "k_value")[0] == pytest.approx(
        0.8, abs=1e-15
    )
    ones = dataclasses.replace(dec, p_mumu=1.0)
    assert whole_column(tuple_table(one_triple(), ones, PARAMS), "k_value")[0] == pytest.approx(
        1.0, abs=1e-15
    )


def test_evaluate_tuple_propagates_quadrature():
    dec = decorated([0.5, 0.7, 1.2])
    dec = dataclasses.replace(dec, sigma_stat=[0.3, 0.1, 0.2])
    table = tuple_table(one_triple(), dec, PARAMS)
    assert_allclose(
        whole_column(table, "k_sigma")[0], 2.0 * math.sqrt(0.01 + 0.04 + 0.09), rtol=1e-15
    )


def test_evaluate_tuple_uses_total_sigma():
    dec = decorated([0.5, 0.7, 1.2])
    dec = dataclasses.replace(dec, sigma_stat=0.3, sigma_sys=0.4)
    table = tuple_table(one_triple(), dec, PARAMS)
    assert_allclose(whole_column(table, "k_sigma")[0], 2.0 * math.sqrt(3 * 0.25), rtol=1e-15)


def test_evaluate_tuple_rejects_bad_indices():
    with pytest.raises(IndexError):
        TupleSet(n=3, size=3, comp_idx=[[1, 5]], target_idx=[0], mismatch=[0.0])


def test_tuple_set_rejects_negative_indices_and_bad_shapes():
    with pytest.raises(IndexError):
        TupleSet(n=3, size=3, comp_idx=[[1, 2]], target_idx=[-1], mismatch=[0.0])
    with pytest.raises(IndexError):
        TupleSet(n=3, size=3, comp_idx=[[-3, 2]], target_idx=[0], mismatch=[0.0])
    with pytest.raises(DomainError):
        TupleSet(n=4, size=3, comp_idx=[[1, 2]], target_idx=[0], mismatch=[0.0])
    with pytest.raises(DomainError):
        TupleSet(n=3, size=3, comp_idx=[[1, 2]], target_idx=[0, 1], mismatch=[0.0])
    empty = TupleSet(n=4, size=3, comp_idx=[], target_idx=[], mismatch=[])
    assert len(empty) == 0 and empty.comp_idx.shape == (0, 3)


def test_tuple_set_indices_are_int32_checked_before_they_are_narrowed():
    ts = TupleSet(n=4, size=5, comp_idx=np.array([[4, 3, 3]]), target_idx=[0], mismatch=[0.1])
    assert ts.comp_idx.dtype == ts.target_idx.dtype == np.int32
    assert ts.comp_idx.tolist() == [[4, 3, 3]] and ts.target_idx.tolist() == [0]
    found = select_ntuples(decorated([0.3, 0.4, 0.5, 1.2]), 4, 0.005)
    assert found.comp_idx.dtype == found.target_idx.dtype == np.int32
    # An int64 index that int32 would wrap into range is refused, not wrapped.
    with pytest.raises(IndexError):
        TupleSet(n=3, size=5, comp_idx=np.array([[2**32 + 1, 2]]), target_idx=[0],
                 mismatch=[0.0])


@pytest.mark.parametrize("size", [2**31, 2**40])
def test_a_tuple_set_of_2_31_points_or_more_is_refused_before_allocating(size):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"fewer than {2**31} points, got {size}"):
            TupleSet(n=3, size=size, comp_idx=[[0, 1]], target_idx=[2], mismatch=[0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak
    assert len(TupleSet(n=3, size=2**31 - 1, comp_idx=[], target_idx=[], mismatch=[])) == 0


def test_tuple_set_rows_are_phase_tuples():
    # The analysis reads the columns; perfbench/tracing.py reads tuples[0].n.
    ts = select_ntuples(decorated([0.3, 0.4, 0.5, 1.2]), 4, 0.005)
    assert len(ts) == 2 and ts[0].n == 4
    assert list(ts) == [ts[0], ts[1]]
    assert all(isinstance(t, PhaseTuple) for t in ts)
    assert [t.indices for t in ts] == [tuple(row) for row in ts.comp_idx.tolist()]
    with pytest.raises(ValueError):
        ts.comp_idx[0, 0] = 0


def assert_matches_the_scan(dec, n, tol):
    """select_ntuples equals the neighbour-scan oracle exactly, in order."""
    got = select_ntuples(dec, n, tol)
    want = oracles.neighbour_scan_ntuples(dec.psi.tolist(), n, tol)
    assert rows(got) == want
    return got


GRID_CELLS = ((30, 3), (30, 4), (100, 3), (100, 4), (300, 3), (60, 5))


@pytest.mark.parametrize("bins, n", GRID_CELLS)
def test_selection_equals_the_neighbour_scan_on_the_grid(bins, n):
    points = generate_synthetic(PARAMS, "quantum", bins, 0.5, 50.0, 0.05, seed=0)
    got = assert_matches_the_scan(attach_phases(points, PARAMS), n, 0.005)
    assert len(got) > 0


def phase_points(phases):
    """Points carrying the given phases exactly (energies only order them)."""
    return Spectrum(
        energy_gev=1.0 + np.arange(len(phases)), p_mumu=0.5, sigma_stat=0.02, psi=phases
    )


def test_equidistant_neighbours_resolve_to_the_smaller_phase():
    # 0.75 + 0.75 = 1.5 sits 50% above 1 and 50% below 3.
    dec = phase_points([3.0, 1.0, 0.75, 0.5])
    got = assert_matches_the_scan(dec, 3, 0.6)
    assert (2, 2) in [c for c, _, _ in rows(got)]
    assert {c: t for c, t, _ in rows(got)}[(2, 2)] == 1


def test_equal_phases_from_distinct_energies():
    # Adjacent doubles E and nextafter(E) whose phases round to one value.
    for energy in np.geomspace(1.0, 40.0, 400):
        twin = float(np.nextafter(energy, np.inf))
        if accumulated_phase(PARAMS, energy) == accumulated_phase(PARAMS, twin):
            break
    else:
        pytest.fail("no energy pair with equal phases")
    psi = accumulated_phase(PARAMS, energy)
    others = [PHASE_SCALE / (psi * f) for f in (0.5, 0.3, 0.2, 0.7, 1.5)]
    dec = attach_phases(Spectrum([energy, twin, *others], 0.5, 0.02), PARAMS)
    assert len(set(dec.energy_gev.tolist())) == len(dec)
    assert len(set(dec.psi.tolist())) == len(dec) - 1
    for n in (3, 4):
        assert_matches_the_scan(dec, n, 0.01)


@pytest.mark.parametrize("block_rows", [1, 2, 7, 64, 4096])
def test_selection_does_not_depend_on_the_block_size(monkeypatch, block_rows):
    # 16 points: 16 to 136 rows per leading index, so the small sizes split
    # a leading index's rows, 64 spans leading indices, and 4096 holds the
    # whole scan at every order here (3876 multisets at order 5).
    points = generate_synthetic(PARAMS, "quantum", 16, 0.5, 50.0, 0.05, seed=3)
    dec = attach_phases(points, PARAMS)
    default = {n: select_ntuples(dec, n, 0.02) for n in (3, 4, 5)}
    assert all(len(found) > 0 for found in default.values())
    monkeypatch.setattr(selection, "SELECT_BLOCK_ROWS", block_rows)
    for n in (3, 4, 5):
        assert assert_matches_the_scan(dec, n, 0.02) == default[n]


def test_selection_memory_is_one_block_plus_the_output():
    points = generate_synthetic(PARAMS, "quantum", 60, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(points, PARAMS)
    tracemalloc.start()
    try:
        found = select_ntuples(dec, 5, 0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = found.comp_idx.nbytes + found.target_idx.nbytes + found.mismatch.nbytes
    # The table of (n-2)-multisets of 60 points (37 820 rows of 3 int32),
    # and one block of SELECT_BLOCK_ROWS candidates at about 200 bytes each.
    budget = 37_820 * 3 * 8 + selection.SELECT_BLOCK_ROWS * 200
    # The output exists twice at the end: in scan order and sorted.
    assert peak < 2 * output + budget, (peak, output, budget)
    # All 595 665 candidate rows of four indices at once would not fit.
    assert 595_665 * 4 * 8 > 2 * output + budget


def test_a_block_spans_leading_indices():
    # The 465 pairs of 30 points are one block, in lexicographic order.
    blocks = list(selection._multiset_blocks(30, 2))
    assert len(blocks) == 1
    assert blocks[0].tolist() == [
        list(pair) for pair in itertools.combinations_with_replacement(range(30), 2)
    ]
    # 171 700 triples of 100 points: 21 blocks, each full but the last.
    blocks = list(selection._multiset_blocks(100, 3))
    assert [len(b) for b in blocks] == [selection.SELECT_BLOCK_ROWS] * 20 + [7860]
    assert np.concatenate(blocks).tolist() == [
        list(triple) for triple in itertools.combinations_with_replacement(range(100), 3)
    ]


def test_selection_refuses_a_tuple_count_past_its_budget(monkeypatch):
    points = generate_synthetic(PARAMS, "quantum", 16, 0.5, 50.0, 0.05, seed=3)
    dec = attach_phases(points, PARAMS)
    found = select_ntuples(dec, 4, 0.02)
    assert len(found) > 1
    # A budget of exactly the count admits it; one tuple less refuses it.
    size = selection.tuple_bytes(4)
    monkeypatch.setattr(selection, "SELECT_BUDGET_BYTES", len(found) * size)
    assert select_ntuples(dec, 4, 0.02) == found
    budget = len(found) - 1
    monkeypatch.setattr(selection, "SELECT_BUDGET_BYTES", budget * size)
    # One block holds the whole scan, so the count reached is every tuple.
    message = (
        f"order-4 selection reached {len(found)} tuples, past its budget of {budget} "
        f"({budget * size} bytes at {size} a tuple); use a smaller tolerance or a lower order"
    )
    with pytest.raises(DomainError) as refused:
        select_ntuples(dec, 4, 0.02)
    assert str(refused.value) == message
    # With one multiset per block the scan stops at the first tuple past it.
    monkeypatch.setattr(selection, "SELECT_BLOCK_ROWS", 1)
    monkeypatch.setattr(selection, "SELECT_BUDGET_BYTES", 2 * size)
    with pytest.raises(DomainError, match="reached 3 tuples, past its budget of 2 "):
        select_ntuples(dec, 4, 0.02)


# The peak-RSS slopes, bytes a tuple, of whole analyses at each order
# (scripts/peak_rss.py; see selection.TUPLE_BYTES).
MEASURED_TUPLE_BYTES = {3: 79.8, 4: 68.8, 5: 80.6, 6: 103.0, 7: 102.8}


def test_the_tuple_budget_counts_an_orders_own_bytes(monkeypatch):
    for n, measured in MEASURED_TUPLE_BYTES.items():
        assert selection.tuple_bytes(n) >= 1.1 * measured
    points = attach_phases(generate_synthetic(PARAMS, "quantum", 16, 0.5, 50.0, 0.05, seed=3), PARAMS)
    selected = {n: select_ntuples(points, n, 0.02) for n in (3, 4, 5)}
    for n, found in selected.items():
        assert len(found) > 1
        # Exactly the count's bytes at this order admit it; a byte less does not.
        budget = len(found) * selection.tuple_bytes(n)
        monkeypatch.setattr(selection, "SELECT_BUDGET_BYTES", budget)
        assert select_ntuples(points, n, 0.02) == found
        monkeypatch.setattr(selection, "SELECT_BUDGET_BYTES", budget - 1)
        with pytest.raises(DomainError, match=f"at {selection.tuple_bytes(n)} a tuple"):
            select_ntuples(points, n, 0.02)
