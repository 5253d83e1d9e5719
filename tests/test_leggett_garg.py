"""The K_n bounds, the scalar K forms of tests/oracles.py, and the Bloch oracle.

The package keeps only lgi_bound and quantum_bound; the scalar K forms
are the oracles' reference for pipeline.tuple_table (see
test_tuple_table.py), so these tests pin them to hand values and bounds.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import nulgi
from nulgi.errors import DomainError
from nulgi.leggett_garg import lgi_bound, quantum_bound
from nulgi.oscillation import OscParams, survival_probability
from nulgi import dataio, pipeline
from nulgi.pipeline import tuple_table
from nulgi.selection import Spectrum, TupleSet

import oracles
from oracles import (
    correlation,
    k_n_classical,
    k_n_from_correlations,
    k_n_quantum_from_survival,
)


def test_bound_values():
    assert lgi_bound(3) == 1.0
    assert lgi_bound(4) == 2.0
    assert lgi_bound(10) == 8.0
    assert quantum_bound(3) == pytest.approx(1.5, abs=1e-12)
    assert quantum_bound(4) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    for n in range(3, 13):
        assert quantum_bound(n) > lgi_bound(n)


def test_bounds_reject_bad_order():
    for bad in (2, 0, -1, 3.0, "3"):
        with pytest.raises(DomainError):
            lgi_bound(bad)
        with pytest.raises(DomainError):
            quantum_bound(bad)


def test_correlation_bloch_degenerate_pairs():
    # No evolution leaves sigma_z on +z; half a period at full mixing
    # flips it to -z.
    assert oracles.bloch_evolved_z(0.7, 0.0) == (0.0, 0.0, 1.0)
    assert_allclose(oracles.bloch_evolved_z(1.0, math.pi / 2), (0.0, 0.0, -1.0), atol=1e-15)


def test_bloch_evolution_reproduces_survival_correlation():
    # Evolving sigma_z through psi and projecting back on z must match the
    # two-time correlation 2 P - 1 of the package's survival probability;
    # the evolved vector comes from an explicit 2x2 unitary.
    rng = np.random.default_rng(2)
    for _ in range(200):
        s2t = float(rng.uniform(0.0, 1.0))
        psi = float(rng.uniform(0.0, 2.0 * math.pi))
        evolved = oracles.bloch_evolved_z(s2t, psi)
        assert_allclose(math.fsum(c * c for c in evolved), 1.0, atol=1e-12)
        assert_allclose(
            evolved[2], 2.0 * float(survival_probability(s2t, psi)) - 1.0, atol=1e-12
        )


def test_k3_from_correlations_hand_value():
    k = k_n_from_correlations([0.5, 0.5], -0.5)
    assert k == pytest.approx(1.5, abs=1e-15)
    assert k == pytest.approx(quantum_bound(3), abs=1e-12)


def test_k_from_correlations_saturates_classical_bound():
    for n in (3, 4, 5):
        assert k_n_from_correlations([1.0] * (n - 1), 1.0) == lgi_bound(n)
    assert k_n_from_correlations([0.0, 0.0], 0.0) == 0.0


def test_k3_from_survival_hand_values():
    assert k_n_quantum_from_survival([0.75, 0.75], 0.25) == pytest.approx(1.5, abs=1e-15)
    assert k_n_quantum_from_survival([1.0, 1.0], 1.0) == pytest.approx(1.0)
    assert k_n_quantum_from_survival([1.0] * 3, 1.0) == pytest.approx(2.0)
    assert k_n_quantum_from_survival([0.9, 0.9], 0.9) == pytest.approx(0.8, abs=1e-15)
    assert oracles.k_n_uncertainty([0.3, 0.1], 0.2) == pytest.approx(
        2.0 * math.sqrt(0.14), abs=1e-15
    )


def test_survival_and_correlation_paths_agree_in_bulk():
    # 1e5 random probability vectors through both constructions.
    rng = np.random.default_rng(3)
    for n in (3, 4):
        probs = rng.uniform(0.0, 1.0, size=(100_000 // 2, n - 1))
        prob_sum = rng.uniform(0.0, 1.0, size=probs.shape[0])
        via_probs = (2 - n) + 2.0 * probs.sum(axis=1) - 2.0 * prob_sum
        via_corrs = (2.0 * probs - 1.0).sum(axis=1) - (2.0 * prob_sum - 1.0)
        assert_allclose(via_probs, via_corrs, atol=1e-12)
        # Spot-check the vectorized arithmetic against the real API.
        for i in range(0, probs.shape[0], 10_000):
            k_p = k_n_quantum_from_survival(list(probs[i]), float(prob_sum[i]))
            k_c = k_n_from_correlations(
                list(2.0 * probs[i] - 1.0), float(2.0 * prob_sum[i] - 1.0)
            )
            assert_allclose(k_p, k_c, atol=1e-12)
            assert_allclose(k_p, via_probs[i], atol=1e-12)


@given(
    probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
    prob_sum=st.floats(0.0, 1.0),
)
@settings(max_examples=300)
def test_survival_correlation_equivalence_property(probs, prob_sum):
    k_p = k_n_quantum_from_survival(probs, prob_sum)
    k_c = k_n_from_correlations([2.0 * p - 1.0 for p in probs], 2.0 * prob_sum - 1.0)
    assert_allclose(k_p, k_c, atol=1e-12)


def test_classical_k_hand_values():
    assert k_n_classical([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)
    for n in (3, 4, 5):
        assert k_n_classical([1.0] * (n - 1)) == lgi_bound(n)


def test_classical_bound_on_exhaustive_grid():
    # Product-rule values on the full grid C in {-1, -0.9, ..., 1}^(n-1).
    grid = np.round(np.arange(-10, 11) / 10.0, 10)
    for n in (3, 4, 5):
        mesh = np.meshgrid(*([grid] * (n - 1)), indexing="ij")
        stacked = np.stack([m.ravel() for m in mesh], axis=1)
        values = stacked.sum(axis=1) - stacked.prod(axis=1)
        assert values.max() <= lgi_bound(n)
        worst = stacked[np.argmax(values)]
        assert k_n_classical(list(worst)) <= lgi_bound(n)


def test_classical_bound_on_random_draws():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        corrs = rng.uniform(-1.0, 1.0, size=(200_000, n - 1))
        values = corrs.sum(axis=1) - corrs.prod(axis=1)
        assert values.max() <= lgi_bound(n)


def test_quantum_ceiling_over_random_scan():
    # Survival-built K values never exceed n cos(pi/n); one million draws
    # per order, batched by amplitude so the package survival code is used.
    rng = np.random.default_rng(5)
    for n in (3, 4):
        top = -math.inf
        for _ in range(1000):
            s2t = float(rng.uniform(0.0, 1.0))
            psis = rng.uniform(0.0, math.pi, size=(1000, n - 1))
            probs = np.asarray(survival_probability(s2t, psis))
            prob_sum = np.asarray(survival_probability(s2t, psis.sum(axis=1)))
            values = (2 - n) + 2.0 * probs.sum(axis=1) - 2.0 * prob_sum
            top = max(top, float(values.max()))
        assert top <= quantum_bound(n) + 1e-9
        if n == 3:
            # Low enough dimension that random draws also land near the
            # ceiling; for n = 4 the attainment check lives in the grid scan.
            assert top > quantum_bound(3) - 0.05


def test_zero_mixing_forces_classical_saturation():
    for n in (3, 4, 5):
        psis = np.linspace(0.3, 1.2, n - 1)
        probs = [float(survival_probability(0.0, p)) for p in psis]
        prob_sum = float(survival_probability(0.0, psis.sum()))
        assert k_n_quantum_from_survival(probs, prob_sum) == lgi_bound(n)


def test_quantum_and_classical_agree_at_commuting_phases():
    # With full mixing and phases on the pi/2 grid every correlation is +-1,
    # the product rule reproduces the end-to-end correlation, and the two
    # constructions coincide.
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(3, 6))
        psis = rng.integers(0, 8, size=n - 1) * (math.pi / 2.0)
        corrs = [float(correlation(1.0, p)) for p in psis]
        corr_end = float(correlation(1.0, float(psis.sum())))
        quantum = k_n_from_correlations(corrs, corr_end)
        classical = k_n_classical([float(round(c)) for c in corrs])
        assert_allclose(quantum, classical, atol=1e-9)


def table_with_classical_k(n, excess):
    """tuple_table's k_classical_data column on one hand-built order-n tuple
    with classical K n - 2 + excess.

    The components sit at C = (1 + excess, 1, ..., 1, 0). tuple_table reads
    only the psi, p_mumu and sigma columns of a spectrum, so a stand-in for
    a Spectrum may carry P above 1, which validated data never does. The
    column is computed, and its bound checked, when it is read.
    """
    probs = [1.0 + excess / 2.0] + [1.0] * (n - 3) + [0.5, 0.5]
    points = SimpleNamespace(psi=np.ones(n), p_mumu=np.array(probs), sigma=np.zeros(n))
    tuples = TupleSet(
        n=n, size=n, comp_idx=[list(range(n - 1))], target_idx=[n - 1], mismatch=[0.0]
    )
    table = tuple_table(tuples, points, OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0))
    return table["k_classical_data"]


def test_classical_kvalue_rejects_values_above_its_bound():
    for n in (3, 4, 6):
        # The check keeps a 1e-9 slack for rounding at the bound.
        assert n - 2 < table_with_classical_k(n, 5e-10)[0] <= n - 2 + 1e-9
        with pytest.raises(DomainError, match="above its bound"):
            table_with_classical_k(n, 1e-6)
    # The measured K may exceed it: that is what a violation is.
    points = Spectrum([1.0, 2.0, 3.0], [0.75, 0.75, 0.25], 0.0, psi=[1.0, 1.0, 1.0])
    tuples = TupleSet(n=3, size=3, comp_idx=[[0, 1]], target_idx=[2], mismatch=[0.0])
    table = tuple_table(tuples, points, OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0))
    assert table["k_value"][0] == 1.5 and table["violation"][0]


def analyze_two_tuples(monkeypatch, points):
    """analyze_dataset at order 3 on two hand-built tuples of four points,
    in chunks of one row: components (0, 1) and (2, 0), target 3."""
    tuples = TupleSet(n=3, size=4, comp_idx=[[0, 1], [2, 0]], target_idx=[3, 3], mismatch=[0.0, 0.0])
    monkeypatch.setattr(pipeline, "attach_phases", lambda spectrum, params: points)
    monkeypatch.setattr(pipeline, "select_ntuples", lambda *args: tuples)
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 1)
    config = pipeline.RunConfig(
        params=OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0), order=3
    )
    return pipeline.analyze_dataset(points, config)[0]


def test_analysis_raises_on_a_classical_k_above_its_bound(monkeypatch):
    # A stand-in spectrum puts the second chunk's classical K at 1 + 1e-6:
    # the analysis must stop, not skip the chi-square and go on with the
    # first chunk's count.
    points = SimpleNamespace(
        psi=np.ones(4), p_mumu=np.array([0.5, 0.5, 1.0 + 5e-7, 0.5]), sigma=np.full(4, 0.1)
    )
    with pytest.raises(DomainError, match="above its bound"):
        analyze_two_tuples(monkeypatch, points)
    # A fault of the chi-square itself, a zero uncertainty, only skips it.
    points = Spectrum([1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 1.0, 0.5], 0.0, psi=np.ones(4))
    report = analyze_two_tuples(monkeypatch, points)
    assert report.status == "ok" and report.chi2_quantum is None
    assert report.n_violations_observed == 0
    assert "chi-square skipped: every K value needs a positive uncertainty" in report.warnings


def test_classical_bound_check_survives_optimized_mode():
    # python -O strips assert statements; the bound check must not be one.
    code = (
        "import sys\n"
        "from types import SimpleNamespace\n"
        "import numpy as np\n"
        "from nulgi.errors import DomainError\n"
        "from nulgi.oscillation import OscParams\n"
        "from nulgi.pipeline import tuple_table\n"
        "from nulgi.selection import TupleSet\n"
        + inspect.getsource(table_with_classical_k) +
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    table_with_classical_k(4, 0.5)\n"
        "except DomainError:\n"
        "    sys.exit(0)\n"
        "sys.exit('over-bound classical K accepted')\n"
    )
    src = str(Path(nulgi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
