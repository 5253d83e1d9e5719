"""Temporal-correlation combinations, their bounds, and the Bloch oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import nulgi
from nulgi.errors import DomainError
from nulgi.leggett_garg import (
    BlochObservable,
    KKind,
    KValue,
    correlation_bloch,
    k_n_classical,
    k_n_from_correlations,
    k_n_quantum_from_survival,
    lgi_bound,
    quantum_bound,
)
from nulgi.oscillation import correlation, survival_probability

import oracles

Z_HAT = BlochObservable((0.0, 0.0, 1.0))


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


def test_bloch_observable_requires_unit_vector():
    with pytest.raises(DomainError):
        BlochObservable((0.0, 0.0, 1.1))
    with pytest.raises(DomainError):
        BlochObservable((0.5, 0.5, 0.5))


def test_correlation_bloch_degenerate_pairs():
    assert correlation_bloch(Z_HAT, Z_HAT) == 1.0
    anti = BlochObservable((0.0, 0.0, -1.0))
    assert correlation_bloch(Z_HAT, anti) == -1.0


def test_bloch_evolution_reproduces_survival_correlation():
    # Evolving sigma_z through psi and projecting back on z must match the
    # closed-form two-time correlation; the evolved vector comes from an
    # explicit 2x2 unitary, not from the package.
    rng = np.random.default_rng(2)
    for _ in range(200):
        s2t = float(rng.uniform(0.0, 1.0))
        psi = float(rng.uniform(0.0, 2.0 * math.pi))
        evolved = BlochObservable(oracles.bloch_evolved_z(s2t, psi))
        assert_allclose(
            correlation_bloch(Z_HAT, evolved),
            float(correlation(s2t, psi)),
            atol=1e-12,
        )


def test_k3_from_correlations_hand_value():
    kv = k_n_from_correlations([0.5, 0.5], -0.5)
    assert kv.n == 3
    assert kv.value == pytest.approx(1.5, abs=1e-15)
    assert kv.value == pytest.approx(quantum_bound(3), abs=1e-12)


def test_k_from_correlations_saturates_classical_bound():
    for n in (3, 4, 5):
        kv = k_n_from_correlations([1.0] * (n - 1), 1.0)
        assert kv.value == lgi_bound(n)
    assert k_n_from_correlations([0.0, 0.0], 0.0).value == 0.0


def test_k_from_correlations_validation():
    with pytest.raises(DomainError):
        k_n_from_correlations([0.5], 0.5)
    with pytest.raises(DomainError):
        k_n_from_correlations([0.5, 1.5], 0.5)
    with pytest.raises(DomainError):
        k_n_from_correlations([0.5, 0.5], -2.0)


def test_k3_from_survival_hand_values():
    kv = k_n_quantum_from_survival([0.75, 0.75], 0.25)
    assert kv.value == pytest.approx(1.5, abs=1e-15)
    assert kv.kind is KKind.QUANTUM_FROM_DATA
    assert k_n_quantum_from_survival([1.0, 1.0], 1.0).value == pytest.approx(1.0)
    assert k_n_quantum_from_survival([1.0] * 3, 1.0).value == pytest.approx(2.0)
    assert k_n_quantum_from_survival([0.9, 0.9], 0.9).value == pytest.approx(
        0.8, abs=1e-15
    )


def test_k_from_survival_validation():
    with pytest.raises(DomainError):
        k_n_quantum_from_survival([0.75, 0.75], 0.25, n=4)
    with pytest.raises(DomainError):
        k_n_quantum_from_survival([0.75, 1.25], 0.25)
    with pytest.raises(DomainError):
        k_n_quantum_from_survival([0.75], 0.25)


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
            kv_p = k_n_quantum_from_survival(list(probs[i]), float(prob_sum[i]))
            kv_c = k_n_from_correlations(
                list(2.0 * probs[i] - 1.0), float(2.0 * prob_sum[i] - 1.0)
            )
            assert_allclose(kv_p.value, kv_c.value, atol=1e-12)
            assert_allclose(kv_p.value, via_probs[i], atol=1e-12)


@given(
    probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
    prob_sum=st.floats(0.0, 1.0),
)
@settings(max_examples=300)
def test_survival_correlation_equivalence_property(probs, prob_sum):
    kv_p = k_n_quantum_from_survival(probs, prob_sum)
    kv_c = k_n_from_correlations([2.0 * p - 1.0 for p in probs], 2.0 * prob_sum - 1.0)
    assert_allclose(kv_p.value, kv_c.value, atol=1e-12)


def test_classical_k_hand_values():
    kv = k_n_classical([0.5, 0.5])
    assert kv.value == pytest.approx(0.75, abs=1e-15)
    assert kv.kind is KKind.CLASSICAL_NULL
    for n in (3, 4, 5):
        assert k_n_classical([1.0] * (n - 1)).value == lgi_bound(n)


def test_classical_k_validation():
    with pytest.raises(DomainError):
        k_n_classical([0.5])
    with pytest.raises(DomainError):
        k_n_classical([0.5, -1.5])


def test_classical_bound_on_exhaustive_grid():
    # Product-rule values on the full grid C in {-1, -0.9, ..., 1}^(n-1).
    grid = np.round(np.arange(-10, 11) / 10.0, 10)
    for n in (3, 4, 5):
        mesh = np.meshgrid(*([grid] * (n - 1)), indexing="ij")
        stacked = np.stack([m.ravel() for m in mesh], axis=1)
        values = stacked.sum(axis=1) - stacked.prod(axis=1)
        assert values.max() <= lgi_bound(n)
        worst = stacked[np.argmax(values)]
        assert k_n_classical(list(worst)).value <= lgi_bound(n)


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
        kv = k_n_quantum_from_survival(probs, prob_sum)
        assert kv.value == lgi_bound(n)


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
        assert_allclose(quantum.value, classical.value, atol=1e-9)


def test_kvalue_validation():
    with pytest.raises(DomainError):
        KValue(n=2, value=0.5, kind=KKind.QUANTUM_THEORY)
    with pytest.raises(DomainError):
        KValue(n=3, value=math.nan, kind=KKind.QUANTUM_THEORY)
    with pytest.raises(DomainError):
        KValue(n=3, value=0.5, kind=KKind.QUANTUM_THEORY, uncertainty=-0.1)
    # The classical kind defends its own bound.
    with pytest.raises(DomainError):
        KValue(n=3, value=1.5, kind=KKind.CLASSICAL_NULL)


def test_classical_kvalue_rejects_values_above_its_bound():
    for n in (3, 4, 6):
        # The check keeps a 1e-9 slack for rounding at the bound.
        KValue(n=n, value=n - 2 + 1e-9, kind=KKind.CLASSICAL_NULL)
        with pytest.raises(DomainError, match="above its bound"):
            KValue(n=n, value=n - 2 + 1e-6, kind=KKind.CLASSICAL_NULL)
        # Other kinds may exceed it: that is what a violation is.
        KValue(n=n, value=n - 2 + 0.5, kind=KKind.QUANTUM_THEORY)


def test_classical_bound_check_survives_optimized_mode():
    # python -O strips assert statements; the bound check must not be one.
    code = (
        "import sys\n"
        "from nulgi.errors import DomainError\n"
        "from nulgi.leggett_garg import KKind, KValue\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    KValue(n=4, value=2.5, kind=KKind.CLASSICAL_NULL)\n"
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
