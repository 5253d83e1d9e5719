"""Pseudo-experiment engine: soundness, dispersion, fits, calibration.

The expensive distributional checks run at replica counts chosen so the
whole module stays under a minute; the acceptance suite re-runs the
headline protocol at full size.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nulgi.errors import DomainError
from nulgi.montecarlo import (
    BetaBinomialFit,
    PseudoConfig,
    chi_square_quantum,
    classical_null_distribution,
    count_violations,
    fit_beta_binomial,
    MIN_BLOCK_REPLICAS,
    NULL_BLOCK_BYTES,
    null_block_shape,
    sample_pseudodata,
    z_significance,
)
from nulgi.leggett_garg import KKind, KValue
from nulgi.oscillation import OscParams, survival_probability
from nulgi.pipeline import RunConfig, analyze_dataset
from nulgi.sampling import (
    STREAM_PSEUDODATA,
    STREAM_SYNTH_ENERGY,
    STREAM_SYNTH_PROB,
    normal,
    truncated_normal,
    uniform_open,
)
from nulgi.selection import (
    MeasuredPoint,
    PhaseTuple,
    attach_phases,
    evaluate_tuple,
    select_ntuples,
)
from nulgi.synthetic import generate_synthetic

import oracles

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
PHASE_SCALE = 1.266932679039099 * 2.4e-3 * 735.0

# Six phases giving four exact-sum triples that share points heavily:
# 0.5+0.4=0.9, 0.7+0.5=1.2, 0.9+0.7=1.6, 1.2+0.4=1.6.
SHARED_PHASES = (0.4, 0.5, 0.7, 0.9, 1.2, 1.6)


def dataset_with_phases(phases, p_mumu=0.5, sigma=0.3):
    pts = [
        MeasuredPoint(PHASE_SCALE / psi, p_mumu, sigma_stat=sigma) for psi in phases
    ]
    return attach_phases(pts, PARAMS)


def shared_fixture(sigma=0.3):
    dec = dataset_with_phases(SHARED_PHASES, sigma=sigma)
    tuples = select_ntuples(dec, 3, 0.005)
    assert len(tuples) == 4
    return dec, tuples


def markov_decay_probs(psis, lam=0.4):
    # Exponential correlation decay is exactly multiplicative, so it obeys
    # the product rule at every phase sum: a genuinely classical truth.
    return 0.5 * (1.0 + np.exp(-lam * np.asarray(psis)))


def test_null_is_silent_on_noiseless_classical_data():
    dec = dataset_with_phases(SHARED_PHASES, sigma=0.0)
    probs = markov_decay_probs([p.psi for p in dec])
    dec = [dataclasses.replace(p, p_mumu=float(v)) for p, v in zip(dec, probs)]
    tuples = select_ntuples(dec, 3, 0.005)
    counts = classical_null_distribution(dec, tuples, PseudoConfig(replicas=2000, seed=1))
    assert counts.shape == (2000,)
    assert not counts.any()


def test_null_is_silent_on_noiseless_quantum_data():
    # Exact quantum data drive the observed statistic over the bound, yet
    # the engine evaluates the product rule and must still report zero: the
    # null asks what noise does to a classical world, not what the data say.
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.0, seed=0)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, 3, 0.005)
    k_values = [evaluate_tuple(t, dec) for t in tuples]
    assert count_violations(k_values, 3) >= 1
    counts = classical_null_distribution(dec, tuples, PseudoConfig(replicas=2000, seed=1))
    assert not counts.any()


def test_large_noise_defeats_the_bound_and_overdisperses():
    dec, tuples = shared_fixture(sigma=0.3)
    counts = classical_null_distribution(
        dec, tuples, PseudoConfig(replicas=20_000, seed=3)
    )
    assert counts.max() > 0
    mean = counts.mean()
    mu = mean / len(tuples)
    binom_var = len(tuples) * mu * (1.0 - mu)
    assert counts.var(ddof=1) > 1.2 * binom_var
    assert fit_beta_binomial(counts, len(tuples)).kind == "beta-binomial"


def test_null_ignores_points_used_only_as_targets():
    # The highest-phase point serves only as a target in this fixture;
    # the classical statistic is built from component legs alone.
    dec, tuples = shared_fixture()
    assert all(0 not in t.indices for t in tuples)
    assert any(t.target_index == 0 for t in tuples)
    moved = [
        dataclasses.replace(p, p_mumu=0.9, sigma_stat=0.01) if i == 0 else p
        for i, p in enumerate(dec)
    ]
    cfg = PseudoConfig(replicas=5000, seed=4)
    base = classical_null_distribution(dec, tuples, cfg)
    assert np.array_equal(base, classical_null_distribution(moved, tuples, cfg))


def test_engine_is_deterministic_and_chunk_invariant():
    dec, tuples = shared_fixture()
    cfg = PseudoConfig(replicas=5000, seed=5)
    a = classical_null_distribution(dec, tuples, cfg)
    b = classical_null_distribution(dec, tuples, cfg)
    c = classical_null_distribution(dec, tuples, cfg, chunk_size=7)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    other = classical_null_distribution(
        dec, tuples, PseudoConfig(replicas=5000, seed=6)
    )
    assert not np.array_equal(a, other)


# 5003 is prime: every block of 2 to 5002 replicas leaves a partial last block.
ORACLE_REPLICAS = 5003


def reference_counts(dec, tuples, cfg):
    """Oracle counts from a replica-major draw matrix built by the test."""
    draws = normal(
        cfg.seed, STREAM_PSEUDODATA,
        np.arange(cfg.replicas)[:, None], np.arange(len(dec))[None, :],
        mean=np.array([p.p_mumu for p in dec])[None, :],
        sd=np.array([p.sigma for p in dec])[None, :],
    )
    comp_idx = [t.indices for t in tuples]
    return oracles.product_rule_null_counts(draws, comp_idx, tuples[0].n)


@pytest.mark.parametrize("n", [3, 4])
def test_engine_counts_match_the_replica_major_oracle(n):
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, n, 0.005)
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=11)
    counts = classical_null_distribution(dec, tuples, cfg)
    assert counts.any()
    assert np.array_equal(counts, reference_counts(dec, tuples, cfg))


def test_order_five_counts_match_the_replica_major_oracle():
    dec = dataset_with_phases(SHARED_PHASES, sigma=0.3)
    # Hand-built order-5 tuples (phase sums need not match: the null never
    # reads them), with repeated components and every point used.
    tuples = [
        PhaseTuple(indices=ids, target_index=target, n=5, mismatch=0.0)
        for ids, target in (
            ((5, 4, 3, 2), 0), ((3, 3, 1, 0), 2), ((5, 5, 5, 5), 4),
            ((4, 2, 1, 1), 3), ((2, 1, 0, 0), 5),
        )
    ]
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=12)
    counts = classical_null_distribution(dec, tuples, cfg)
    assert counts.any()
    assert np.array_equal(counts, reference_counts(dec, tuples, cfg))


def test_systematic_counts_do_not_depend_on_the_chunking():
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, 4, 0.005)
    cfg = PseudoConfig(
        replicas=ORACLE_REPLICAS, seed=13, include_systematics=True,
        sys_amplitude_sigma=0.05, sys_phase_sigma=0.05,
    )
    derived = classical_null_distribution(dec, tuples, cfg)
    assert derived.any()
    for chunk_size in (7, ORACLE_REPLICAS):
        assert np.array_equal(
            derived, classical_null_distribution(dec, tuples, cfg, chunk_size=chunk_size)
        )


def block_bytes(replicas, tuples, points):
    """float64 bytes of one block: a row per point and per tuple."""
    return 8 * replicas * (tuples + points)


def test_null_block_fits_the_budget():
    # The 100-bin order-4 cell: its tuples alone overflow the budget at the
    # replica floor, so the block also takes a slice of the tuples.
    replicas, tuples = null_block_shape(29_560, 100)
    assert replicas == MIN_BLOCK_REPLICAS
    assert 1 <= tuples < 29_560
    assert block_bytes(replicas, tuples, 100) <= NULL_BLOCK_BYTES
    # The 30-bin order-3 cell fits whole, with more replicas than the floor.
    replicas, tuples = null_block_shape(21, 30)
    assert tuples == 21 and replicas > MIN_BLOCK_REPLICAS
    assert block_bytes(replicas, tuples, 30) <= NULL_BLOCK_BYTES
    # An explicit replica count is kept; the tuples fill what it leaves.
    replicas, tuples = null_block_shape(241, 30, 7)
    assert replicas == 7 and tuples == 241
    replicas, tuples = null_block_shape(29_560, 100, 7)
    assert block_bytes(replicas, tuples, 100) <= NULL_BLOCK_BYTES


@given(
    n_tuples=st.integers(0, 10**9),
    n_points=st.integers(0, 10**7),
    replicas=st.one_of(st.none(), st.integers(1, 10**9)),
)
def test_null_block_shape_is_always_at_least_one(n_tuples, n_points, replicas):
    block_replicas, block_tuples = null_block_shape(n_tuples, n_points, replicas)
    assert block_replicas >= 1
    assert 1 <= block_tuples <= max(n_tuples, 1)


def test_engine_validation():
    dec, tuples = shared_fixture()
    with pytest.raises(DomainError):
        classical_null_distribution(dec, [], PseudoConfig(replicas=2000))
    mixed = [tuples[0], dataclasses.replace(tuples[1], indices=(1, 2, 3), n=4)]
    with pytest.raises(DomainError):
        classical_null_distribution(dec, mixed, PseudoConfig(replicas=2000))
    stray = [dataclasses.replace(tuples[0], indices=(4, 99))]
    with pytest.raises(IndexError):
        classical_null_distribution(dec, stray, PseudoConfig(replicas=2000))
    with pytest.warns(UserWarning, match="replicas"):
        classical_null_distribution(dec, tuples, PseudoConfig(replicas=100, seed=1))
    for chunk_size in (0, 2.5):
        with pytest.raises(DomainError):
            classical_null_distribution(
                dec, tuples, PseudoConfig(replicas=2000), chunk_size=chunk_size
            )


def test_pseudo_config_validation():
    with pytest.raises(DomainError):
        PseudoConfig(replicas=0)
    with pytest.raises(DomainError):
        PseudoConfig(replicas=1000, seed=-1)
    with pytest.raises(DomainError):
        PseudoConfig(replicas=1000, sys_amplitude_sigma=-0.1)


def test_systematics_are_deterministic_and_widen_the_null():
    dec, tuples = shared_fixture()
    plain = classical_null_distribution(
        dec, tuples, PseudoConfig(replicas=20_000, seed=7)
    )
    jittered_cfg = PseudoConfig(
        replicas=20_000, seed=7, include_systematics=True,
        sys_amplitude_sigma=0.3, sys_phase_sigma=0.1,
    )
    jittered = classical_null_distribution(dec, tuples, jittered_cfg)
    assert np.array_equal(
        jittered, classical_null_distribution(dec, tuples, jittered_cfg)
    )
    assert jittered.var(ddof=1) > plain.var(ddof=1)
    # Flag off means the sigmas are inert.
    off = dataclasses.replace(jittered_cfg, include_systematics=False)
    assert np.array_equal(plain, classical_null_distribution(dec, tuples, off))


def test_pseudodata_zero_sigma_returns_the_data():
    dec = dataset_with_phases(SHARED_PHASES, sigma=0.0)
    with pytest.warns(UserWarning, match="zero"):
        replica = sample_pseudodata(dec, PseudoConfig(replicas=2000, seed=1), 0)
    assert [p.p_mumu for p in replica] == [p.p_mumu for p in dec]


def test_pseudodata_matches_its_vectorized_stream():
    ds = attach_phases([MeasuredPoint(2.0, 0.5, 0.1)], PARAMS)
    cfg = PseudoConfig(replicas=2000, seed=9)
    direct = truncated_normal(9, STREAM_PSEUDODATA, np.arange(200), 0, 0.5, 0.1)
    for i in range(200):
        assert sample_pseudodata(ds, cfg, i)[0].p_mumu == direct[i]


def test_pseudodata_moments_match_the_generator():
    # One million single-point draws; truncation at five sigma is invisible.
    draws = truncated_normal(9, STREAM_PSEUDODATA, np.arange(1_000_000), 0, 0.5, 0.1)
    assert abs(draws.mean() - 0.5) < 3e-4
    assert abs(draws.std(ddof=1) - 0.1) < 1e-3


def test_pseudodata_truncation_bias_matches_rejection_oracle():
    draws = truncated_normal(13, STREAM_PSEUDODATA, np.arange(200_000), 0, 0.02, 0.05)
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    assert draws.mean() > 0.02
    reference = oracles.rejection_truncated_normal(
        np.random.default_rng(14), 0.02, 0.05, 200_000
    )
    scale = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - reference.mean()) < 6.0 * scale


def test_count_violations_strictness():
    kvs = [
        KValue(n=3, value=v, kind=KKind.QUANTUM_FROM_DATA) for v in (1.2, 0.8, 1.0)
    ]
    assert count_violations(kvs, 3) == 1
    assert count_violations([], 3) == 0
    with pytest.raises(DomainError):
        count_violations(kvs + [KValue(n=4, value=0.0, kind=KKind.QUANTUM_FROM_DATA)], 3)


def test_beta_binomial_round_trip():
    counts = oracles.beta_binomial_counts(np.random.default_rng(15), 2.0, 8.0, 82, 100_000)
    fit = fit_beta_binomial(counts, 82)
    assert fit.kind == "beta-binomial"
    assert abs(fit.alpha - 2.0) / 2.0 < 0.10
    assert abs(fit.beta - 8.0) / 8.0 < 0.10
    # Moment fits reproduce the sample moments whenever solvable.
    assert fit.mean_violations == counts.mean()
    assert_allclose(fit.sd_violations**2, counts.var(ddof=1), rtol=1e-9)
    # Stored sd agrees with the closed-form beta-binomial variance.
    mu = fit.mean_violations / fit.trials_n
    rho = 1.0 / (fit.alpha + fit.beta + 1.0)
    formula = fit.trials_n * mu * (1.0 - mu) * (1.0 + (fit.trials_n - 1) * rho)
    assert_allclose(fit.sd_violations**2, formula, rtol=1e-9)


def test_beta_binomial_underdispersed_falls_back_to_binomial():
    counts = [4] * 25 + [5] * 50 + [6] * 25
    fit = fit_beta_binomial(counts, 82)
    assert fit.kind == "binomial"
    assert fit.alpha is None and fit.beta is None
    assert fit.mean_violations == 5.0
    p_hat = 5.0 / 82.0
    assert_allclose(fit.sd_violations, math.sqrt(82 * p_hat * (1 - p_hat)), rtol=1e-12)


def test_beta_binomial_degenerate_counts():
    fit = fit_beta_binomial([7] * 40, 82)
    assert fit.kind == "degenerate"
    assert fit.mean_violations == 7.0
    assert fit.sd_violations == 0.0


def test_beta_binomial_validation():
    with pytest.raises(DomainError):
        fit_beta_binomial([], 82)
    with pytest.raises(DomainError):
        fit_beta_binomial([5, -1], 82)
    with pytest.raises(DomainError):
        fit_beta_binomial([83], 82)
    with pytest.raises(DomainError):
        fit_beta_binomial([5], 0)


def test_z_significance_values():
    fit = BetaBinomialFit(
        alpha=None, beta=None, trials_n=82, mean_violations=10.0,
        sd_violations=5.0, kind="binomial", n_samples=1000,
    )
    assert z_significance(10, fit) == 0.0
    assert z_significance(20, fit) == 2.0
    frozen = dataclasses.replace(fit, sd_violations=0.0, kind="degenerate")
    # Degenerate null: the sd floor is one expected count in n_samples.
    assert z_significance(12, frozen) == (12 - 10.0) * 1000


def test_chi_square_vanishes_on_the_model_curve():
    dec = dataset_with_phases(SHARED_PHASES, sigma=0.01)
    dec = [
        dataclasses.replace(p, p_mumu=float(survival_probability(0.95, p.psi)))
        for p in dec
    ]
    tuples = select_ntuples(dec, 3, 0.005)
    k_values = [evaluate_tuple(t, dec) for t in tuples]
    assert len(k_values) == 4
    chi2, dof = chi_square_quantum(k_values, PARAMS)
    assert chi2 < 1e-12
    assert dof == 3


def test_chi_square_tracks_unit_gaussian_scatter():
    rng = np.random.default_rng(16)
    sigma = 0.05
    chi2_values = []
    for _ in range(30):
        pulls = rng.standard_normal(82)
        k_values = []
        for g in pulls:
            psis = rng.uniform(0.3, 1.5, size=2)
            probs = [float(survival_probability(0.95, p)) for p in psis]
            prob_sum = float(survival_probability(0.95, psis.sum()))
            theory = -1.0 + 2.0 * sum(probs) - 2.0 * prob_sum
            k_values.append(
                KValue(
                    n=3, value=theory + sigma * float(g),
                    kind=KKind.QUANTUM_FROM_DATA,
                    phases=tuple(psis), uncertainty=sigma,
                )
            )
        chi2, dof = chi_square_quantum(k_values, PARAMS)
        assert dof == 81
        assert_allclose(chi2, float(pulls @ pulls), rtol=1e-9)
        chi2_values.append(chi2)
    # chi2 with 81 dof: mean 81, sd about 12.7.
    assert 73.0 < np.mean(chi2_values) < 89.0


def test_chi_square_validation():
    good = KValue(
        n=3, value=1.0, kind=KKind.QUANTUM_FROM_DATA,
        phases=(0.5, 0.7), uncertainty=0.1,
    )
    with pytest.raises(DomainError):
        chi_square_quantum([good], PARAMS)
    with pytest.raises(DomainError):
        chi_square_quantum(
            [good, dataclasses.replace(good, uncertainty=0.0)], PARAMS
        )
    with pytest.raises(DomainError):
        chi_square_quantum([good, dataclasses.replace(good, phases=None)], PARAMS)


def classical_markov_dataset(lam, sigma, bins, seed):
    """Noisy spectrum whose truth obeys the product rule exactly."""
    pos = np.arange(bins, dtype=float)
    jit = uniform_open(seed, STREAM_SYNTH_ENERGY, 1, np.arange(1, bins - 1)) - 0.5
    pos[1:-1] += 0.5 * jit
    energies = 0.5 * (50.0 / 0.5) ** (pos / (bins - 1))
    base = [MeasuredPoint(float(e), 0.5, sigma) for e in energies]
    dec = attach_phases(base, PARAMS)
    p_true = markov_decay_probs([p.psi for p in dec], lam=lam)
    p_obs = truncated_normal(seed, STREAM_SYNTH_PROB, 1, np.arange(bins), p_true, sigma)
    return [
        dataclasses.replace(p, p_mumu=float(v), psi=None)
        for p, v in zip(dec, p_obs)
    ]


def test_z_is_calibrated_under_a_classical_truth():
    """When the truth is classical the z-score is a standard score.

    Spectrum shape and noise are chosen so the null fits are informative:
    16 bins at sigma 0.07 leave a handful of tuples whose estimators
    actually reach the boundary. Sparser noise drives every null count to
    zero (z pinned at 0) and denser grids let the plug-in center track the
    data, shrinking the spread well below one.
    """
    zs = []
    for seed in range(200):
        pts = classical_markov_dataset(lam=0.1, sigma=0.07, bins=16, seed=seed)
        cfg = RunConfig(
            params=PARAMS, tolerance=0.01,
            pseudo=PseudoConfig(replicas=3000, seed=seed + 100_000),
        )
        report = analyze_dataset(pts, cfg)
        if report.status == "ok":
            zs.append(report.z_score)
    zs = np.asarray(zs)
    assert zs.size >= 190
    assert abs(zs.mean()) <= 0.2
    assert 0.75 <= zs.std(ddof=1) <= 1.25


def test_power_grows_as_errors_shrink():
    def median_z(rel_error):
        values = []
        for seed in range(12):
            pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, rel_error, seed)
            cfg = RunConfig(
                params=PARAMS, tolerance=0.005,
                pseudo=PseudoConfig(replicas=20_000, seed=seed),
            )
            values.append(analyze_dataset(pts, cfg).z_score)
        return float(np.median(values))

    coarse, standard, fine = (median_z(r) for r in (0.08, 0.05, 0.03))
    assert coarse < standard < fine


def test_full_report_is_reproducible():
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=2)
    cfg = RunConfig(
        params=PARAMS, tolerance=0.005, pseudo=PseudoConfig(replicas=5000, seed=2)
    )
    first = analyze_dataset(pts, cfg)
    second = analyze_dataset(pts, cfg)
    assert first == second
    assert first.status == "ok"
    assert 0 <= first.n_violations_observed <= first.n_tuples
