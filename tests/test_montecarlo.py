"""Pseudo-experiment engine: soundness, dispersion, fits, calibration.

The expensive distributional checks run at replica counts chosen so the
whole module stays under a minute; the acceptance suite re-runs the
headline protocol at full size.
"""

import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nulgi import errors, montecarlo
from nulgi.errors import DomainError
from nulgi.montecarlo import (
    MARGIN_EDGES,
    NULL_MARGIN,
    BetaBinomialFit,
    PseudoConfig,
    chi_square_quantum,
    classical_null_distribution,
    fit_beta_binomial,
    MIN_BLOCK_REPLICAS,
    MIN_BLOCK_TUPLES,
    NULL_BLOCK_BYTES,
    null_block_shape,
    null_shards,
    z_significance,
)
from nulgi.oscillation import OscParams, survival_probability
from nulgi.pipeline import RunConfig, analyze_dataset, tuple_table
from nulgi.sampling import (
    KEY_LIMIT,
    STREAM_PSEUDODATA,
    STREAM_SYNTH_ENERGY,
    STREAM_SYNTH_PROB,
    draw_keys,
    normal,
    normal_from_keys,
    truncated_normal,
    uniform_from_keys,
    uniform_open,
)
from nulgi.selection import Spectrum, TupleSet, attach_phases, select_ntuples
from nulgi.synthetic import generate_synthetic

import oracles
from table_columns import whole_column

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
PHASE_SCALE = 1.266932679039099 * 2.4e-3 * 735.0

# Six phases giving four exact-sum triples that share points heavily:
# 0.5+0.4=0.9, 0.7+0.5=1.2, 0.9+0.7=1.6, 1.2+0.4=1.6.
SHARED_PHASES = (0.4, 0.5, 0.7, 0.9, 1.2, 1.6)


def dataset_with_phases(phases, p_mumu=0.5, sigma=0.3):
    pts = Spectrum(PHASE_SCALE / np.asarray(phases), p_mumu, sigma_stat=sigma)
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
    dec = dataclasses.replace(dec, p_mumu=markov_decay_probs(dec.psi))
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
    assert np.count_nonzero(whole_column(tuple_table(tuples, dec, PARAMS), "violation")) >= 1
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
    assert all(0 not in indices for indices in tuples.comp_idx.tolist())
    assert any(t == 0 for t in tuples.target_idx.tolist())
    probs, sds = dec.p_mumu.copy(), dec.sigma_stat.copy()
    probs[0], sds[0] = 0.9, 0.01
    moved = dataclasses.replace(dec, p_mumu=probs, sigma_stat=sds)
    cfg = PseudoConfig(replicas=5000, seed=4)
    base = classical_null_distribution(dec, tuples, cfg)
    assert np.array_equal(base, classical_null_distribution(moved, tuples, cfg))


def test_engine_is_deterministic_and_chunk_invariant():
    dec, tuples = shared_fixture()
    cfg = PseudoConfig(replicas=5000, seed=5)
    a = classical_null_distribution(dec, tuples, cfg)
    b = classical_null_distribution(dec, tuples, cfg)
    c = null_in_blocks(dec, tuples, cfg, 7)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    other = classical_null_distribution(
        dec, tuples, PseudoConfig(replicas=5000, seed=6)
    )
    assert not np.array_equal(a, other)


# 5003 is prime: every block of 2 to 5002 replicas leaves a partial last block.
ORACLE_REPLICAS = 5003


def null_in_blocks(dec, tuples, cfg, block_replicas=None, workers=None, block_tuples=None):
    """classical_null_distribution in key and tuple blocks of at most
    block_replicas replicas, each evaluating block_tuples tuples at a time,
    on at most workers shards.

    None keeps the default blocking, or the process's cores.
    """
    with pytest.MonkeyPatch.context() as patch:
        if block_replicas is not None or block_tuples is not None:
            shape = montecarlo.null_block_shape

            def blocked(n_tuples, n_points):
                replicas, tuples = shape(n_tuples, n_points)
                return block_replicas or replicas, block_tuples or tuples

            patch.setattr(montecarlo, "null_block_shape", blocked)
        if workers is not None:
            patch.setattr(montecarlo, "_available_cores", lambda: workers)
        return classical_null_distribution(dec, tuples, cfg)


def reference_counts(dec, tuples, cfg, keys_at=None):
    """Oracle counts from a replica-major draw matrix built by the test.

    keys_at maps (replica, point) pairs to a key whose draw replaces theirs.
    """
    draws = normal(
        cfg.seed, STREAM_PSEUDODATA,
        np.arange(cfg.replicas)[:, None], np.arange(len(dec))[None, :],
        mean=dec.p_mumu[None, :], sd=dec.sigma[None, :],
    )
    for (replica, point), key in (keys_at or {}).items():
        draws[replica, point] = normal_from_keys(
            np.uint64(key), dec.p_mumu[point], dec.sigma[point]
        )
    return oracles.product_rule_null_counts(draws, tuples.comp_idx, tuples.n)


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
    tuples = TupleSet(
        n=5, size=len(dec),
        comp_idx=[(5, 4, 3, 2), (3, 3, 1, 0), (5, 5, 5, 5), (4, 2, 1, 1), (2, 1, 0, 0)],
        target_idx=[0, 2, 4, 3, 5], mismatch=np.zeros(5),
    )
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=12)
    counts = classical_null_distribution(dec, tuples, cfg)
    assert counts.any()
    assert np.array_equal(counts, reference_counts(dec, tuples, cfg))


def test_systematic_counts_do_not_depend_on_the_chunking():
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, 4, 0.005)
    cfg = PseudoConfig(
        replicas=ORACLE_REPLICAS, seed=13, sys_amplitude_sigma=0.05, sys_phase_sigma=0.05,
    )
    derived = classical_null_distribution(dec, tuples, cfg)
    assert derived.any()
    for block in (7, ORACLE_REPLICAS):
        assert np.array_equal(derived, null_in_blocks(dec, tuples, cfg, block))


# Hand-built tuples over the six shared points. Order 3: a ring, two chords
# and two repeated pairs (a, a), which can never violate. Orders 4 and 5:
# rings and chords with repeated components, every point used.
ADVERSARIAL_PAIRS = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (3, 5),
                     (0, 0), (2, 2)]
ADVERSARIAL_COMPONENTS = {
    3: ADVERSARIAL_PAIRS,
    4: [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 0), (5, 0, 1), (1, 4, 3),
        (0, 0, 2), (2, 2, 2), (5, 3, 1)],
    5: [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 0, 1), (1, 3, 5, 0), (0, 0, 2, 2), (5, 5, 5, 5),
        (3, 1, 4, 2), (1, 2, 1, 2), (0, 1, 2, 1)],
}

# (p, sigma) of the six points per case; every case keeps ordinary points
# beside the adversarial ones.
ADVERSARIAL_SPECTRA = {
    "p near 0 and 1": ([1e-13, 1 - 1e-13, 1 - 5e-13, 5e-13, 0.5, 0.97], [0.05] * 6),
    "sigma 0 at p 1": ([1.0, 0.95, 1.0, 0.9, 0.97, 0.99], [0.0, 0.05, 0.0, 0.05, 0.03, 0.02]),
    "sigma 0 at p 0.5": ([0.5, 0.95, 0.5, 0.9, 0.97, 0.99], [0.0, 0.05, 0.0, 0.05, 0.03, 0.02]),
    "sigma 1e-9": ([1 - 1e-10, 1 - 1e-8, 1.0, 0.95, 0.9, 1 - 5e-10], [1e-9, 1e-9, 1e-9, 0.05, 0.05, 1e-9]),
    "sigma 10 and more": ([0.5, 0.95, 0.99, 0.1, 0.9, 1.0], [10.0, 0.05, 12.0, 25.0, 0.05, 10.0]),
}


def adversarial_fixture(probs, sigmas, components=ADVERSARIAL_PAIRS):
    """The six shared points with the given (p, sigma), and hand-built tuples."""
    dec = dataclasses.replace(
        dataset_with_phases(SHARED_PHASES), p_mumu=probs, sigma_stat=sigmas
    )
    tuples = TupleSet(n=len(components[0]) + 1, size=len(dec), comp_idx=components,
                      target_idx=[0] * len(components), mismatch=np.zeros(len(components)))
    return dec, tuples


def counting_draws(monkeypatch):
    """Count the float draws the engine takes, through sampling.normal and
    normal_from_keys; the key bisection's probes are not draws."""
    drawn = []
    probing = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not probing:
                drawn.append(result.size)
            return result
        return wrapper

    key_thresholds = montecarlo._key_thresholds

    def probe(*args, **kwargs):
        probing.append(True)
        try:
            return key_thresholds(*args, **kwargs)
        finally:
            probing.pop()

    monkeypatch.setattr(montecarlo, "normal", counted(normal))
    monkeypatch.setattr(montecarlo, "normal_from_keys", counted(normal_from_keys))
    monkeypatch.setattr(montecarlo, "_key_thresholds", probe)
    return drawn


def test_order3_counts_follow_the_float_form_where_exact_algebra_disagrees():
    # Two points at p = 1 with sigma 1e-16 draw C = 1 + 2**-51, 1, 1 - 2**-52,
    # ...: for C = (1 + 2**-51, 1 - 2**-52) the exact product -(1 - C_a)(1 -
    # C_b) is positive, yet fl(fl(C_a + C_b) - fl(C_a C_b)) = 1 - 2**-52. The
    # "C > 1" flags alone would count such a pair; the engine must count
    # what the float expression counts.
    dec, tuples = adversarial_fixture([1.0, 1.0, 0.5, 0.5, 0.5, 0.5],
                                      [1e-16, 1e-16] + [0.05] * 4, [(0, 1)])
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=22)
    expected = reference_counts(dec, tuples, cfg)
    corr = 2.0 * normal(
        cfg.seed, STREAM_PSEUDODATA, np.arange(cfg.replicas)[:, None], np.arange(2)[None, :],
        mean=1.0, sd=1e-16,
    ) - 1.0
    # Near 1, 1 - C is exact and the product does not underflow: exact sign.
    exact = (1.0 - corr[:, 0]) * (1.0 - corr[:, 1]) < 0.0
    assert np.count_nonzero(exact != expected.astype(bool)) > 100
    for block in (None, 7):
        assert np.array_equal(null_in_blocks(dec, tuples, cfg, block), expected)


# Four edges from C = -64 to 64, which sigma 10 and more reaches, as
# _key_thresholds takes them: C >= -64, C > 1 - 1e-5, C >= 1 + 1e-5, C > 64.
WIDE_EDGES = (np.nextafter(-64.0, -np.inf), 1.0 - 1e-5, np.nextafter(1.0 + 1e-5, -np.inf), 64.0)

# Edge sets to bisect for, each as (given edges, the edges they stand for,
# whether each is strict): C >= e or C > e. The engine bisects the margin's.
EDGE_SETS = [
    (WIDE_EDGES, [-64.0, 1.0 - 1e-5, 1.0 + 1e-5, 64.0], [False, True, False, True]),
    (MARGIN_EDGES, [-1.0 + NULL_MARGIN, 1.0 - NULL_MARGIN], [False, True]),
]


@pytest.mark.parametrize("probs, sigmas", ADVERSARIAL_SPECTRA.values())
def test_key_thresholds_bracket_each_edge(probs, sigmas):
    probs, sigmas = np.array(probs), np.array(sigmas)

    def reached(keys, edge, is_strict):
        corr = 2.0 * normal_from_keys(keys, probs, sigmas) - 1.0
        return ~(corr <= edge) if is_strict else ~(corr < edge)

    for given, edges, strict in EDGE_SETS:
        thresholds = montecarlo._key_thresholds(probs, sigmas, given)
        assert thresholds.shape == (len(edges), len(probs))
        assert (np.diff(thresholds, axis=0) >= 0).all()
        for keys, edge, is_strict in zip(thresholds, edges, strict):
            below, at = np.maximum(keys - 1, 0), np.minimum(keys, KEY_LIMIT - 1)
            assert not reached(below, edge, is_strict)[keys > 0].any()
            assert reached(at, edge, is_strict)[keys < KEY_LIMIT].all()
        # The top key draws what the key below it draws, so it is never the
        # first to reach an edge: a point whose every other key is safe is
        # safe at the top key too.
        assert (thresholds != KEY_LIMIT - 1).all()


@pytest.mark.parametrize("given", [WIDE_EDGES, MARGIN_EDGES])
@pytest.mark.parametrize("probs, sigmas", ADVERSARIAL_SPECTRA.values())
def test_key_thresholds_equal_a_full_bisection(probs, sigmas, given):
    # The ndtr bracket only shortens the search: sigma 0, a bracket whose
    # ends do not check out and a first key of 0 or KEY_LIMIT all land where
    # a bisection over every key does.
    assert np.array_equal(
        montecarlo._key_thresholds(np.array(probs), np.array(sigmas), given),
        oracles.key_thresholds_by_bisection(probs, sigmas, given),
    )


def test_key_thresholds_bisect_inside_the_bracket(monkeypatch):
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    probs, sigmas = pts.p_mumu, pts.sigma
    probes = []

    def counted(*args, **kwargs):
        probes.append(1)
        return normal_from_keys(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "normal_from_keys", counted)
    for given in (WIDE_EDGES, MARGIN_EDGES):
        probes.clear()
        thresholds = montecarlo._key_thresholds(probs, sigmas, given)
        assert np.array_equal(
            thresholds, oracles.key_thresholds_by_bisection(probs, sigmas, given)
        )
        # Two checks of the bracket's ends, then one probe per halving of it.
        assert len(probes) == 2 + (2 * montecarlo.KEY_BRACKET).bit_length()


def test_order3_systematics_take_the_float_form_in_every_replica(monkeypatch):
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, 3, 0.005)
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=23)
    counts = classical_null_distribution(dec, tuples, cfg)
    assert np.array_equal(counts, reference_counts(dec, tuples, cfg))
    # Systematics move the means per replica: every draw is a float draw,
    # and the float path's counts do not depend on the chunking either.
    # Only the points some tuple reads are drawn, plus two nuisances.
    drawn = counting_draws(monkeypatch)
    sys_cfg = dataclasses.replace(cfg, sys_amplitude_sigma=0.05, sys_phase_sigma=0.05)
    derived = classical_null_distribution(dec, tuples, sys_cfg)
    assert sum(drawn) == cfg.replicas * (np.unique(tuples.comp_idx).size + 2)
    assert derived.any() and not np.array_equal(derived, counts)
    for block in (7, ORACLE_REPLICAS):
        assert np.array_equal(derived, null_in_blocks(dec, tuples, sys_cfg, block))


@pytest.mark.parametrize("case", ADVERSARIAL_SPECTRA)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_margin_counts_match_the_oracle_on_adversarial_spectra(n, case):
    dec, tuples = adversarial_fixture(*ADVERSARIAL_SPECTRA[case], ADVERSARIAL_COMPONENTS[n])
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=24)
    expected = reference_counts(dec, tuples, cfg)
    assert expected.any()
    for block in (None, 1, 7, ORACLE_REPLICAS):
        assert np.array_equal(null_in_blocks(dec, tuples, cfg, block), expected), block


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_tuple_blocks_match_the_oracle(n):
    # null_in_blocks keeps the default tuple width, which takes these tuples
    # all at once. Here each tuple block holds one tuple or three, so
    # tuple-block edges fall between every pair of tuples and short of the
    # last.
    dec, tuples = adversarial_fixture(
        *ADVERSARIAL_SPECTRA["sigma 10 and more"], ADVERSARIAL_COMPONENTS[n]
    )
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=24)
    expected = reference_counts(dec, tuples, cfg)
    assert expected.any()
    for block_tuples in (1, 3):
        counts = null_in_blocks(dec, tuples, cfg, 7, block_tuples=block_tuples)
        assert np.array_equal(counts, expected), block_tuples


def test_margin_keeps_violations_of_components_inside_the_interval(monkeypatch):
    # All components in [-1, 1], yet the float form exceeds n - 2. At order
    # 4, C = (1, 1 - 2**-53, 1 - 2**-52) gives 2.0000000000000004 > 2; 2 P - 1
    # never equals 1 - 2**-53, so the engine cannot draw that triple. At
    # order 5 it draws C = (1, 1, 1 - 2**-52, 1 - 2**-52), from P = (1, 1,
    # 1 - 2**-53, 1 - 2**-53) at sigma 0, in every replica: a block skip
    # with no margin would count 0.
    for corr, n in (([1.0, 1 - 2**-53, 1 - 2**-52], 4), ([1.0, 1.0, 1 - 2**-52, 1 - 2**-52], 5)):
        corr_sum, corr_prod = 0.0, 1.0
        for c in corr:
            corr_sum += c
            corr_prod *= c
        assert max(abs(c) for c in corr) <= 1.0 and corr_sum - corr_prod > n - 2
    dec, tuples = adversarial_fixture([1.0, 1.0, 1 - 2**-53, 1 - 2**-53, 0.5, 0.5],
                                      [0.0] * 4 + [0.05] * 2, [(0, 1, 2, 3)])
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=25)
    expected = reference_counts(dec, tuples, cfg)
    assert (expected == 1).all()
    drawn = counting_draws(monkeypatch)
    for block in (None, 1, 7):
        assert np.array_equal(null_in_blocks(dec, tuples, cfg, block), expected)
    # C = 1 is outside the margin: every replica took the float path.
    assert sum(drawn) == 3 * cfg.replicas * 4


@pytest.mark.parametrize("truth", ["quantum", "classical_flat"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [3, 4])
def test_null_skips_blocks_and_stays_exact(n, seed, truth, monkeypatch):
    pts = generate_synthetic(PARAMS, truth, 30, 0.5, 50.0, 0.05, seed=seed)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, n, 0.005)
    cfg = PseudoConfig(replicas=20_000, seed=26)
    expected = reference_counts(dec, tuples, cfg)
    drawn = counting_draws(monkeypatch)
    counts = classical_null_distribution(dec, tuples, cfg)
    assert np.array_equal(counts, expected)
    if truth == "classical_flat":
        # C = 2 P - 1 stays near 0: every block is skipped, no draw is a
        # float draw and ndtri never runs on one.
        assert not drawn and not counts.any()
    else:
        assert expected.any() and sum(drawn) > 0


def counting_keys(monkeypatch, planted=None):
    """Count the keys the engine hashes, through montecarlo.draw_keys.

    planted maps (replica, point) pairs to a key that the null's stream
    returns there in place of the hashed one, as if the hash had drawn it.
    """
    hashed = []

    def counted(seed, stream, *words, **kwargs):
        keys = draw_keys(seed, stream, *words, **kwargs)
        hashed.append(keys.size)
        if stream == STREAM_PSEUDODATA:
            replicas, points = words[:2]
            for (replica, point), key in (planted or {}).items():
                keys[(replicas == replica) & (points == point)] = key
        return keys

    monkeypatch.setattr(montecarlo, "draw_keys", counted)
    return hashed


# Point 1 (C within 0.83 of 0) and points 0, 2 and 3 (C always below 0) are
# inert at every order: every key's draw lies in the margin. Points 4 and 5
# reach past C = 1: live.
TOP_KEY_SPECTRA = {
    "mixed": ([0.3, 0.5, 0.3, 0.3, 0.97, 0.9], [0.02, 0.05, 0.02, 0.02, 0.03, 0.05]),
    "all inert": ([0.3, 0.5, 0.3, 0.3, 0.5, 0.5], [0.02, 0.05, 0.02, 0.02, 0.05, 0.05]),
}
TOP_KEY_REPLICAS = 1009


@pytest.mark.parametrize("spectrum", TOP_KEY_SPECTRA)
@pytest.mark.parametrize("replica", [0, 17, TOP_KEY_REPLICAS - 1])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_an_inert_point_drawing_the_top_key_stays_inert(n, replica, spectrum, monkeypatch):
    # Point 1 draws the top key in one replica. It draws the value of the
    # key below it, inside the margin, so the key passes may leave the
    # point out: the float form's counts are the same either way.
    dec, tuples = adversarial_fixture(*TOP_KEY_SPECTRA[spectrum], ADVERSARIAL_COMPONENTS[n])
    cfg = PseudoConfig(replicas=TOP_KEY_REPLICAS, seed=31)
    planted = {(replica, 1): KEY_LIMIT - 1}
    expected = reference_counts(dec, tuples, cfg, planted)
    assert np.array_equal(
        expected, reference_counts(dec, tuples, cfg, {(replica, 1): KEY_LIMIT - 2})
    )
    if spectrum == "all inert":
        assert not expected.any()
    hashed = counting_keys(monkeypatch, planted)
    for block in (None, 7):
        hashed.clear()
        assert np.array_equal(null_in_blocks(dec, tuples, cfg, block), expected), block
        # With every point inert no key is hashed at all.
        assert bool(hashed) == (spectrum == "mixed")


@pytest.mark.parametrize("n", [3, 4])
def test_a_point_unsafe_just_below_the_top_key_stays_live(n, monkeypatch):
    # (k + 0.5) rounds to even, and the top key takes the uniform of the key
    # below it, so keys KEY_LIMIT - 3 to KEY_LIMIT - 1 share the last u:
    # KEY_LIMIT - 3 is the highest first unsafe key a point can have.
    top = uniform_from_keys(np.arange(KEY_LIMIT - 4, KEY_LIMIT, dtype=np.uint64))
    assert top[0] < top[1] == top[2] == top[3] < 1.0

    # Bisect sigma for the smallest at which point 1, at p 0.6, draws C > 1
    # there; its lowest draw stays inside the margin.
    def above(sd):
        return 2.0 * normal_from_keys(np.uint64(KEY_LIMIT - 3), 0.6, sd) - 1.0 > 1.0

    lo, hi = 0.0, 1.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    probs, sigmas = (
        [*column[:1], value, *column[2:]]
        for column, value in zip(TOP_KEY_SPECTRA["all inert"], (0.6, hi))
    )
    low, first_unsafe = oracles.key_thresholds_by_bisection(probs, sigmas, MARGIN_EDGES)
    assert low[1] == 0 and first_unsafe[1] == KEY_LIMIT - 3
    assert (low[2:] == 0).all() and (first_unsafe[2:] == KEY_LIMIT).all()

    dec, tuples = adversarial_fixture(probs, sigmas, ADVERSARIAL_COMPONENTS[n])
    cfg = PseudoConfig(replicas=TOP_KEY_REPLICAS, seed=32)
    planted = {(17, 1): KEY_LIMIT - 3}
    expected = reference_counts(dec, tuples, cfg, planted)
    if n == 3:
        # C just above 1 with partners below 0 violates; a draw inside the
        # margin would not.
        below = reference_counts(dec, tuples, cfg, {(17, 1): KEY_LIMIT - 4})
        assert expected[17] > below[17]
    hashed = counting_keys(monkeypatch, planted)
    counts = classical_null_distribution(dec, tuples, cfg)
    assert np.array_equal(counts, expected)
    # Its row is hashed in every replica: it is live.
    assert sum(hashed) >= cfg.replicas


@pytest.mark.parametrize("n", [3, 4])
def test_classical_flat_nulls_hash_no_key(n, monkeypatch):
    pts = generate_synthetic(PARAMS, "classical_flat", 30, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, n, 0.005)
    hashed = counting_keys(monkeypatch)
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=29)
    counts = classical_null_distribution(dec, tuples, cfg)
    assert np.array_equal(counts, reference_counts(dec, tuples, cfg))
    assert not counts.any()
    # Every used point is inert: no key pass runs, at any replica count.
    classical_null_distribution(dec, tuples, PseudoConfig(replicas=100_000, seed=29))
    assert not hashed


def test_a_quantum_order3_null_hashes_live_rows_and_draws_unskipped_blocks(monkeypatch):
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(pts, PARAMS)
    tuples = select_ntuples(dec, 3, 0.005)
    cfg = PseudoConfig(replicas=ORACLE_REPLICAS, seed=30)
    block = 2
    used = np.unique(tuples.comp_idx)
    probs, sigmas = dec.p_mumu[used], dec.sigma[used]
    low, high = (
        edge.astype(np.uint64)
        for edge in oracles.key_thresholds_by_bisection(probs, sigmas, MARGIN_EDGES)
    )
    inert = (low == 0) & (high == KEY_LIMIT)
    assert 0 < np.count_nonzero(inert) < used.size
    keys = draw_keys(cfg.seed, STREAM_PSEUDODATA, np.arange(cfg.replicas)[:, None], used, 0)
    in_margin = ((keys >= low) & (keys < high)).all(axis=1)
    # Replicas in key blocks that hold an out-of-margin draw: one shard, cut
    # into the fewest even blocks of at most `block` replicas.
    n_blocks = -(-cfg.replicas // block)
    edges = [cfg.replicas * j // n_blocks for j in range(n_blocks + 1)]
    unskipped = sum(b - a for a, b in zip(edges, edges[1:]) if not in_margin[a:b].all())
    assert 0 < unskipped < cfg.replicas

    hashed = counting_keys(monkeypatch)
    drawn = counting_draws(monkeypatch)
    counts = null_in_blocks(dec, tuples, cfg, block, workers=1)
    assert np.array_equal(counts, reference_counts(dec, tuples, cfg))
    live = used.size - np.count_nonzero(inert)
    assert sum(hashed) == cfg.replicas * live + unskipped * (used.size - live)
    assert sum(drawn) == unskipped * used.size


# Above three key blocks of the six adversarial points (65536 // 6 = 10922
# replicas each): three workers get a shard each at the default blocking.
SHARDED_REPLICAS = 2**15 - 1
SYSTEMATICS = dict(sys_amplitude_sigma=0.05, sys_phase_sigma=0.05)


@pytest.mark.parametrize("systematics", [False, True])
@pytest.mark.parametrize("case", ADVERSARIAL_SPECTRA)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_counts_do_not_depend_on_the_worker_count(n, case, systematics, monkeypatch):
    dec, tuples = adversarial_fixture(*ADVERSARIAL_SPECTRA[case], ADVERSARIAL_COMPONENTS[n])
    cfg = PseudoConfig(replicas=SHARDED_REPLICAS, seed=27, **(SYSTEMATICS if systematics else {}))
    assert null_block_shape(0, len(dec))[0] * 3 < cfg.replicas
    monkeypatch.setattr(montecarlo, "_available_cores", lambda: 1)
    serial = classical_null_distribution(dec, tuples, cfg)
    assert serial.any()
    # Long blocks run on every replica, short ones on the first few, which
    # a longer run draws with the same keys.
    runs = [(None, cfg.replicas), (ORACLE_REPLICAS, cfg.replicas), (7, 211), (1, 31)]
    for workers in (1, 2, 3):
        for block, replicas in runs:
            counts = null_in_blocks(
                dec, tuples, dataclasses.replace(cfg, replicas=replicas), block, workers
            )
            assert np.array_equal(counts, serial[:replicas]), (workers, block)


def test_a_failing_shard_raises_and_leaves_no_thread_behind(monkeypatch):
    dec, tuples = adversarial_fixture(*ADVERSARIAL_SPECTRA["p near 0 and 1"],
                                      ADVERSARIAL_COMPONENTS[4])
    cfg = PseudoConfig(replicas=SHARDED_REPLICAS, seed=28, **SYSTEMATICS)
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise RuntimeError("shard failed")
        return normal_from_keys(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_available_cores", lambda: 3)
    monkeypatch.setattr(montecarlo, "normal_from_keys", fail_second)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="shard failed"):
        classical_null_distribution(dec, tuples, cfg)
    assert threading.active_count() == threads
    assert calls[1] is not threading.main_thread()


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


def test_a_wide_spectrum_keeps_a_floor_of_tuples_per_block():
    # The 1000-bin order-3 cell: its draw rows alone fill the budget at the
    # replica floor, which left one tuple a block and a Python loop per tuple.
    assert null_block_shape(462_786, 1000) == (MIN_BLOCK_REPLICAS, MIN_BLOCK_TUPLES)
    # A set smaller than the floor is one block.
    assert null_block_shape(100, 1000) == (MIN_BLOCK_REPLICAS, 100)


def shard_sizes(shards):
    return [sum(map(len, blocks)) for blocks in shards]


def test_a_thousand_replicas_of_99_points_make_two_equal_shards():
    # The fine-n4 null: a key-block budget of 661 replicas used to give
    # shards of 661 and 339.
    assert null_block_shape(0, 99)[0] == 661
    assert null_shards(1000, 99, 2) == [[range(0, 500)], [range(500, 1000)]]


NULL_SHARD_GRID = [
    (replicas, n_points, workers)
    for replicas in (1, 2, 127, 500, 661, 662, 1000, 1321, 2**15 - 1, 100_000)
    for n_points in (1, 6, 30, 99, 5000)
    for workers in (1, 2, 3, 8)
]


def test_null_shards_are_equal_and_cut_into_the_fewest_even_key_blocks():
    for replicas, n_points, workers in NULL_SHARD_GRID:
        budget = null_block_shape(0, n_points)[0]
        shards = null_shards(replicas, n_points, workers)
        blocks = [block for shard in shards for block in shard]
        case = (replicas, n_points, workers)
        # The blocks tile the replicas in order.
        assert blocks[0].start == 0 and blocks[-1].stop == replicas, case
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:])), case
        assert len(shards) == min(workers, -(-replicas // budget)), case
        sizes = shard_sizes(shards)
        assert max(sizes) - min(sizes) <= 1, case
        for shard, size in zip(shards, sizes):
            lengths = [len(block) for block in shard]
            assert len(shard) == -(-size // budget), case
            assert 1 <= min(lengths) and max(lengths) <= budget, case
            assert max(lengths) - min(lengths) <= 1, case


@given(
    n_tuples=st.integers(0, 10**9),
    n_points=st.integers(0, 10**7),
)
def test_null_block_shape_is_always_at_least_one(n_tuples, n_points):
    block_replicas, block_tuples = null_block_shape(n_tuples, n_points)
    assert block_replicas >= 1
    assert 1 <= block_tuples <= max(n_tuples, 1)


def test_engine_validation():
    dec, tuples = shared_fixture()
    with pytest.raises(DomainError):
        classical_null_distribution(dec, [], PseudoConfig(replicas=2000))
    # A set holds one order: rows of another order's width are rejected.
    with pytest.raises(DomainError):
        TupleSet(n=3, size=6, comp_idx=[(1, 2, 3), (1, 2, 4)], target_idx=[0, 0],
                 mismatch=[0.0, 0.0])
    with pytest.raises(IndexError):
        TupleSet(n=3, size=6, comp_idx=[(4, 99)], target_idx=[0], mismatch=[0.0])
    # A negative target used to pass the null's range check, which tested
    # only the largest index.
    with pytest.raises(IndexError):
        TupleSet(n=3, size=6, comp_idx=[(4, 3)], target_idx=[-1], mismatch=[0.0])
    with pytest.raises(IndexError):
        classical_null_distribution(
            dataset_with_phases(SHARED_PHASES[:5]), tuples, PseudoConfig(replicas=2000)
        )


def test_both_null_engines_refuse_replicas_past_the_budget(monkeypatch):
    dec, tuples = shared_fixture()
    law = montecarlo.order3_count_law(dec, tuples)
    monkeypatch.setattr(errors, "SIZE_BUDGET_BYTES", 2000 * montecarlo.REPLICA_BYTES)
    for engine in (
        lambda cfg: classical_null_distribution(dec, tuples, cfg),
        lambda cfg: montecarlo.counts_from_law(law, cfg),
    ):
        assert engine(PseudoConfig(replicas=2000)).size == 2000
        with pytest.raises(DomainError, match="^replicas 2001 is past the budget of 2000 "):
            engine(PseudoConfig(replicas=2001))


def test_pseudo_config_validation():
    with pytest.raises(DomainError):
        PseudoConfig(replicas=0)
    with pytest.raises(DomainError):
        PseudoConfig(replicas=1000, seed=-1)
    with pytest.raises(DomainError):
        PseudoConfig(replicas=1000, sys_amplitude_sigma=-0.1)
    for bad in (True, 1.5, 2.0, "3", None):
        with pytest.raises(DomainError, match="seed must be an integer"):
            PseudoConfig(replicas=1000, seed=bad)
        with pytest.raises(DomainError, match="replicas must be an integer"):
            PseudoConfig(replicas=bad)
    assert PseudoConfig(replicas=np.int64(1000), seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_systematics_are_deterministic_and_widen_the_null():
    dec, tuples = shared_fixture()
    plain = classical_null_distribution(
        dec, tuples, PseudoConfig(replicas=20_000, seed=7)
    )
    jittered_cfg = PseudoConfig(
        replicas=20_000, seed=7, sys_amplitude_sigma=0.3, sys_phase_sigma=0.1
    )
    jittered = classical_null_distribution(dec, tuples, jittered_cfg)
    assert np.array_equal(
        jittered, classical_null_distribution(dec, tuples, jittered_cfg)
    )
    assert jittered.var(ddof=1) > plain.var(ddof=1)


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
    # K_3 = -1 + 2 (P_1 + P_2) - 2 P_0 with P_1 = P_2 = 0.75: 1.2, 0.8 and
    # exactly the bound 1.0, which is not a violation.
    triple = TupleSet(n=3, size=3, comp_idx=[(1, 2)], target_idx=[0], mismatch=[0.0])
    dec = dataset_with_phases((1.2, 0.7, 0.5))
    flags = []
    for target_p in (0.4, 0.6, 0.5):
        probs = (target_p, 0.75, 0.75)
        points = dataclasses.replace(dec, p_mumu=probs)
        table = tuple_table(triple, points, PARAMS)
        flags.append(bool(whole_column(table, "violation")[0]))
    assert whole_column(table, "k_value")[0] == 1.0
    assert flags == [True, False, False]
    empty = TupleSet(n=3, size=3, comp_idx=[], target_idx=[], mismatch=[])
    assert np.count_nonzero(whole_column(tuple_table(empty, dec, PARAMS), "violation")) == 0
    with pytest.raises(DomainError):
        TupleSet(n=3, size=3, comp_idx=[(1, 2, 0)], target_idx=[0], mismatch=[0.0])


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


def k_columns(table):
    return [tuple(whole_column(table, name) for name in ("k_value", "k_sigma", "k_quantum_model"))]


def test_chi_square_vanishes_on_the_model_curve():
    dec = dataset_with_phases(SHARED_PHASES, sigma=0.01)
    dec = dataclasses.replace(dec, p_mumu=survival_probability(0.95, dec.psi))
    tuples = select_ntuples(dec, 3, 0.005)
    table = tuple_table(tuples, dec, PARAMS)
    assert len(table) == 4
    chi2, dof = chi_square_quantum(k_columns(table))
    assert chi2 < 1e-12
    assert dof == 3


def test_chi_square_tracks_unit_gaussian_scatter():
    rng = np.random.default_rng(16)
    sigma = 0.05
    chi2_values = []
    for _ in range(30):
        pulls = rng.standard_normal(82)
        theory = []
        for _ in pulls:
            psis = rng.uniform(0.3, 1.5, size=2)
            probs = [float(survival_probability(0.95, p)) for p in psis]
            prob_sum = float(survival_probability(0.95, psis.sum()))
            theory.append(-1.0 + 2.0 * sum(probs) - 2.0 * prob_sum)
        theory = np.array(theory)
        chi2, dof = chi_square_quantum([(theory + sigma * pulls, np.full(82, sigma), theory)])
        assert dof == 81
        assert_allclose(chi2, float(pulls @ pulls), rtol=1e-9)
        chi2_values.append(chi2)
    # chi2 with 81 dof: mean 81, sd about 12.7.
    assert 73.0 < np.mean(chi2_values) < 89.0


def test_chi_square_validation():
    with pytest.raises(DomainError):
        chi_square_quantum([(np.array([1.0]), np.array([0.1]), np.array([0.9]))])
    with pytest.raises(DomainError):
        chi_square_quantum(
            [(np.array([1.0, 1.0]), np.array([0.1, 0.0]), np.array([0.9, 0.9]))]
        )


def test_chi_square_sums_across_chunks_and_reads_them_all_before_it_raises():
    rng = np.random.default_rng(17)
    k, sd, model = rng.normal(size=50), rng.uniform(0.05, 0.2, 50), rng.normal(size=50)
    whole = chi_square_quantum([(k, sd, model)])
    cuts = (0, 1, 8, 31, 50)
    chunks = [(k[a:b], sd[a:b], model[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert chi_square_quantum(chunks) == whole == (whole[0], 49)
    # The analysis counts violations in the same pass, so a chunk with a
    # zero sd must not stop the reading.
    read = []

    def zero_sd():
        for chunk in chunks:
            read.append(chunk)
            yield chunk[0], np.zeros_like(chunk[1]), chunk[2]

    with pytest.raises(DomainError, match="positive uncertainty"):
        chi_square_quantum(zero_sd())
    assert len(read) == len(chunks)


def classical_markov_dataset(lam, sigma, bins, seed):
    """Noisy spectrum whose truth obeys the product rule exactly."""
    pos = np.arange(bins, dtype=float)
    jit = uniform_open(seed, STREAM_SYNTH_ENERGY, 1, np.arange(1, bins - 1)) - 0.5
    pos[1:-1] += 0.5 * jit
    energies = 0.5 * (50.0 / 0.5) ** (pos / (bins - 1))
    dec = attach_phases(Spectrum(energies, 0.5, sigma), PARAMS)
    p_true = markov_decay_probs(dec.psi, lam=lam)
    p_obs = truncated_normal(seed, STREAM_SYNTH_PROB, 1, np.arange(bins), p_true, sigma)
    return dataclasses.replace(dec, p_mumu=p_obs, psi=None)


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
        report, _, _ = analyze_dataset(pts, cfg)
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
            values.append(analyze_dataset(pts, cfg)[0].z_score)
        return float(np.median(values))

    coarse, standard, fine = (median_z(r) for r in (0.08, 0.05, 0.03))
    assert coarse < standard < fine


def test_full_report_is_reproducible():
    pts = generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, seed=2)
    cfg = RunConfig(
        params=PARAMS, tolerance=0.005, pseudo=PseudoConfig(replicas=5000, seed=2)
    )
    first, first_table, _ = analyze_dataset(pts, cfg)
    second, second_table, _ = analyze_dataset(pts, cfg)
    assert first == second
    assert first_table.columns.keys() == second_table.columns.keys()
    assert all(
        np.array_equal(whole_column(first_table, n), whole_column(second_table, n))
        for n in first_table.columns
    )
    assert first.status == "ok"
    assert 0 <= first.n_violations_observed <= first.n_tuples
