"""The exact order-3 null law, its sampler, and when the pipeline takes it.

order3_count_law is checked against exhaustive enumeration of the 2^k
above/below outcomes on hand-built graphs, and against the closed-form
moments of oracles.exact_order3_null_moments on every spectrum the MINOS-like
benchmark pool holds. counts_from_law is checked against the inverse CDF
it documents and, by a G-test, against the law itself.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from nulgi import montecarlo, pipeline
from nulgi.errors import DomainError
from nulgi.montecarlo import PseudoConfig, counts_from_law, order3_count_law
from nulgi.oscillation import OscParams
from nulgi.pipeline import RunConfig
from nulgi.sampling import KEY_LIMIT, STREAM_NULL_COUNT, draw_keys, uniform_from_keys
from nulgi.selection import TupleSet, attach_phases, select_ntuples
from nulgi.synthetic import generate_synthetic

import oracles
from test_montecarlo import counting_keys

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)


@dataclasses.dataclass
class Columns:
    """The law reads a spectrum's p_mumu and sigma columns only. A measured
    P lies in [0, 1], so a point fixed above P = 1 needs this stand-in."""

    p_mumu: np.ndarray
    sigma: np.ndarray

    def __len__(self):
        return len(self.p_mumu)


# (points as (p, sigma), component pairs). Points at p 0.3, sigma 0.02 have
# q = Phi(-35), which underflows: they are fixed below 1. A point at p 1.4 is
# fixed above it.
GRAPHS = {
    "repeated pair": (
        [(0.97, 0.05), (0.93, 0.04), (0.99, 0.02)],
        [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)],
    ),
    "multi-edge": (
        [(0.97, 0.05), (0.93, 0.04), (0.99, 0.02), (0.9, 0.1)],
        [(0, 1), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2)],
    ),
    "cycle": (
        [(0.97, 0.05), (0.93, 0.04), (0.99, 0.02), (0.9, 0.1), (1.0, 0.03)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
    ),
    "complete": (
        [(0.97, 0.05), (0.93, 0.04), (0.99, 0.02), (0.9, 0.1), (0.95, 0.03)],
        list(itertools.combinations(range(5), 2)),
    ),
    "fixed points": (
        [(0.97, 0.05), (0.93, 0.04), (0.3, 0.02), (1.4, 0.02), (0.99, 0.02), (0.3, 0.02)],
        [(0, 2), (1, 3), (2, 3), (3, 2), (0, 1), (4, 3), (2, 5), (4, 4)],
    ),
    "all fixed": (
        [(0.3, 0.02), (1.4, 0.02), (0.2, 0.01)],
        [(0, 1), (1, 2), (0, 2), (0, 2)],
    ),
}


def graph(name):
    points, pairs = GRAPHS[name]
    dataset = Columns(*map(np.array, zip(*points)))
    tuples = TupleSet(
        n=3, size=len(dataset), comp_idx=pairs, target_idx=[0] * len(pairs),
        mismatch=[0.0] * len(pairs),
    )
    return dataset, tuples


def enumerated_law(dataset, pairs):
    """The count's pmf over all 2^k above/below outcomes of every point."""
    q = oracles.exceedance_probabilities(dataset.p_mumu.tolist(), dataset.sigma.tolist())
    pmf = np.zeros(len(pairs) + 1)
    for above in itertools.product((False, True), repeat=len(q)):
        weight = math.prod(qi if a else 1.0 - qi for qi, a in zip(q, above))
        pmf[sum(above[a] != above[b] for a, b in pairs)] += weight
    return pmf


@pytest.mark.parametrize("name", GRAPHS)
def test_law_matches_enumeration(name):
    dataset, tuples = graph(name)
    law = order3_count_law(dataset, tuples)
    want = enumerated_law(dataset, GRAPHS[name][1])
    assert law[-1] > 0.0 and law.size <= want.size
    # Beyond the law's support lies at most the fixed points' neglected mass.
    assert_allclose(np.pad(law, (0, want.size - law.size)), want, rtol=0.0, atol=1e-12)


def test_all_fixed_graph_is_one_shifted_point():
    # Points 0 and 2 sit below P = 1 and point 1 above: the edges (0, 1)
    # and (1, 2) are cut in every replica, the double edge (0, 2) never.
    law = order3_count_law(*graph("all fixed"))
    assert law.tolist() == [0.0, 0.0, 1.0]


def pool_spectrum(truth, seed):
    points = attach_phases(
        generate_synthetic(PARAMS, truth, 30, 0.5, 50.0, 0.05, seed), PARAMS
    )
    return points, select_ntuples(points, 3, 0.005)


def without_sigma(points, i):
    """The spectrum with point i's uncertainty set to zero."""
    stat = points.sigma_stat.copy()
    stat[i] = 0.0
    return dataclasses.replace(points, sigma_stat=stat)


@pytest.mark.parametrize("truth", ["quantum", "classical_flat"])
def test_law_moments_match_the_oracle_on_the_minos_pool(truth):
    for seed in range(32):
        points, tuples = pool_spectrum(truth, seed)
        law = order3_count_law(points, tuples)
        q = oracles.exceedance_probabilities(points.p_mumu.tolist(), points.sigma.tolist())
        want_mean, want_sd = oracles.exact_order3_null_moments(tuples.comp_idx, q)
        counts = np.arange(law.size)
        mean = float(law @ counts)
        sd = math.sqrt(float(law @ (counts - mean) ** 2))
        assert_allclose((mean, sd), (want_mean, want_sd), rtol=1e-12, atol=0.0)
        if truth == "classical_flat":
            assert law.tolist() == [1.0]


def test_law_is_none_beyond_its_budget(monkeypatch):
    # Quantum seed 0 has width 1 and 20 edges (one of its 21 tuples is a
    # repeated pair): a largest factor of 2**2 x 21 entries.
    points, tuples = pool_spectrum("quantum", 0)
    monkeypatch.setattr(montecarlo, "ORDER3_LAW_ENTRIES", 4 * 21)
    assert order3_count_law(points, tuples) is not None
    monkeypatch.setattr(montecarlo, "ORDER3_LAW_ENTRIES", 4 * 21 - 1)
    assert order3_count_law(points, tuples) is None


def law_without_the_core_check(monkeypatch, dataset, tuples):
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_has_core", lambda edges, alive, k: False)
        return order3_count_law(dataset, tuples)


def test_the_core_check_refuses_only_what_the_elimination_refuses(monkeypatch):
    # At every budget up to one that admits the whole graph, the law with
    # the k-core check is the law of the elimination alone, None included.
    cases = [graph(name) for name in GRAPHS]
    cases += [pool_spectrum(truth, seed) for truth in ("quantum", "classical_flat") for seed in range(4)]
    refused = 0
    for dataset, tuples in cases:
        edges = int(np.count_nonzero(tuples.comp_idx[:, 0] != tuples.comp_idx[:, 1]))
        for width in range(8):
            for budget in (2 ** (width + 1) * (edges + 1) - 1, 2 ** (width + 1) * (edges + 1)):
                monkeypatch.setattr(montecarlo, "ORDER3_LAW_ENTRIES", budget)
                law = order3_count_law(dataset, tuples)
                want = law_without_the_core_check(monkeypatch, dataset, tuples)
                assert (law is None) == (want is None)
                refused += law is None
                if law is not None:
                    assert law.tolist() == want.tolist()
    assert refused > 0


def test_a_wide_graph_is_refused_before_its_per_edge_work():
    # 600 bins select 165 744 order-3 tuples, too wide a graph for the law,
    # which must refuse it before it builds anything per edge.
    points = attach_phases(generate_synthetic(PARAMS, "quantum", 600, 0.5, 50.0, 0.05, 0), PARAMS)
    tuples = select_ntuples(points, 3, 0.005)
    tracemalloc.start()
    try:
        law = order3_count_law(points, tuples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law is None
    assert peak < 120 * len(tuples)


def test_law_validation():
    points, tuples = pool_spectrum("quantum", 0)
    with pytest.raises(DomainError, match="order 3"):
        order3_count_law(points, select_ntuples(points, 4, 0.005))
    empty = TupleSet(n=3, size=len(points), comp_idx=[], target_idx=[], mismatch=[])
    with pytest.raises(DomainError, match="no tuples"):
        order3_count_law(points, empty)
    points = without_sigma(points, int(tuples.comp_idx[0, 0]))
    with pytest.raises(DomainError, match="positive sigma"):
        order3_count_law(points, tuples)


@pytest.mark.parametrize("replicas", [1, 5, montecarlo.LAW_BLOCK, 3 * montecarlo.LAW_BLOCK + 7])
def test_sampled_counts_are_the_inverse_cdf_of_each_replica_uniform(replicas):
    law = order3_count_law(*pool_spectrum("quantum", 0))
    counts = counts_from_law(law, PseudoConfig(replicas=replicas, seed=6))
    uniform = uniform_from_keys(draw_keys(6, STREAM_NULL_COUNT, np.arange(replicas), 0))
    want = np.minimum(np.searchsorted(np.cumsum(law), uniform, side="right"), law.size - 1)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, want)


def test_counts_above_the_last_cumulative_sum_are_clipped_to_the_support():
    # The sums reach only 0.75: every uniform above lands on the top count.
    law = np.array([0.25, 0.0, 0.5])
    counts = counts_from_law(law, PseudoConfig(replicas=20_000, seed=3))
    assert counts.max() == 2
    assert np.count_nonzero(counts == 1) == 0


def reference_counts(law, keys):
    """The float inverse CDF counts_from_law documents, clipped to the support."""
    cdf = np.cumsum(law)
    counts = np.searchsorted(cdf, uniform_from_keys(keys), side="right")
    return np.minimum(counts, np.flatnonzero(law)[-1])


# Laws whose thresholds the key counter must respect: a pool law, interior
# zeros (repeated sums), a last sum below 1, a sum that no key reaches
# (above 1), a mass too small for any key (threshold 0), and more levels
# than a uint8 count holds, after such a mass.
EDGE_LAWS = {
    "pool": None,
    "interior zeros": np.array([0.125, 0.0, 0.0, 0.375, 0.0, 0.5]),
    "last sum below 1": np.array([0.25, 0.0, 0.5]),
    "sum above 1": np.array([0.5, 0.5000000000000002, 1e-300]),
    "tiny mass": np.array([1e-300, 0.25, 0.75 - 1e-17, 1e-17]),
    "many levels": np.append(1e-300, np.full(300, 1.0 / 300)),
}


@pytest.mark.parametrize("name", EDGE_LAWS)
def test_key_counts_equal_the_float_inverse_cdf_at_every_threshold(name):
    law = EDGE_LAWS[name]
    if law is None:
        law = order3_count_law(*pool_spectrum("quantum", 0))
    thresholds = montecarlo.law_thresholds(law)
    cdf = np.cumsum(law)
    # Each threshold is the first key whose uniform reaches its sum, and
    # KEY_LIMIT where no key does.
    assert ((0 <= thresholds) & (thresholds <= KEY_LIMIT)).all()
    inside = (thresholds > 0) & (thresholds < KEY_LIMIT)
    assert inside.any()
    assert (uniform_from_keys(thresholds[inside] - 1) < cdf[inside]).all()
    assert (uniform_from_keys(thresholds[inside]) >= cdf[inside]).all()
    never = thresholds == KEY_LIMIT
    assert (uniform_from_keys(np.array([KEY_LIMIT - 1])) < cdf[never]).all()
    assert never.any() or name != "sum above 1"
    keys = np.concatenate([thresholds - 1, thresholds, thresholds + 1, [0, KEY_LIMIT - 1]])
    keys = np.unique(np.clip(keys, 0, KEY_LIMIT - 1)).astype(np.uint64)
    counter = montecarlo.LawCounter(law)
    assert np.array_equal(counter.count(keys), reference_counts(law, keys))
    assert (counter.levels.size > 255) == (name == "many levels")


def test_sampled_histogram_agrees_with_the_law_by_a_g_test():
    law = order3_count_law(*pool_spectrum("quantum", 1))
    replicas = 200_000
    counts = counts_from_law(law, PseudoConfig(replicas=replicas, seed=41))
    observed = np.bincount(counts, minlength=law.size).astype(float)
    expected = law * replicas
    assert not observed[expected == 0.0].any()
    observed, expected = observed[expected > 0.0], expected[expected > 0.0]
    # Pool the sparse tail into one cell so that every cell expects >= 5.
    cut = int(np.flatnonzero(expected[::-1].cumsum()[::-1] >= 5.0)[-1])
    observed = np.append(observed[:cut], observed[cut:].sum())
    expected = np.append(expected[:cut], expected[cut:].sum())
    assert expected.min() >= 5.0
    seen = observed > 0
    g = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    assert observed.size >= 6
    assert chi2.sf(g, observed.size - 1) > 1e-3


def test_a_single_point_law_hashes_no_key(monkeypatch):
    hashed = counting_keys(monkeypatch)
    counts = counts_from_law(np.array([0.0, 0.0, 1.0]), PseudoConfig(replicas=1000, seed=2))
    assert counts.tolist() == [2] * 1000 and counts.dtype == np.int64
    # A classical_flat spectrum's law is one point at 0, so its analysis
    # hashes no key either.
    points, _ = pool_spectrum("classical_flat", 0)
    report, _, _, counts, _ = pipeline._analyze(points, RunConfig(params=PARAMS))
    assert not counts.any() and report.null_fit.kind == "degenerate"
    assert not hashed


def recording_null(monkeypatch):
    """Record the calls the pipeline makes to classical_null_distribution."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return montecarlo.classical_null_distribution(*args, **kwargs)

    monkeypatch.setattr(pipeline, "classical_null_distribution", recorded)
    return calls


def dispatched(monkeypatch, points, **overrides):
    """Whether an analysis reached the Monte Carlo null, and its counts."""
    calls = recording_null(monkeypatch)
    pseudo = PseudoConfig(replicas=2000, seed=5, **overrides.pop("pseudo", {}))
    config = RunConfig(params=PARAMS, pseudo=pseudo, **overrides)
    _, _, _, counts, _ = pipeline._analyze(points, config)
    return bool(calls), counts


def test_the_law_serves_order3_without_systematics(monkeypatch):
    points, tuples = pool_spectrum("quantum", 0)
    called, counts = dispatched(monkeypatch, points)
    assert not called
    law = order3_count_law(points, tuples)
    assert np.array_equal(counts, counts_from_law(law, PseudoConfig(replicas=2000, seed=5)))


@pytest.mark.parametrize("case", ["order 4", "over budget", "zero sigma", "systematics"])
def test_other_nulls_reach_the_monte_carlo(monkeypatch, case):
    points, tuples = pool_spectrum("quantum", 0)
    overrides = {}
    if case == "order 4":
        overrides["order"] = 4
    elif case == "over budget":
        monkeypatch.setattr(montecarlo, "ORDER3_LAW_ENTRIES", 1)
    elif case == "zero sigma":
        points = without_sigma(points, int(tuples.comp_idx[0, 0]))
    else:
        overrides["pseudo"] = {"sys_amplitude_sigma": 0.05}
    called, _ = dispatched(monkeypatch, points, **overrides)
    assert called
