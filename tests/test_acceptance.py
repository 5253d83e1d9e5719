"""Acceptance gate: nine criteria, one verdict line each.

Every criterion prints a single PASS/FAIL line (with capture suspended, so
the verdicts reach the run log) before asserting, so a red run still
reports the measured numbers.

A4 and A9 check the order-3 analysis of 30-bin synthetic spectra with 5%
errors against an exact oracle built without the package: brute-force
tuple search, a direct K_3 count and the closed-form null moments of
oracles.exact_order3_null_moments. At that operating point the statistic
cannot reach z of 5 reliably: the oracle predicts a median z near 3.6 and
z >= 5 for about 13% of spectra, so a 95%-at-z-5 bar would fail for any
correct implementation. A4 therefore asserts that the pipeline agrees with
the oracle on every seed and that its measured power matches the predicted
power; A9 asserts the same agreement at three tolerances and that widening
the tolerance only admits tuples. Both print the measured power and z.
The README's acceptance section carries the analysis.
"""

import importlib.util
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binom

from nulgi.leggett_garg import lgi_bound, quantum_bound
from nulgi.montecarlo import PseudoConfig
from nulgi.oscillation import OscParams, accumulated_phase, survival_probability
from nulgi.dataio import parse_dataset
from nulgi.pipeline import RunConfig, analyze_dataset, tuple_table
from nulgi.selection import Spectrum, TupleSet
from nulgi.synthetic import generate_synthetic

import oracles

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)

# The constant-density matter curve lives in its one script.
_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "matter_effect_check.py"
_spec = importlib.util.spec_from_file_location("matter_effect_check", _SCRIPT)
matter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matter)


@pytest.fixture
def verdict(capsys):
    """One gate line per criterion, printed outside pytest's fd capture."""
    def emit(tag: str, ok, detail: str) -> bool:
        status = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
        with capsys.disabled():
            print(f"{tag}: {status} - {detail}", flush=True)
        return ok is True
    return emit


def package_k(comp_probs, target_probs):
    """tuple_table's k_value and k_classical_data for the given probabilities.

    comp_probs holds one row of n - 1 component probabilities per tuple and
    target_probs one target probability; every tuple gets points of its own.
    """
    comp_probs = np.atleast_2d(np.asarray(comp_probs, dtype=float))
    rows, width = comp_probs.shape
    probs = np.column_stack([comp_probs, target_probs]).ravel().tolist()
    points = Spectrum(1.0 + np.arange(len(probs)), probs, 0.0, psi=np.ones(len(probs)))
    index = np.arange(len(points)).reshape(rows, width + 1)
    tuples = TupleSet(
        n=width + 1, size=len(points), comp_idx=index[:, :width],
        target_idx=index[:, width], mismatch=np.zeros(rows),
    )
    table = tuple_table(tuples, points, PARAMS)
    return table["k_value"], table["k_classical_data"]


def equal_phase_peak(n: int) -> float:
    """Best K_n over a dense equal-phase grid at full mixing."""
    psis = np.linspace(1e-4, math.pi / 2, 30_001)
    probs = survival_probability(1.0, psis)
    prob_sum = survival_probability(1.0, (n - 1) * psis)
    k = 2.0 * (n - 1) * probs - (n - 1) - 2.0 * prob_sum + 1.0
    best = int(np.argmax(k))
    k_value, _ = package_k([float(probs[best])] * (n - 1), [float(prob_sum[best])])
    return float(k_value[0])


def test_a1_bound_values_and_attainment(verdict):
    ok = lgi_bound(3) == 1.0 and lgi_bound(4) == 2.0
    ok = ok and abs(quantum_bound(3) - 1.5) < 1e-12
    ok = ok and abs(quantum_bound(4) - 2.0 * math.sqrt(2.0)) < 1e-12
    gaps = [abs(equal_phase_peak(n) - quantum_bound(n)) for n in (3, 4)]
    ok = ok and max(gaps) < 1e-6
    assert verdict(
        "A1", ok,
        f"bounds exact, equal-phase scan reaches the quantum maximum within "
        f"{max(gaps):.2e} for n in (3, 4)",
    )


def test_a2_classical_bound_soundness(verdict):
    rng = np.random.default_rng(2)
    worst = []
    for n in (3, 4, 5):
        draws = rng.uniform(-1.0, 1.0, size=(1_000_000, n - 1))
        k = draws.sum(axis=1) - draws.prod(axis=1)
        top = int(np.argmax(k))
        # the package's column agrees with the vectorized scan where it matters
        _, k_classical = package_k((draws[top] + 1.0) / 2.0, [0.5])
        assert math.isclose(float(k_classical[0]), float(k[top]), rel_tol=1e-12)
        worst.append(float(k.max()) - (n - 2))
    ok = all(w <= 0.0 for w in worst)
    assert verdict(
        "A2", ok,
        f"10^6 random correlation vectors per n: max K minus bound = "
        f"{max(worst):.3e} (exact, no tolerance)",
    )


def test_a3_three_paths_agree(verdict):
    rng = np.random.default_rng(3)
    by_order = {3: ([], [], []), 4: ([], [], [])}
    for trial in range(10_000):
        n = 3 + (trial % 2)
        s2t = float(rng.uniform(0.0, 1.0))
        phases = rng.uniform(0.05, 1.5, size=n - 1)
        total = float(phases.sum())

        comps, targets, others = by_order[n]
        comps.append([float(survival_probability(s2t, p)) for p in phases])
        targets.append(float(survival_probability(s2t, total)))
        correlation_path = oracles.k_n_from_correlations(
            [float(oracles.correlation(s2t, p)) for p in phases],
            float(oracles.correlation(s2t, total)),
        )
        bloch_path = sum(
            oracles.bloch_evolved_z(s2t, float(p))[2] for p in phases
        ) - oracles.bloch_evolved_z(s2t, total)[2]
        others.append((correlation_path, bloch_path))

    worst = 0.0
    for comps, targets, others in by_order.values():
        survival_path, _ = package_k(comps, targets)
        worst = max(worst, float(np.abs(survival_path[:, None] - np.array(others)).max()))
    ok = worst < 1e-10
    assert verdict(
        "A3", ok,
        f"survival, correlation and unitary-evolution paths agree within "
        f"{worst:.2e} on 10^4 random configurations",
    )


REPLICAS = 100_000

# Agreement bar between the pipeline's Monte Carlo null and the exact one,
# in Monte Carlo standard errors.
MC_ERRORS = 6.0


def synthetic_run(seed: int, truth: str = "quantum", tolerance: float = 0.005):
    points = generate_synthetic(PARAMS, truth, 30, 0.5, 50.0, 0.05, seed)
    config = RunConfig(
        params=PARAMS,
        tolerance=tolerance,
        pseudo=PseudoConfig(replicas=REPLICAS, seed=seed),
    )
    return (points, *analyze_dataset(points, config))


def order3_oracle(points, tolerance: float):
    """The order-3 analysis of a spectrum, rebuilt from the oracles alone.

    Tuples come from brute-force search over independently computed
    phases, the observed count from K_3 evaluated directly, and the null
    mean and sd from the exact closed form; z uses the sd the package's
    beta-binomial fit documents for those moments. grid is what
    oracles.predict_order3_z needs to redraw the spectrum's noise.
    """
    energies, probs = points.energy_gev, points.p_mumu
    sigmas = np.array(
        list(map(math.hypot, points.sigma_stat.tolist(), points.sigma_sys.tolist()))
    )
    assert np.all(np.diff(energies) > 0.0), "indices assume ascending energy"
    psis = oracles.vacuum_phase(PARAMS.dm2, PARAMS.baseline_km, energies)
    found = oracles.brute_force_ntuples(list(psis), 3, tolerance)
    pairs = np.array([c for c, _, _ in found], dtype=np.int64).reshape(-1, 2)
    targets = np.array([t for _, t, _ in found], dtype=np.int64)
    q = oracles.exceedance_probabilities(probs, sigmas)
    mean, sd = oracles.exact_order3_null_moments(pairs, q)
    fitted_sd = float(oracles.fitted_null_sd(mean, sd, len(pairs)))
    observed = int(oracles.order3_violations(probs, pairs, targets))
    p_true = 1.0 - PARAMS.sin2_2theta * np.sin(psis) ** 2
    return SimpleNamespace(
        tuples={(tuple(int(i) for i in c), int(t)) for c, t, _ in found},
        pairs=pairs,
        q=q,
        observed=observed,
        mean=float(mean),
        sd=float(sd),
        fitted_sd=fitted_sd,
        z=(observed - float(mean)) / fitted_sd,
        grid=(pairs, targets, p_true, sigmas),
    )


def mc_z_error(exact, replicas: int, rng) -> float:
    """Monte Carlo standard error of a z whose null comes from replicas draws.

    Delta method on z = (observed - mean) / sd. When the fit reports the
    count's own sd, the sample mean and sd carry errors set by the null's
    skewness g and kurtosis k, both read off a draw of the exceedance form:
    var(z) = (1 + z g + z^2 (k - 1) / 4) / replicas. Otherwise the binomial
    sd is a function of the sample mean alone.
    """
    trials = len(exact.pairs)
    if exact.fitted_sd == exact.sd and trials > 1:
        counts = oracles.exceedance_null_counts(exact.pairs, exact.q, 20_000, rng)
        dev = (counts - counts.mean()) / counts.std()
        skew, kurt = np.mean(dev**3), np.mean(dev**4)
        unit = 1.0 + exact.z * skew + exact.z**2 * (kurt - 1.0) / 4.0
    else:
        slope = (1.0 - 2.0 * exact.mean / trials) / (2.0 * exact.fitted_sd)
        unit = (exact.sd / exact.fitted_sd * (1.0 + exact.z * slope)) ** 2
    return math.sqrt(unit / replicas)


def paired_check(report, table, exact, rng) -> tuple[bool, float, float]:
    """One pipeline run against its exact oracle.

    Returns whether the tuple set and the observed count equal the
    oracle's, and how far the Monte Carlo null mean and the z sit from the
    exact values, in Monte Carlo standard errors.
    """
    tuples = set(zip(
        map(tuple, table["component_indices"].tolist()), table["target_index"].tolist()
    ))
    equal = tuples == exact.tuples and report.n_violations_observed == exact.observed
    if report.null_fit is None:
        return equal, math.inf, math.inf
    replicas = report.null_fit.n_samples
    mean_gap = abs(report.null_fit.mean_violations - exact.mean) / (
        exact.sd / math.sqrt(replicas)
    )
    z_gap = abs(report.z_score - exact.z) / mc_z_error(exact, replicas, rng)
    return equal, mean_gap, z_gap


def test_a4_quantum_truth_power(verdict):
    rng = np.random.default_rng(4)
    zs, checks, exacts = [], [], []
    for seed in range(50):
        points, report, table = synthetic_run(seed)
        exact = order3_oracle(points, 0.005)
        checks.append(paired_check(report, table, exact, rng))
        zs.append(report.z_score)
        exacts.append(exact)
    zs = np.array(zs)
    equal = sum(check[0] for check in checks)
    mean_gap, z_gap = np.max([check[1:] for check in checks], axis=0)
    paired = equal == len(zs) and max(mean_gap, z_gap) <= MC_ERRORS

    # Power the statistic has at this operating point: 200 fresh noise
    # draws on each of the 50 grids, each scored against its exact null.
    predicted = oracles.predict_order3_z(
        [e.grid for e in exacts], 200, np.random.default_rng(5)
    )
    p_hit = float(np.mean(predicted >= 5.0))
    hits = int(np.sum(zs >= 5.0))
    lo, hi = binom.interval(0.999, len(zs), p_hit)
    # The sample median's standard error on the predicted distribution's
    # probability scale is 0.5 / sqrt(50); 3.3 of them either side.
    rank = float(np.mean(predicted <= np.median(zs)))
    rank_gap = abs(rank - 0.5) / (0.5 / math.sqrt(len(zs)))
    power = lo <= hits <= hi and rank_gap <= 3.3

    ok = paired and power
    verdict(
        "A4", ok,
        f"exact order-3 oracle: tuples and observed counts equal on {equal}/50 "
        f"seeds, null mean within {mean_gap:.1f}, z within {z_gap:.1f} MC errors, bar "
        f"{MC_ERRORS:.0f}; z >= 5 in {hits}/50 seeds = {hits / 50:.0%} (predicted "
        f"{p_hit:.1%}, 99.9% band {lo:.0f}..{hi:.0f}); median z {np.median(zs):.3f} "
        f"(predicted {np.median(predicted):.3f}, {rank_gap:.1f} errors off); "
        f"z >= 5 in 95% of seeds is out of reach (predicted {p_hit:.0%})",
    )
    assert paired, (
        f"pipeline departs from the exact order-3 oracle: tuples or counts "
        f"differ on {len(zs) - equal} seeds, null mean off by {mean_gap:.1f} and "
        f"z by {z_gap:.1f} Monte Carlo errors"
    )
    assert power, (
        f"measured power departs from the prediction: {hits}/50 seeds at z >= 5 "
        f"against {lo:.0f}..{hi:.0f}, median z {np.median(zs):.3f} "
        f"{rank_gap:.1f} errors from the predicted {np.median(predicted):.3f}"
    )


def test_a5_null_calibration(verdict):
    zs = np.array([
        synthetic_run(seed, truth="classical_flat")[1].z_score for seed in range(200)
    ])
    frac = float(np.mean(np.abs(zs) <= 3.0))
    mean = float(zs.mean())
    ok = frac >= 0.99 and abs(mean) <= 0.2
    assert verdict(
        "A5", ok,
        f"|z| <= 3 in {frac:.0%} of 200 flat-truth seeds, mean z {mean:+.4f}",
    )


def test_a6_sum_rule_and_stationarity(verdict):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(500):
        e_a, e_b = rng.uniform(0.2, 80.0, size=2)
        e_c = 1.0 / (1.0 / e_a + 1.0 / e_b)
        total = accumulated_phase(PARAMS, e_a) + accumulated_phase(PARAMS, e_b)
        reference = accumulated_phase(PARAMS, e_c)
        worst = max(worst, abs(total - reference) / reference)
    stationary = True
    for _ in range(200):
        start = float(rng.uniform(0.0, 500.0))
        end = start + float(rng.uniform(0.0, 800.0))
        e = float(rng.uniform(0.1, 100.0))
        lhs = oracles.accumulated_phase_interval(PARAMS.dm2, e, start, end)
        rhs = oracles.accumulated_phase_interval(PARAMS.dm2, e, 0.0, end - start)
        stationary = stationary and lhs == rhs
    ok = worst < 1e-12 and stationary
    assert verdict(
        "A6", ok,
        f"phase sum rule holds to {worst:.2e} relative; interval phase exactly "
        f"stationary on 200 random windows",
    )


def test_a7_matter_effect_negligibility(verdict):
    # Charged-current forward scattering in rock: rho Y_e of 1.35 g/cm^3.
    v_c = matter.charged_current_potential_ev(1.35)
    energies = np.geomspace(0.5, 50.0, 400)
    vacuum = np.array(
        [survival_probability(PARAMS.sin2_2theta, accumulated_phase(PARAMS, e))
         for e in energies]
    )
    in_matter = np.array(
        [matter.matter_survival_probability(PARAMS, v_c, e) for e in energies]
    )
    shift = float(np.abs(in_matter - vacuum).max())

    worst = max(
        abs(matter.matter_survival_probability(PARAMS, v_c, float(e))
            - oracles.expm_survival(PARAMS.dm2, PARAMS.sin2_2theta, 735.0, float(e), v_c=v_c))
        for e in energies[::10]
    )
    ok = worst < 1e-10
    assert verdict(
        "A7", ok,
        f"earth-crust V_C = {v_c:.3e} eV moves P by at most {shift:.3e} over "
        f"0.5..50 GeV (informational); matter path matches the evolution "
        f"oracle within {worst:.2e}",
    )


def test_a8_digitized_spectrum_if_supplied(verdict):
    candidate = os.environ.get("NULGI_MINOS_CSV")
    path = Path(candidate) if candidate else Path(__file__).parent / "data" / "minos_spectrum.csv"
    if not path.is_file():
        verdict(
            "A8", "SKIP",
            "conditional criterion; supply a digitized spectrum via "
            "NULGI_MINOS_CSV or tests/data/minos_spectrum.csv",
        )
        pytest.skip("no digitized spectrum supplied")

    points = parse_dataset(path)
    config = RunConfig(
        params=PARAMS, tolerance=0.005, pseudo=PseudoConfig(replicas=100_000, seed=0)
    )
    report, _ = analyze_dataset(points, config)
    frac = report.n_violations_observed / report.n_tuples
    ratio = report.chi2_quantum / report.dof
    ok = (
        abs(report.n_tuples - 82) <= 8.2
        and abs(frac - 64 / 82) <= 0.1 * 64 / 82
        and abs(report.z_score - 6.2) <= 1.0
        and abs(ratio - 104.8 / 81) <= 0.3
    )
    assert verdict(
        "A8", ok,
        f"digitized spectrum: {report.n_tuples} triples, "
        f"{report.n_violations_observed} violations, z {report.z_score:.2f}, "
        f"chi2/dof {ratio:.2f} (best effort against digitization error)",
    )


def test_a9_tolerance_robustness(verdict):
    rng = np.random.default_rng(9)
    legs, equal, worst, lines = [], True, 0.0, []
    for tol in (0.0005, 0.005, 0.01):
        points, report, table = synthetic_run(0, tolerance=tol)
        exact = order3_oracle(points, tol)
        leg_equal, *gaps = paired_check(report, table, exact, rng)
        equal, worst = equal and leg_equal, max(worst, *gaps)
        legs.append({
            tuple(comps): (target, k)
            for comps, target, k in zip(
                table["component_indices"].tolist(),
                table["target_index"].tolist(),
                table["k_value"].tolist(),
            )
        })
        fit = report.null_fit
        lines.append(
            f"{tol:.2%}: {report.n_tuples} tuple{'s' * (report.n_tuples != 1)}, "
            f"{report.n_violations_observed} observed, null "
            f"{fit.mean_violations:.4f} +- {fit.sd_violations:.4f}, "
            f"z {report.z_score:.3f} (exact {exact.z:.3f})"
            if fit else f"{tol:.2%}: no tuples (exact {len(exact.tuples)})"
        )
    # Selection picks each component pair's best target whatever the
    # tolerance, so widening it may only admit tuples, never alter one.
    nested = all(
        wide.get(comps) == kept
        for narrow, wide in zip(legs, legs[1:])
        for comps, kept in narrow.items()
    )
    paired = equal and worst <= MC_ERRORS
    ok = paired and nested
    verdict(
        "A9", ok,
        f"seed-0 dataset: {'; '.join(lines)}; tuples and observed counts "
        f"{'match' if equal else 'DO NOT match'} the exact oracle, worst null gap "
        f"{worst:.1f} MC errors (bar {MC_ERRORS:.0f}); tuple sets "
        f"{'nested with targets and K kept' if nested else 'NOT nested'}",
    )
    assert paired, (
        f"pipeline departs from the exact order-3 oracle: tuples and counts "
        f"{'match' if equal else 'differ'}, worst null gap {worst:.1f} Monte "
        "Carlo errors"
    )
    assert nested, "widening the tolerance removed or altered a selected tuple"
