"""The per-tuple columns against the scalar K forms of the oracles, bit for bit.

pipeline.tuple_table computes every K column as an array. Each column must
equal, tuple for tuple and with ==, what the scalar float forms of
tests/oracles.py give (k_n_quantum_from_survival, k_n_uncertainty and
k_n_classical), and the chi-square over the table's chunks must equal the
per-tuple loop it replaced, on the 29 560 order-4 tuples of a 100-bin
spectrum.
"""

import math

import numpy as np
import pytest

from nulgi.montecarlo import chi_square_quantum
from nulgi.oscillation import OscParams, survival_probability
from nulgi.pipeline import fit_curve_params, table_chunks, tuple_table
from nulgi.selection import attach_phases, select_ntuples
from nulgi.synthetic import generate_synthetic

import oracles

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)


@pytest.fixture(scope="module")
def fine():
    points = generate_synthetic(PARAMS, "quantum", 100, 0.5, 50.0, 0.05, seed=0)
    dec = attach_phases(points, PARAMS)
    tuples = select_ntuples(dec, 4, 0.005)
    # A fitted model, so the model K runs on a second amplitude.
    model = fit_curve_params(dec, PARAMS)
    return dec, tuples, model, tuple_table(tuples, dec, model)


def scalar_rows(dec, tuples, model):
    """Per tuple, the numbers the scalar K forms give, from Python floats of the columns.

    Each point's sd is math.hypot of its two uncertainties.
    """
    s2t = model.sin2_2theta
    psi, prob = dec.psi.tolist(), dec.p_mumu.tolist()
    sd = list(map(math.hypot, dec.sigma_stat.tolist(), dec.sigma_sys.tolist()))
    for indices, target in zip(tuples.comp_idx.tolist(), tuples.target_idx.tolist()):
        phases = [psi[i] for i in indices]
        probs = [prob[i] for i in indices]
        measured = oracles.k_n_quantum_from_survival(probs, prob[target])
        sigma = oracles.k_n_uncertainty([sd[i] for i in indices], sd[target])
        theory = oracles.k_n_quantum_from_survival(
            [float(survival_probability(s2t, p)) for p in phases],
            float(survival_probability(s2t, sum(phases))),
        )
        classical = oracles.k_n_classical([2.0 * p - 1.0 for p in probs])
        yield measured, sigma, theory, classical, phases, psi[target]


def test_k_columns_equal_the_scalar_functions_bit_for_bit(fine):
    dec, tuples, model, table = fine
    assert len(table) == 29_560
    measured, sigma, theory, classical, phases, target_psi = zip(
        *scalar_rows(dec, tuples, model)
    )
    assert table["k_value"].tolist() == list(measured)
    assert table["k_sigma"].tolist() == list(sigma)
    assert table["violation"].tolist() == [k > 2.0 for k in measured]
    assert table["k_quantum_model"].tolist() == list(theory)
    assert table["k_classical_data"].tolist() == list(classical)
    assert table["component_phases"].tolist() == [list(p) for p in phases]
    assert table["phase_sum"].tolist() == [sum(p) for p in phases]
    assert table["target_psi"].tolist() == list(target_psi)

    # The per-tuple chi-square loop that the columns replaced.
    chi2 = 0.0
    for k, sd, model_k in zip(measured, sigma, theory):
        chi2 += ((k - model_k) / sd) ** 2
    assert chi_square_quantum(
        table_chunks(table, ("k_value", "k_sigma", "k_quantum_model"))
    ) == (chi2, len(table) - 1)


def test_chi_square_squares_each_pull_with_float_pow():
    # float ** 2 calls C pow, which differs from x * x in the last bit for
    # about one normal draw in a thousand; the sum keeps pow's bits.
    draws = np.random.default_rng(0).standard_normal(20_000).tolist()
    pull = next(x for x in draws if x ** 2 != x * x)
    chi2, dof = chi_square_quantum([(np.array([pull, 0.0]), np.ones(2), np.zeros(2))])
    assert (chi2, dof) == (pull ** 2, 1)
