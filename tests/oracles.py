"""Independent cross-checks the test suite trusts more than the package.

Everything here is built from the underlying linear algebra with no imports
from the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import constants
from scipy.linalg import expm

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# hbar*c = 197.3269804 MeV*fm, written out by hand: pins the value of the
# unit-conversion constant against a number from outside the code base.
HBARC_HAND_EV_M = 197.3269804e6 * 1.0e-15

# The evolution oracle itself uses the full-precision constant; a 1e-11
# literal truncation would swamp the 1e-10 agreement bar once phases reach
# tens of radians in strong matter.
HBARC_EV_M = constants.hbar * constants.c / constants.e
KM_IN_INVERSE_EV = 1.0e3 / HBARC_EV_M


def flavor_hamiltonian(dm2, sin2_2theta, energy_gev, v_c=0.0, identity_ev=0.0):
    """Two-flavor Hamiltonian in eV, traceless part plus an identity term.

    The traceless block is (r . sigma)/2 with r = (omega*sin2t, 0, v_c -
    omega*cos2t); identity_ev stands in for every flavor-blind contribution
    (beam momentum, average mass term, neutral-current potential).
    """
    omega = dm2 / (2.0e9 * energy_gev)
    s2t = math.sqrt(sin2_2theta)
    c2t = math.sqrt(max(0.0, 1.0 - sin2_2theta))
    h = 0.5 * (omega * s2t * SIGMA_X + (v_c - omega * c2t) * SIGMA_Z)
    return h + identity_ev * ID2


def expm_survival(dm2, sin2_2theta, baseline_km, energy_gev, v_c=0.0, identity_ev=0.0):
    """P_mumu from direct matrix exponentiation of the flavor Hamiltonian."""
    h = flavor_hamiltonian(dm2, sin2_2theta, energy_gev, v_c, identity_ev)
    u = expm(-1.0j * h * baseline_km * KM_IN_INVERSE_EV)
    return float(abs(u[0, 0]) ** 2)


def bloch_evolved_z(sin2_2theta, psi):
    """Bloch vector of sigma_z after evolving through phase psi.

    Heisenberg picture: U = cos(psi) I - i sin(psi) (rhat . sigma) with the
    vacuum rotation axis rhat = (sin2t, 0, -cos2t); components are
    b_k = Re tr(sigma_k U^dag sigma_z U) / 2.
    """
    s2t = math.sqrt(sin2_2theta)
    c2t = math.sqrt(max(0.0, 1.0 - sin2_2theta))
    axis = s2t * SIGMA_X - c2t * SIGMA_Z
    u = math.cos(psi) * ID2 - 1.0j * math.sin(psi) * axis
    evolved = u.conj().T @ SIGMA_Z @ u
    return tuple(
        float(0.5 * np.trace(evolved @ s).real) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)
    )


def brute_force_ntuples(psis, n, tolerance, mode="relative"):
    """Exhaustive sum-rule tuple search over every candidate target.

    Returns (component_indices, target_index, signed_mismatch) triples for
    each accepted component multiset, with the target chosen to minimize
    (|residual|, target_phase) over the whole dataset, not just neighbors.
    """
    found = []
    for combo in itertools.combinations_with_replacement(range(len(psis)), n - 1):
        total = sum(psis[i] for i in combo)
        best = None
        for c, psi_c in enumerate(psis):
            if psi_c <= 0.0:
                continue
            resid = total - psi_c
            if mode == "relative":
                resid = resid / psi_c
            key = (abs(resid), psi_c, c)
            if best is None or key < best[0]:
                best = (key, resid, c)
        if best is not None and abs(best[1]) <= tolerance:
            found.append((combo, best[0][2], best[1]))
    return found


def rejection_truncated_normal(rng, mean, sd, size, lo=0.0, hi=1.0):
    """Reference truncated-normal sampler: draw and reject until inside."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        draws = rng.normal(mean, sd, size=2 * (size - filled) + 16)
        keep = draws[(draws >= lo) & (draws <= hi)][: size - filled]
        out[filled : filled + keep.size] = keep
        filled += keep.size
    return out


def beta_binomial_counts(rng, alpha, beta, trials_n, size):
    """Exact beta-binomial sampler used for the moment-fit round trip."""
    p = rng.beta(alpha, beta, size=size)
    return rng.binomial(trials_n, p)


def product_rule_null_counts(draws, comp_idx, n):
    """Reference classical-null counts, one replica at a time.

    draws is the (replicas, points) matrix of pseudo-measured survival
    probabilities. Each replica forms C = 2P - 1, accumulates sum and
    product over each tuple's components in component order, starting from
    0 and 1, and counts tuples whose sum minus product lands strictly above
    n - 2.
    """
    comp_idx = np.asarray(comp_idx)
    counts = np.empty(len(draws), dtype=np.int64)
    for r, row in enumerate(draws):
        corr = 2.0 * row - 1.0
        corr_sum = np.zeros(len(comp_idx))
        corr_prod = np.ones(len(comp_idx))
        for k in range(comp_idx.shape[1]):
            corr_sum += corr[comp_idx[:, k]]
            corr_prod *= corr[comp_idx[:, k]]
        counts[r] = np.count_nonzero(corr_sum - corr_prod > n - 2)
    return counts
