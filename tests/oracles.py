"""Independent cross-checks the test suite trusts more than the package.

Everything here is built from the underlying linear algebra with no imports
from the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np
from scipy import constants
from scipy.linalg import expm
from scipy.special import ndtr, ndtri

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


def vacuum_phase(dm2, baseline_km, energy_gev):
    """Two-flavor vacuum phase dm2 L / (4 E) in radians, from natural units."""
    return dm2 * baseline_km * KM_IN_INVERSE_EV / (4.0e9 * energy_gev)


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


def correlation(sin2_2theta, psi):
    """Two-time correlation 1 - 2 sin^2(2 theta) sin^2(psi) = 2 P - 1."""
    s = np.sin(psi)
    return 1.0 - 2.0 * sin2_2theta * s * s


def accumulated_phase_interval(dm2, energy_gev, start_km, end_km):
    """Vacuum phase accumulated between two positions along the beam.

    Depends on the positions only through their separation.
    """
    return vacuum_phase(abs(dm2), end_km - start_km, energy_gev)


# The scalar K forms. pipeline.tuple_table repeats their float operations
# in the same order, so its columns equal these values bit for bit: sums
# run left to right, as Python's sum and math.prod do.


def k_n_quantum_from_survival(probs, prob_sum):
    """K_n = (2 - n) + 2 sum_a P_a - 2 P_sum: the correlation form through C = 2 P - 1."""
    return float((2 - (len(probs) + 1)) + 2.0 * sum(probs) - 2.0 * prob_sum)


def k_n_uncertainty(sigmas, sigma_sum):
    """The sd of k_n_quantum_from_survival for independent per-probability sds."""
    return 2.0 * math.sqrt(sum(s * s for s in sigmas) + sigma_sum * sigma_sum)


def k_n_from_correlations(corrs, corr_end):
    """K_n from n-1 sequential correlations and an end-to-end one."""
    return float(sum(corrs) - corr_end)


def k_n_classical(corrs):
    """Markov-realistic K_n: the end-to-end correlation is the product of the
    sequential ones, giving sum(C) - prod(C), which never exceeds n - 2."""
    return float(sum(corrs) - math.prod(corrs))


def brute_force_ntuples(psis, n, tolerance):
    """Exhaustive sum-rule tuple search over every candidate target.

    Returns (component_indices, target_index, signed_mismatch) triples for
    each accepted component multiset, with the target chosen to minimize
    (|residual|, target_phase) over the whole dataset, not just neighbors.
    The residual is relative: (phase sum - target phase) / target phase.
    """
    found = []
    for combo in itertools.combinations_with_replacement(range(len(psis)), n - 1):
        total = sum(psis[i] for i in combo)
        best = None
        for c, psi_c in enumerate(psis):
            if psi_c <= 0.0:
                continue
            resid = (total - psi_c) / psi_c
            key = (abs(resid), psi_c, c)
            if best is None or key < best[0]:
                best = (key, resid, c)
        if best is not None and abs(best[1]) <= tolerance:
            found.append((combo, best[0][2], best[1]))
    return found


def neighbour_scan_ntuples(psis, n, tolerance):
    """Sum-rule tuple selection by a scan of every multiset, one at a time.

    The package's selection before it was vectorized, kept as the exact
    reference: each multiset's phases are summed left to right in index
    order, the sum is located among the sorted phases by binary search,
    and of its two neighbours the one with the smaller key (|residual|,
    phase, dataset index) is the target, the upper one only on a strictly
    smaller key. Returns (component_indices, target_index, signed_mismatch)
    triples sorted by target phase, then by the component phases from the
    last to the first, ties in scan order.
    """
    psis = [float(p) for p in psis]
    order = sorted(range(len(psis)), key=psis.__getitem__)
    sorted_psi = [psis[i] for i in order]
    found = []
    for combo in itertools.combinations_with_replacement(range(len(psis)), n - 1):
        total = sum(psis[i] for i in combo)
        pos = bisect.bisect_left(sorted_psi, total)
        best = None
        for cand in (pos - 1, pos):
            if not 0 <= cand < len(sorted_psi):
                continue
            psi_c = sorted_psi[cand]
            if psi_c <= 0.0:
                continue
            resid = (total - psi_c) / psi_c
            key = (abs(resid), psi_c, order[cand])
            if best is None or key < best[0]:
                best = (key, resid, order[cand])
        if best is not None and abs(best[1]) <= tolerance:
            found.append((combo, best[2], best[1]))
    found.sort(key=lambda t: (psis[t[1]], tuple(psis[i] for i in reversed(t[0]))))
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
    columns = list(comp_idx.T)
    zeros, ones = np.zeros(len(comp_idx)), np.ones(len(comp_idx))
    counts = np.empty(len(draws), dtype=np.int64)
    for r, row in enumerate(draws):
        corr = 2.0 * row - 1.0
        corr_sum, corr_prod = zeros.copy(), ones.copy()
        for column in columns:
            component = corr[column]
            corr_sum += component
            corr_prod *= component
        counts[r] = np.count_nonzero(corr_sum - corr_prod > n - 2)
    return counts


def order3_violations(probs, pairs, targets):
    """Direct count of measured K_3 = 2 (P_a + P_b) - 2 P_target - 1 above 1.

    probs[..., i] is point i's measured survival probability; leading axes
    are independent spectra.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    k = -1.0 + 2.0 * (probs[..., pairs[:, 0]] + probs[..., pairs[:, 1]])
    k = k - 2.0 * probs[..., np.asarray(targets, dtype=np.int64)]
    return np.count_nonzero(k > 1.0, axis=-1)


def exceedance_probabilities(probs, sigmas):
    """q_i = Phi((p_i - 1) / sigma_i): the chance a normal redraw lands above 1."""
    return ndtr((np.asarray(probs, dtype=float) - 1.0) / np.asarray(sigmas, dtype=float))


def _odd_members(groups, size):
    """Per row of index groups, the indices that occur an odd number of times.

    Rows are padded with size, one past the last point, so a product over a
    row reads a factor of 1 from the padding.
    """
    groups = np.asarray(groups, dtype=np.int64)
    flat = groups.reshape(-1, groups.shape[-1])
    rows = np.arange(len(flat))
    parity = np.zeros((len(flat), size), dtype=bool)
    for col in flat.T:
        parity[rows, col] ^= True
    width = max(1, int(parity.sum(axis=1).max()))
    members = np.argsort(~parity, axis=1, kind="stable")[:, :width]
    members[~np.take_along_axis(parity, members, axis=1)] = size
    return members.reshape(groups.shape[:-1] + (width,))


def exact_order3_null_moments(pairs, q):
    """Exact mean and sd of the order-3 classical-null violation count.

    pairs holds each tuple's two component indices; q[..., i] is the
    probability that point i's unbounded normal redraw lands above P = 1
    (see exceedance_probabilities). Leading axes of q are independent
    spectra.

    With C = 2P - 1 the product-rule form obeys C_a + C_b - C_a C_b - 1 =
    -(1 - C_a)(1 - C_b), so a replica violates a tuple exactly when one
    component draw lands above P = 1 and the other below. Writing s_i = -1
    for a draw above 1 and +1 otherwise, V_t = (1 - s_a s_b) / 2. The s_i
    are independent with mean m_i = 1 - 2 q_i and s_i^2 = 1, so the mean of
    a product of s over a multiset of indices is M, the product of m_i over
    the indices that occur an odd number of times:

        E[V_t]     = (1 - M_t) / 2
        E[V_t V_u] = (1 - M_t - M_u + M_{t+u}) / 4

    where t+u is the multiset union. A repeated component (a, a) has M = 1
    and never violates.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    q = np.asarray(q, dtype=float)
    size = q.shape[-1]
    m = np.concatenate([1.0 - 2.0 * q, np.ones(q.shape[:-1] + (1,))], axis=-1)
    unions = np.concatenate(
        np.broadcast_arrays(pairs[:, None, :], pairs[None, :, :]), axis=-1
    )
    single = m[..., _odd_members(pairs, size)].prod(axis=-1)
    joint = m[..., _odd_members(unions, size)].prod(axis=-1)
    mean = 0.5 * (1.0 - single).sum(axis=-1)
    second = 0.25 * (
        1.0 - single[..., :, None] - single[..., None, :] + joint
    ).sum(axis=(-2, -1))
    return mean, np.sqrt(np.maximum(second - mean**2, 0.0))


def fitted_null_sd(mean, sd, trials):
    """The null sd a beta-binomial moment fit reports for these moments.

    The count's own sd when it is overdispersed relative to a binomial over
    trials tuples (and trials > 1), the binomial sd otherwise.
    """
    mu = np.asarray(mean, dtype=float) / trials
    binomial_var = trials * mu * (1.0 - mu)
    overdispersed = (np.asarray(sd) ** 2 > binomial_var) & (trials > 1)
    return np.where(overdispersed, sd, np.sqrt(binomial_var))


def exceedance_null_counts(pairs, q, replicas, rng):
    """Order-3 null counts drawn through the exceedance form: V = X_a xor X_b."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    above = rng.random((replicas, len(q))) < np.asarray(q)
    return np.count_nonzero(above[:, pairs[:, 0]] != above[:, pairs[:, 1]], axis=1)


def predict_order3_z(grids, per_grid, rng):
    """z of fresh noise draws on fixed grids, scored against the exact null.

    Each grid is (pairs, targets, p_true, sigma): the order-3 tuples of the
    grid's phases, its true survival probabilities and per-point sds. Every
    grid gets per_grid spectra redrawn by rejection_truncated_normal on
    [0, 1]; each is scored by its direct K_3 count against the exact null
    moments of its own measured probabilities, with fitted_null_sd.
    Returns the z values, grid by grid.
    """
    zs = []
    for pairs, targets, p_true, sigma in grids:
        probs = np.column_stack([
            rejection_truncated_normal(rng, p, s, per_grid)
            for p, s in zip(p_true, sigma)
        ])
        observed = order3_violations(probs, pairs, targets)
        mean, sd = exact_order3_null_moments(
            pairs, exceedance_probabilities(probs, sigma)
        )
        zs.append((observed - mean) / fitted_null_sd(mean, sd, len(pairs)))
    return np.concatenate(zs)


SPLITMIX_GOLDEN = 0x9E3779B97F4A7C15


def splitmix_hash_words(*words):
    """Counter hash of integer words, one allocating splitmix64 round per word.

    Each word (a scalar or a broadcastable integer array, negative values
    taken modulo 2**64) is added to the state with the golden-ratio
    increment, and the sum is mixed with splitmix64's finalizer.
    """
    h = np.uint64(0)
    with np.errstate(over="ignore"):
        for word in words:
            if isinstance(word, (int, np.integer)):
                word = np.uint64(int(word) % 2**64)
            else:
                word = np.asarray(word).astype(np.uint64)
            h = h + np.uint64(SPLITMIX_GOLDEN) + word
            h = h ^ (h >> np.uint64(30))
            h = h * np.uint64(0xBF58476D1CE4E5B9)
            h = h ^ (h >> np.uint64(27))
            h = h * np.uint64(0x94D049BB133111EB)
            h = h ^ (h >> np.uint64(31))
    return h


def key_uniform(keys):
    """(k + 0.5) 2**-53 of each 53-bit key k, the top key 2**53 - 1 taking
    the value of 2**53 - 2: its own would round to 1."""
    return (np.minimum(keys, 2**53 - 2).astype(np.float64) + 0.5) * 2.0**-53


def counter_uniform(seed, stream, *words):
    """Open-interval uniform of the top 53 hash bits, by key_uniform."""
    return key_uniform(splitmix_hash_words(seed, stream, *words) >> np.uint64(11))


def counter_normal(seed, stream, *words, mean=0.0, sd=1.0):
    """Normal by inversion of counter_uniform, with a trailing attempt word 0."""
    return mean + sd * ndtri(counter_uniform(seed, stream, *words, 0))


def counter_truncated_normal(seed, stream, index_a, index_b, mean, sd):
    """Per element, the first counter normal that lands in [0, 1].

    The indices, mean and sd broadcast together. Element by element, attempt
    0, 1, 2, ... draws mean + sd * ndtri(counter_uniform(seed, stream,
    index_a, index_b, attempt)) until a draw lies in [0, 1]. An element with
    sd 0 is its mean clamped to [0, 1].
    """
    a, b, m, s = np.broadcast_arrays(
        np.asarray(index_a), np.asarray(index_b),
        np.asarray(mean, dtype=float), np.asarray(sd, dtype=float),
    )
    out = np.empty(a.shape)
    for pos in np.ndindex(a.shape):
        if s[pos] == 0.0:
            out[pos] = min(max(m[pos], 0.0), 1.0)
            continue
        for attempt in itertools.count():
            u = counter_uniform(seed, stream, int(a[pos]), int(b[pos]), attempt)
            draw = m[pos] + s[pos] * ndtri(u)
            if 0.0 <= draw <= 1.0:
                out[pos] = draw
                break
    return out


def key_thresholds_by_bisection(probs, sds, edges):
    """Per edge and point, the first 53-bit key k whose C is not C <= edge.

    C = 2 (p + sigma ndtri(key_uniform(k))) - 1, and the search is a plain
    bisection over all of [0, 2**53], 54 halvings, assuming C is
    non-decreasing in k. Returns an int64 array of shape (edges, points).
    """
    probs, sds = np.asarray(probs, dtype=float), np.asarray(sds, dtype=float)
    edges = np.asarray(edges, dtype=float)[:, None]
    lo = np.zeros((edges.shape[0], probs.size), dtype=np.int64)
    hi = np.full_like(lo, 1 << 53)
    for _ in range(54):
        mid = (lo + hi) >> 1
        corr = 2.0 * (probs + sds * ndtri(key_uniform(mid))) - 1.0
        reached = ~(corr <= edges)
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, np.minimum(mid + 1, hi))
    return lo


def csv_text(header, rows):
    """A CSV table written one Python cell at a time, a line per row.

    A float cell is its repr, an int its digits, a bool 0 or 1 and a list
    its entries joined by ';'. Any other cell, a numpy scalar among them,
    raises TypeError.
    """

    def cell(value):
        if type(value) is list:
            return ";".join(map(cell, value))
        if type(value) is bool:
            return "1" if value else "0"
        if type(value) in (float, int):
            return repr(value)
        raise TypeError(f"no CSV text for {type(value).__name__} {value!r}")

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)
