"""Seeded synthetic survival spectra for end-to-end and power studies."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_budget
from .oscillation import OscParams, phase_scale, survival_probability
from .sampling import STREAM_SYNTH_ENERGY, STREAM_SYNTH_PROB, truncated_normal, uniform_open
from .selection import Spectrum

TRUTH_MODES = ("quantum", "classical_flat")

# Interior bins move by up to this fraction of one log-spacing step. An
# exactly geometric grid makes every phase ratio a power of one number, which
# quantizes the sum-rule residuals: for typical bin counts the smallest
# nonzero residual sits near 0.7%, so sub-percent tolerances would select
# nothing at all. The jitter restores the quasi-random phase coincidences a
# real binned spectrum has.
_PLACEMENT_JITTER = 0.25

# Relative errors reference at least this probability so bins near a deep
# oscillation minimum keep a usable uncertainty.
_REL_ERROR_FLOOR = 0.05

# Bytes a simulate run holds per bin: its arrays, its Spectrum's columns and
# its CSV row (about 430 measured, the slope of peak RSS from 200k to 1M bins).
BIN_BYTES = 512


def generate_synthetic(
    params: OscParams,
    truth: str,
    bins: int,
    e_min_gev: float,
    e_max_gev: float,
    rel_error: float,
    seed: int,
    flat_p: float = 0.5,
) -> Spectrum:
    """Generate a noisy spectrum on a jittered log-spaced energy grid.

    Parameters
    ----------
    truth : str
        "quantum" samples around the survival curve of params;
        "classical_flat" samples around the constant flat_p.
    rel_error : float
        Per-bin relative uncertainty; the per-bin standard deviation is
        rel_error * max(p_true, 0.05). Zero gives exact curve values.
    seed : int
        Drives both the bin placement jitter and the probability noise;
        equal seeds reproduce the dataset bit for bit.

    Returns
    -------
    Spectrum with sigma_stat set to the generating standard deviation,
    sigma_sys zero and phases not attached. A bin count past
    BIN_BYTES of errors.SIZE_BUDGET_BYTES raises DomainError.
    """
    if truth not in TRUTH_MODES:
        raise DomainError(f"truth must be one of {TRUTH_MODES}, got {truth!r}")
    if not isinstance(bins, int) or bins < 3:
        raise DomainError(f"bins must be an integer >= 3, got {bins}")
    check_budget("bins", bins, BIN_BYTES)
    if not 0.0 < e_min_gev < e_max_gev:
        raise DomainError("need 0 < e_min_gev < e_max_gev")
    if rel_error < 0.0:
        raise DomainError("rel_error must be non-negative")
    if not np.isfinite(rel_error):
        raise DomainError(f"rel_error must be finite, got {rel_error}")
    if not 0.0 <= flat_p <= 1.0:
        raise DomainError(f"flat_p must lie in [0, 1], got {flat_p}")

    # Log-spaced grid positions; endpoints stay exact, interior bins jitter
    # by less than half a step so ordering and coverage are preserved.
    positions = np.arange(bins, dtype=float)
    shift = (2.0 * uniform_open(seed, STREAM_SYNTH_ENERGY, 0, positions.astype(int)) - 1.0)
    positions[1:-1] += _PLACEMENT_JITTER * shift[1:-1]
    energies = e_min_gev * (e_max_gev / e_min_gev) ** (positions / (bins - 1))

    if truth == "quantum":
        psis = phase_scale(params) / energies
        p_true = np.asarray(survival_probability(params.sin2_2theta, psis))
    else:
        p_true = np.full(bins, flat_p)

    sds = rel_error * np.maximum(p_true, _REL_ERROR_FLOOR)
    p_obs = truncated_normal(
        seed, STREAM_SYNTH_PROB, 0, np.arange(bins), p_true, sds
    )
    return Spectrum(energy_gev=energies, p_mumu=p_obs, sigma_stat=sds)
