"""Two-flavor vacuum oscillation kinematics: phases and survival probabilities.

Conventions used throughout:
  * mass splittings in eV^2, energies in GeV, baselines in km, phases in radians
  * the mixing angle lives in the first octant, so cos(2*theta) >= 0

Every analysis runs in vacuum. scripts/matter_effect_check.py carries the
constant-density matter curve and shows how little rock moves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import constants as _codata

from .errors import DomainError

# hbar*c in eV*m from CODATA values (exact in SI since the 2019 redefinition).
HBARC_EV_M = _codata.hbar * _codata.c / _codata.e

# Phase accumulated per (eV^2 * km / GeV): 1e3 m/km over (4 * 1e9 eV/GeV * hbar*c).
# Evaluates to ~1.2669327; derived here rather than hard-coded so the unit chain
# stays auditable.
PHASE_PER_EV2_KM_OVER_GEV = 1.0e3 / (4.0e9 * HBARC_EV_M)


@dataclass(frozen=True)
class OscParams:
    """Two-flavor model parameters.

    Attributes
    ----------
    dm2 : float
        Mass-squared splitting in eV^2. May be zero (no oscillation).
    sin2_2theta : float
        Mixing amplitude sin^2(2*theta), in [0, 1].
    baseline_km : float
        Fixed source-detector separation in km.
    v_c : float
        Charged-current matter potential in eV. Must be 0: analyses run in
        vacuum, so a nonzero value is rejected rather than silently ignored.
    v_n : float
        Neutral-current potential in eV. Must be 0 for the same reason; a
        potential felt equally by both states never changes a survival
        probability anyway.
    """

    dm2: float
    sin2_2theta: float
    baseline_km: float
    v_c: float = 0.0
    v_n: float = 0.0

    def __post_init__(self) -> None:
        # A bool is a number to Python, and a string would fail only where
        # the field is first compared, with a TypeError.
        for name in ("dm2", "sin2_2theta", "baseline_km", "v_c", "v_n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise DomainError(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.sin2_2theta <= 1.0:
            raise DomainError(f"sin2_2theta must lie in [0, 1], got {self.sin2_2theta}")
        if not self.baseline_km > 0.0:
            raise DomainError(f"baseline_km must be positive, got {self.baseline_km}")
        for name in ("v_c", "v_n"):
            if getattr(self, name) != 0.0:
                raise DomainError(
                    f"{name} must be 0 (analyses run in vacuum), got {getattr(self, name)!r}"
                )
        for name in ("dm2", "sin2_2theta", "baseline_km"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")


def accumulated_phase(params: OscParams, energy_gev: float) -> float:
    """Vacuum phase |dm2| * baseline / (4 E) in natural units, in radians.

    Nonnegative by construction: it is half the Bloch precession angle
    |r| * baseline / 2, and |r| >= 0.
    """
    if not energy_gev > 0.0:
        raise DomainError(f"energy must be positive, got {energy_gev} GeV")
    return PHASE_PER_EV2_KM_OVER_GEV * abs(params.dm2) * params.baseline_km / energy_gev


def survival_probability(sin2_2theta: float, psi):
    """Survival probability 1 - sin^2(2 theta) sin^2(psi). Accepts array psi."""
    if not 0.0 <= sin2_2theta <= 1.0:
        raise DomainError(f"sin2_2theta must lie in [0, 1], got {sin2_2theta}")
    s = np.sin(psi)
    return 1.0 - sin2_2theta * s * s
