"""Two-flavor oscillation kinematics: phases, matter-modified parameters, survival.

Conventions used throughout:
  * mass splittings in eV^2, energies in GeV, baselines in km, phases in radians
  * the mixing angle lives in the first octant, so cos(2*theta) >= 0
  * potentials v_c (charged-current) and v_n (neutral-current) in eV, both >= 0
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
        Charged-current matter potential in eV (0 disables matter effects).
    v_n : float
        Neutral-current potential in eV. Proportional to the identity in the
        flavor Hamiltonian, so it never changes a survival probability; kept
        so configurations can state it explicitly.
    """

    dm2: float
    sin2_2theta: float
    baseline_km: float
    v_c: float = 0.0
    v_n: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sin2_2theta <= 1.0:
            raise DomainError(f"sin2_2theta must lie in [0, 1], got {self.sin2_2theta}")
        if not self.baseline_km > 0.0:
            raise DomainError(f"baseline_km must be positive, got {self.baseline_km}")
        if self.v_c < 0.0 or self.v_n < 0.0:
            raise DomainError("matter potentials must be non-negative")
        for name in ("dm2", "sin2_2theta", "baseline_km", "v_c", "v_n"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    @property
    def sin_2theta(self) -> float:
        return math.sqrt(self.sin2_2theta)

    @property
    def cos_2theta(self) -> float:
        # First-octant convention: theta <= pi/4.
        return math.sqrt(max(0.0, 1.0 - self.sin2_2theta))


@dataclass(frozen=True)
class MatterParams:
    """Effective oscillation parameters in constant-density matter.

    degenerate is set when the effective splitting vanishes (the two
    Hamiltonian eigenvalues coincide), where the mixing angle is undefined.
    """

    omega_m: float
    sin2_2theta_m: float
    degenerate: bool = False


def osc_frequency(params: OscParams, energy_gev: float) -> float:
    """Vacuum oscillation frequency dm2 / (2 E) in eV. Linear in dm2, signed."""
    if not energy_gev > 0.0:
        raise DomainError(f"energy must be positive, got {energy_gev} GeV")
    return params.dm2 / (2.0e9 * energy_gev)


def accumulated_phase(params: OscParams, energy_gev: float) -> float:
    """Vacuum phase |dm2| * baseline / (4 E) in natural units, in radians.

    Nonnegative by construction: it is half the Bloch precession angle
    |r| * baseline / 2, and |r| >= 0.
    """
    if not energy_gev > 0.0:
        raise DomainError(f"energy must be positive, got {energy_gev} GeV")
    return PHASE_PER_EV2_KM_OVER_GEV * abs(params.dm2) * params.baseline_km / energy_gev


def accumulated_phase_interval(
    params: OscParams, energy_gev: float, start_km: float, end_km: float
) -> float:
    """Phase accumulated between two positions along the beam.

    Depends on the positions only through their separation, so
    accumulated_phase_interval(p, E, t_i, t_j) equals
    accumulated_phase_interval(p, E, 0, t_j - t_i) exactly.
    """
    if not energy_gev > 0.0:
        raise DomainError(f"energy must be positive, got {energy_gev} GeV")
    separation = end_km - start_km
    if separation < 0.0:
        raise DomainError("interval end must not precede its start")
    return PHASE_PER_EV2_KM_OVER_GEV * abs(params.dm2) * separation / energy_gev


def phase_from_frequency(omega_ev: float, baseline_km: float) -> float:
    """Phase |omega| * L / 2 in natural units for a frequency given in eV."""
    return abs(omega_ev) * baseline_km * 1.0e3 / (2.0 * HBARC_EV_M)


def matter_params(params: OscParams, energy_gev: float) -> MatterParams:
    """Effective (frequency, amplitude) in constant-density matter.

    The traceless part of the flavor Hamiltonian is (r . sigma)/2 with
    r = (omega sin2theta, 0, v_c - omega cos2theta); the effective frequency
    is |r| and the effective amplitude is (omega sin2theta)^2 / |r|^2.
    At the resonance v_c = omega cos2theta the amplitude reaches 1.
    """
    omega = osc_frequency(params, energy_gev)
    r_x = omega * params.sin_2theta
    r_z = params.v_c - omega * params.cos_2theta
    omega_m = math.hypot(r_x, r_z)
    if omega_m == 0.0:
        return MatterParams(omega_m=0.0, sin2_2theta_m=0.0, degenerate=True)
    return MatterParams(omega_m=omega_m, sin2_2theta_m=(r_x / omega_m) ** 2)


def survival_probability(sin2_2theta: float, psi):
    """Survival probability 1 - sin^2(2 theta) sin^2(psi). Accepts array psi."""
    if not 0.0 <= sin2_2theta <= 1.0:
        raise DomainError(f"sin2_2theta must lie in [0, 1], got {sin2_2theta}")
    s = np.sin(psi)
    return 1.0 - sin2_2theta * s * s


def correlation(sin2_2theta: float, psi):
    """Two-time correlation 1 - 2 sin^2(2 theta) sin^2(psi) = 2 P - 1."""
    if not 0.0 <= sin2_2theta <= 1.0:
        raise DomainError(f"sin2_2theta must lie in [0, 1], got {sin2_2theta}")
    s = np.sin(psi)
    return 1.0 - 2.0 * sin2_2theta * s * s


def matter_survival_probability(params: OscParams, energy_gev: float) -> float:
    """Survival probability with the matter-modified frequency and amplitude."""
    eff = matter_params(params, energy_gev)
    psi_m = phase_from_frequency(eff.omega_m, params.baseline_km)
    return float(survival_probability(eff.sin2_2theta_m, psi_m))
