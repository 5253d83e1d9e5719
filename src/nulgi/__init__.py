"""Macrorealistic bound tests on two-flavor neutrino survival spectra."""

from .errors import DataError, DomainError
from .leggett_garg import lgi_bound, quantum_bound
from .montecarlo import (
    PseudoConfig,
    SignificanceReport,
    chi_square_quantum,
    classical_null_distribution,
    fit_beta_binomial,
    z_significance,
)
from .oscillation import OscParams, accumulated_phase, survival_probability
from .pipeline import RunConfig, analyze_dataset, curve_table, run_analysis
from .selection import Spectrum, TupleSet, attach_phases, select_ntuples
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DomainError",
    "OscParams",
    "PseudoConfig",
    "RunConfig",
    "SignificanceReport",
    "Spectrum",
    "TupleSet",
    "accumulated_phase",
    "analyze_dataset",
    "attach_phases",
    "chi_square_quantum",
    "classical_null_distribution",
    "curve_table",
    "fit_beta_binomial",
    "generate_synthetic",
    "lgi_bound",
    "quantum_bound",
    "run_analysis",
    "select_ntuples",
    "survival_probability",
    "z_significance",
]
