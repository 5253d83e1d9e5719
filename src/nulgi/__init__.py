"""Macrorealistic bound tests on two-flavor neutrino survival spectra."""

from .errors import DataError, DomainError
from .leggett_garg import (
    BlochObservable,
    KKind,
    KValue,
    correlation_bloch,
    k_n_classical,
    k_n_from_correlations,
    k_n_quantum_from_survival,
    lgi_bound,
    quantum_bound,
)
from .montecarlo import (
    BetaBinomialFit,
    PseudoConfig,
    SignificanceReport,
    chi_square_quantum,
    classical_null_distribution,
    fit_beta_binomial,
    z_significance,
)
from .oscillation import (
    PHASE_PER_EV2_KM_OVER_GEV,
    MatterParams,
    OscParams,
    accumulated_phase,
    accumulated_phase_interval,
    correlation,
    matter_params,
    matter_survival_probability,
    osc_frequency,
    survival_probability,
)
from .pipeline import (
    RunConfig,
    analyze_dataset,
    curve_table,
    fit_curve_params,
    run_analysis,
)
from .selection import (
    MeasuredPoint,
    PhaseTuple,
    TupleSet,
    attach_phases,
    select_ntuples,
)
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "BetaBinomialFit",
    "BlochObservable",
    "DataError",
    "DomainError",
    "KKind",
    "KValue",
    "MatterParams",
    "MeasuredPoint",
    "OscParams",
    "PHASE_PER_EV2_KM_OVER_GEV",
    "PhaseTuple",
    "PseudoConfig",
    "RunConfig",
    "SignificanceReport",
    "TupleSet",
    "accumulated_phase",
    "accumulated_phase_interval",
    "analyze_dataset",
    "attach_phases",
    "chi_square_quantum",
    "classical_null_distribution",
    "correlation",
    "correlation_bloch",
    "curve_table",
    "fit_beta_binomial",
    "fit_curve_params",
    "generate_synthetic",
    "k_n_classical",
    "k_n_from_correlations",
    "k_n_quantum_from_survival",
    "lgi_bound",
    "matter_params",
    "matter_survival_probability",
    "osc_frequency",
    "quantum_bound",
    "run_analysis",
    "select_ntuples",
    "survival_probability",
    "z_significance",
]
