"""Temporal-correlation (Leggett-Garg) combinations and their bounds.

The statistic of order n combines n-1 sequential two-time correlations C_i
with one end-to-end correlation: K_n = sum_i C_i - C_end. Macrorealistic
(classical) evolution bounds K_n by n - 2; a two-level quantum system can
reach n cos(pi / n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

# Tolerance on |b| = 1 for Bloch observables; evolved unit vectors stay
# within a few ulp of one, so this is generous for valid input.
_UNIT_NORM_TOL = 1.0e-12


class KKind(str, Enum):
    QUANTUM_FROM_DATA = "quantum_from_data"
    QUANTUM_THEORY = "quantum_theory"
    CLASSICAL_NULL = "classical_null"


@dataclass(frozen=True)
class BlochObservable:
    """A dichotomic observable b . sigma given by a unit Bloch vector."""

    b: tuple[float, float, float]

    def __post_init__(self) -> None:
        norm = math.sqrt(sum(c * c for c in self.b))
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise DomainError(f"Bloch vector must be unit length, |b| = {norm!r}")

    @property
    def vec(self) -> np.ndarray:
        return np.asarray(self.b, dtype=float)


@dataclass(frozen=True)
class KValue:
    """One evaluated K_n with its provenance kind.

    uncertainty is a propagated standard deviation (advisory).
    """

    n: int
    value: float
    kind: KKind
    uncertainty: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise DomainError(f"order must be an integer >= 3, got {self.n}")
        if not math.isfinite(self.value):
            raise DomainError("K value must be finite")
        if self.uncertainty is not None and not self.uncertainty >= 0.0:
            raise DomainError("uncertainty must be non-negative")
        # The sum-minus-product form can never exceed the macrorealistic bound;
        # anything else indicates a bug upstream.
        if self.kind is KKind.CLASSICAL_NULL and not self.value <= self.n - 2 + 1e-9:
            raise DomainError(
                f"classical K = {self.value!r} above its bound {self.n - 2}"
            )


def lgi_bound(n: int) -> float:
    """Macrorealistic bound n - 2."""
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"order must be an integer >= 3, got {n}")
    return float(n - 2)


def quantum_bound(n: int) -> float:
    """Two-level quantum maximum n cos(pi / n); exceeds lgi_bound for every n."""
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"order must be an integer >= 3, got {n}")
    return n * math.cos(math.pi / n)


def correlation_bloch(b_i: BlochObservable, b_j: BlochObservable) -> float:
    """Symmetrized two-time correlation of two Bloch observables: b_i . b_j."""
    return float(np.dot(b_i.vec, b_j.vec))


def _check_correlations(corrs: Sequence[float], what: str) -> None:
    if len(corrs) < 2:
        raise DomainError(f"need at least two sequential correlations, got {len(corrs)}")
    for c in corrs:
        if not -1.0 - 1e-12 <= c <= 1.0 + 1e-12:
            raise DomainError(f"{what} out of [-1, 1]: {c!r}")


def k_n_from_correlations(
    corrs: Sequence[float],
    corr_end: float,
    *,
    kind: KKind = KKind.QUANTUM_THEORY,
) -> KValue:
    """K_n from n-1 sequential correlations and a measured end-to-end one."""
    _check_correlations(corrs, "sequential correlation")
    if not -1.0 - 1e-12 <= corr_end <= 1.0 + 1e-12:
        raise DomainError(f"end-to-end correlation out of [-1, 1]: {corr_end!r}")
    n = len(corrs) + 1
    return KValue(n=n, value=float(sum(corrs) - corr_end), kind=kind)


def k_n_quantum_from_survival(
    probs: Sequence[float],
    prob_sum: float,
    n: Optional[int] = None,
    *,
    sigmas: Optional[Sequence[float]] = None,
    sigma_sum: Optional[float] = None,
    kind: KKind = KKind.QUANTUM_FROM_DATA,
) -> KValue:
    """K_n built directly from survival probabilities.

    Uses K_n = (2 - n) + 2 sum_a P_a - 2 P_sum, the correlation form rewritten
    through C = 2 P - 1. When per-probability standard deviations are given the
    uncertainty is propagated in quadrature.
    """
    if len(probs) < 2:
        raise DomainError(f"need at least two survival probabilities, got {len(probs)}")
    inferred = len(probs) + 1
    if n is not None and n != inferred:
        raise DomainError(f"order {n} inconsistent with {len(probs)} probabilities")
    for p in list(probs) + [prob_sum]:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"survival probability out of [0, 1]: {p!r}")
    value = float((2 - inferred) + 2.0 * sum(probs) - 2.0 * prob_sum)
    uncertainty = None
    if sigmas is not None and sigma_sum is not None:
        if len(sigmas) != len(probs):
            raise DomainError("sigmas must match probs in length")
        uncertainty = 2.0 * math.sqrt(sum(s * s for s in sigmas) + sigma_sum * sigma_sum)
    return KValue(n=inferred, value=value, kind=kind, uncertainty=uncertainty)


def k_n_classical(corrs: Sequence[float]) -> KValue:
    """Markov-realistic K_n: the end-to-end correlation is the product of the
    sequential ones, giving sum(C) - prod(C), which never exceeds n - 2."""
    _check_correlations(corrs, "sequential correlation")
    n = len(corrs) + 1
    value = float(sum(corrs) - math.prod(corrs))
    return KValue(n=n, value=value, kind=KKind.CLASSICAL_NULL)
