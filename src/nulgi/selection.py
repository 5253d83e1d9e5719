"""Phase attachment and sum-rule tuple selection over a measured spectrum.

Because the phase at fixed baseline scales as 1/E, any energies obeying
1/E_a + 1/E_b = 1/E_c supply a third measured point whose phase equals the
sum of the other two. Selection works directly on the attached phases: a
tuple pairs n-1 component points (repetition allowed) with the measured
point whose phase best matches their phase sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DomainError
from .leggett_garg import KValue, k_n_quantum_from_survival
from .oscillation import OscParams, accumulated_phase

MISMATCH_MODES = ("relative", "absolute")


@dataclass(frozen=True)
class MeasuredPoint:
    """One spectrum bin: survival probability at an energy, with uncertainties.

    psi is filled in by attach_phases; parsers and generators leave it None.
    """

    energy_gev: float
    p_mumu: float
    sigma_stat: float
    sigma_sys: float = 0.0
    psi: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.energy_gev > 0.0:
            raise DataError(f"energy must be positive, got {self.energy_gev}")
        if not 0.0 <= self.p_mumu <= 1.0:
            raise DataError(f"p_mumu must lie in [0, 1], got {self.p_mumu}")
        if self.sigma_stat < 0.0 or self.sigma_sys < 0.0:
            raise DataError("uncertainties must be non-negative")

    @property
    def sigma(self) -> float:
        """Total per-point standard deviation, statistical and systematic in quadrature."""
        return math.hypot(self.sigma_stat, self.sigma_sys)


@dataclass(frozen=True)
class PhaseTuple:
    """Selected component indices plus the target point matching their phase sum.

    indices are dataset positions of the n-1 components, sorted by descending
    phase (repetition allowed); mismatch is the signed sum-rule residual,
    relative to the target phase in the default mode. The target may share an
    index with a component; only phases matter.
    """

    indices: tuple[int, ...]
    target_index: int
    n: int
    mismatch: float

    def __post_init__(self) -> None:
        if self.n != len(self.indices) + 1:
            raise DomainError("order must exceed the component count by one")


def attach_phases(dataset: Sequence[MeasuredPoint], params: OscParams) -> list[MeasuredPoint]:
    """Sort by ascending energy and fill in each point's accumulated phase.

    Rejects empty datasets and duplicated energies; otherwise pure.
    """
    if len(dataset) == 0:
        raise DataError("dataset is empty")
    pts = sorted(dataset, key=lambda p: p.energy_gev)
    for a, b in itertools.pairwise(pts):
        if a.energy_gev == b.energy_gev:
            raise DataError(f"duplicate energy value {a.energy_gev} GeV")
    return [replace(p, psi=accumulated_phase(params, p.energy_gev)) for p in pts]


def _require_phases(dataset: Sequence[MeasuredPoint]) -> np.ndarray:
    psis = []
    for i, p in enumerate(dataset):
        if p.psi is None:
            raise DataError(f"point {i} has no attached phase; run attach_phases first")
        psis.append(p.psi)
    return np.asarray(psis, dtype=float)


def select_ntuples(
    dataset: Sequence[MeasuredPoint],
    n: int,
    tolerance: float,
    mismatch_mode: str = "relative",
) -> list[PhaseTuple]:
    """Enumerate order-n tuples whose component phases sum to a measured phase.

    Parameters
    ----------
    dataset : sequence of MeasuredPoint
        Phase-decorated points, sorted by ascending energy.
    n : int
        Tuple order; n - 1 components are chosen as a multiset.
    tolerance : float
        Acceptance threshold on |mismatch|; a fraction of the target phase in
        "relative" mode, radians in "absolute" mode.
    mismatch_mode : str
        "relative" (default) or "absolute".

    Returns
    -------
    list of PhaseTuple in a canonical order (ascending target phase, then
    ascending component phases), one per accepted component multiset, each
    using the target whose phase minimizes the residual. Deterministic for a
    given input; ties on |residual| resolve to the smaller target phase.
    """
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"order must be an integer >= 3, got {n}")
    if not tolerance > 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if mismatch_mode not in MISMATCH_MODES:
        raise DomainError(f"mismatch_mode must be one of {MISMATCH_MODES}")
    if len(dataset) < n:
        raise DataError(f"need at least {n} points for order-{n} tuples, got {len(dataset)}")
    psis = _require_phases(dataset)

    # Dataset order is ascending energy, hence descending phase; ascending
    # index combinations are therefore already sorted by descending phase.
    order = np.argsort(psis, kind="stable")
    sorted_psi = psis[order]

    found: list[PhaseTuple] = []
    for combo in itertools.combinations_with_replacement(range(len(dataset)), n - 1):
        total = float(sum(psis[i] for i in combo))
        pos = int(np.searchsorted(sorted_psi, total))
        best: Optional[tuple[float, float, int]] = None
        for cand in (pos - 1, pos):
            if not 0 <= cand < len(sorted_psi):
                continue
            psi_c = float(sorted_psi[cand])
            if psi_c <= 0.0:
                continue
            resid = total - psi_c
            if mismatch_mode == "relative":
                resid /= psi_c
            key = (abs(resid), psi_c, int(order[cand]))
            if best is None or key < best[0]:
                best = (key, resid, int(order[cand]))
        if best is not None and abs(best[1]) <= tolerance:
            found.append(
                PhaseTuple(indices=combo, target_index=best[2], n=n, mismatch=best[1])
            )

    found.sort(
        key=lambda t: (psis[t.target_index], tuple(psis[i] for i in reversed(t.indices)))
    )
    return found


def evaluate_tuple(ptuple: PhaseTuple, dataset: Sequence[MeasuredPoint]) -> KValue:
    """Evaluate the measured K_n for one selected tuple.

    Components enter through their survival probabilities, the target through
    its own measured probability; the propagated uncertainty treats all
    entries as independent (advisory, since tuples share points).
    """
    size = len(dataset)
    for i in (*ptuple.indices, ptuple.target_index):
        if not 0 <= i < size:
            raise IndexError(f"tuple index {i} outside dataset of {size} points")
    comps = [dataset[i] for i in ptuple.indices]
    target = dataset[ptuple.target_index]
    if any(p.psi is None for p in comps):
        raise DataError("tuple references points with no attached phase")
    return k_n_quantum_from_survival(
        [p.p_mumu for p in comps],
        target.p_mumu,
        n=ptuple.n,
        sigmas=[p.sigma for p in comps],
        sigma_sum=target.sigma,
        phases=[p.psi for p in comps],
    )
