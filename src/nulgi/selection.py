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
        for name in ("energy_gev", "p_mumu", "sigma_stat", "sigma_sys"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
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
    """One selected tuple: a view of one row of a TupleSet.

    indices are dataset positions of the n-1 components, sorted by descending
    phase (repetition allowed); mismatch is the signed sum-rule residual,
    relative to the target phase in the default mode. The target may share an
    index with a component; only phases matter.
    """

    indices: tuple[int, ...]
    target_index: int
    n: int
    mismatch: float


@dataclass(frozen=True, eq=False)
class TupleSet:
    """Selected order-n tuples of a size-point dataset, as read-only columns.

    comp_idx holds one row of n-1 component indices per tuple; target_idx
    and mismatch one entry per tuple. Every index is checked against
    [0, size) once, here. The analysis reads only the columns; ts[i], tuple
    i as a PhaseTuple, is kept for perfbench/tracing.py, which reads
    tuples[0].n.
    """

    n: int
    size: int
    comp_idx: np.ndarray
    target_idx: np.ndarray
    mismatch: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise DomainError(f"order must be an integer >= 3, got {self.n}")
        comp = np.asarray(self.comp_idx, dtype=np.int64)
        comp = comp.reshape(0, self.n - 1) if comp.size == 0 else comp
        target = np.asarray(self.target_idx, dtype=np.int64)
        mismatch = np.asarray(self.mismatch, dtype=float)
        if comp.shape[1:] != (self.n - 1,) or not target.shape == mismatch.shape == (len(comp),):
            raise DomainError(f"order-{self.n} tuples need {self.n - 1} components each")
        if len(comp) and not 0 <= min(comp.min(), target.min()) <= max(
            comp.max(), target.max()
        ) < self.size:
            raise IndexError(f"tuple indices outside dataset of {self.size} points")
        for name, arr in (("comp_idx", comp), ("target_idx", target), ("mismatch", mismatch)):
            view = arr.view()  # read-only without freezing the caller's array
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.target_idx)

    def __getitem__(self, i: int) -> PhaseTuple:
        return PhaseTuple(
            tuple(self.comp_idx[i].tolist()), int(self.target_idx[i]), self.n,
            float(self.mismatch[i]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TupleSet):
            return NotImplemented
        return (self.n, self.size) == (other.n, other.size) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("comp_idx", "target_idx", "mismatch")
        )


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


# Candidate component multisets evaluated per block of selection.
SELECT_BLOCK_ROWS = 1 << 13

# select_ntuples refuses a selection of more than SELECT_BUDGET_BYTES //
# TUPLE_BYTES tuples. TUPLE_BYTES is about what one order-4 tuple costs
# through an analysis: its selection row, held twice while it is sorted,
# and the float and index columns of pipeline.tuple_table. The budget
# admits the 7.1M tuples of a 400-bin order-4 spectrum at the default
# tolerance and refuses the roughly sixteen times as many at 800 bins
# before they fill memory.
TUPLE_BYTES = 256
SELECT_BUDGET_BYTES = 1 << 31


def _multiset_blocks(size: int, k: int):
    """Every k-multiset of range(size) as a nondecreasing row, in lexicographic
    order, in blocks of at most SELECT_BLOCK_ROWS rows.

    The rows led by index a are a followed by each (k-1)-multiset whose first
    entry is a or more, a suffix of that smaller table. A block takes
    SELECT_BLOCK_ROWS consecutive rows of the runs for a = 0, 1, ..., so it
    may span several leading indices; only the smaller table and one block
    exist at a time.
    """
    rest = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(size), k - 1)
        ),
        dtype=np.int64,
    ).reshape(-1, k - 1)
    left = math.comb(size + k - 1, k)
    fill = 0
    for a, start in enumerate(np.searchsorted(rest[:, 0], np.arange(size)).tolist()):
        while start < len(rest):
            if not fill:
                block = np.empty((min(SELECT_BLOCK_ROWS, left), k), dtype=np.int64)
            rows = min(len(rest) - start, len(block) - fill)
            block[fill:fill + rows, 0] = a
            block[fill:fill + rows, 1:] = rest[start:start + rows]
            start += rows
            fill += rows
            if fill == len(block):
                left -= fill
                fill = 0
                yield block


def _residual(total: np.ndarray, psi_c: np.ndarray, mismatch_mode: str) -> np.ndarray:
    """Signed sum-rule residuals against candidate target phases, inf where
    a candidate phase is <= 0 (no target)."""
    resid = total - psi_c
    if mismatch_mode == "relative":
        np.divide(resid, psi_c, out=resid, where=psi_c > 0.0)
    resid[psi_c <= 0.0] = np.inf
    return resid


def select_ntuples(
    dataset: Sequence[MeasuredPoint],
    n: int,
    tolerance: float,
    mismatch_mode: str = "relative",
) -> TupleSet:
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
    TupleSet in a canonical order (ascending target phase, then ascending
    component phases), one tuple per accepted component multiset, each
    using the target whose phase minimizes the residual. Deterministic for a
    given input.

    Every multiset is scanned, block by block (see _multiset_blocks). A
    multiset's phases are summed left to right in component order, and the
    sum is located among the sorted phases by binary search (Gajentaan and
    Overmars' 3SUM scan). Of the two neighbouring phases the one with the
    smaller key (|residual|, phase, dataset index) is the target.

    The scan keeps a running count of the tuples it has accepted and raises
    DomainError once it passes SELECT_BUDGET_BYTES // TUPLE_BYTES, before
    the tuples and the analysis of them could fill memory.
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
    size = len(psis)

    # Dataset order is ascending energy, hence descending phase; ascending
    # index combinations are therefore already sorted by descending phase.
    order = np.argsort(psis, kind="stable")
    # Zero-padded, so both neighbours of every sum exist; a pad, like any
    # phase <= 0, never serves as a target.
    cand_psi = np.concatenate(([0.0], psis[order], [0.0]))
    cand_idx = np.concatenate(([-1], order, [-1]))
    budget = SELECT_BUDGET_BYTES // TUPLE_BYTES
    kept = 0
    found = []
    for combos in _multiset_blocks(size, n - 1):
        total = psis[combos[:, 0]]
        for col in combos.T[1:]:
            total = total + psis[col]
        upper = np.searchsorted(cand_psi[1:-1], total) + 1
        lower_resid, upper_resid = (
            _residual(total, cand_psi[c], mismatch_mode) for c in (upper - 1, upper)
        )
        # On equal |residual| the key's next entries, the phase and (for
        # equal phases, by the stable sort) the index, favour the lower.
        take_upper = np.abs(upper_resid) < np.abs(lower_resid)
        resid = np.where(take_upper, upper_resid, lower_resid)
        keep = np.abs(resid) <= tolerance
        kept += int(np.count_nonzero(keep))
        if kept > budget:
            raise DomainError(
                f"order-{n} selection reached {kept} tuples, past its budget of "
                f"{budget} ({SELECT_BUDGET_BYTES} bytes at {TUPLE_BYTES} a tuple); "
                "use a smaller tolerance or a lower order"
            )
        found.append((combos[keep], cand_idx[upper - 1 + take_upper][keep], resid[keep]))

    comp_idx, target_idx, mismatch = map(np.concatenate, zip(*found))
    del found
    # lexsort's last key is its primary: the target phase, then the
    # components' phases from the last (smallest) to the first. It is
    # stable, so ties keep the scan order.
    ranks = np.lexsort((*psis[comp_idx.T], psis[target_idx]))
    return TupleSet(
        n=n, size=size, comp_idx=comp_idx[ranks],
        target_idx=target_idx[ranks], mismatch=mismatch[ranks],
    )
