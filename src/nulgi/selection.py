"""Phase attachment and sum-rule tuple selection over a measured spectrum.

Because the phase at fixed baseline scales as 1/E, any energies obeying
1/E_a + 1/E_b = 1/E_c supply a third measured point whose phase equals the
sum of the other two. Selection works directly on the attached phases: a
tuple pairs n-1 component points (repetition allowed) with the measured
point whose phase best matches their phase sum.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, DomainError
from .oscillation import OscParams, phase_scale


# The measured columns of a Spectrum, in the order their faults are checked.
SPECTRUM_COLUMNS = ("energy_gev", "p_mumu", "sigma_stat", "sigma_sys")


def _read_only(values: np.ndarray) -> np.ndarray:
    view = values.view()  # read-only without freezing the caller's array
    view.flags.writeable = False
    return view


def spectrum_fault(
    energy_gev: np.ndarray, p_mumu: np.ndarray, sigma_stat: np.ndarray, sigma_sys: np.ndarray
) -> Optional[tuple[int, str, Optional[int]]]:
    """The first fault of a spectrum's float64 columns, as (row, message, earlier), or None.

    Rows are positions in the given order. A value fault is one of a row's
    cells: not finite (in column order), an energy not above 0, a p_mumu
    outside [0, 1] or a negative sigma, checked in that order; earlier is
    None. Only columns free of value faults are checked for a repeated
    energy: row is its first repeat and earlier the row that first holds it.
    """
    columns = (energy_gev, p_mumu, sigma_stat, sigma_sys)
    # Each check maps a row count to the fault mask of those first rows.
    checks = [
        (lambda rows, values=values: ~np.isfinite(values[:rows]),
         f"{name} must be finite, got {{}}", values)
        for name, values in zip(SPECTRUM_COLUMNS, columns)
    ] + [
        (lambda rows: ~(energy_gev[:rows] > 0.0), "energy must be positive, got {}", energy_gev),
        (lambda rows: ~((p_mumu[:rows] >= 0.0) & (p_mumu[:rows] <= 1.0)),
         "p_mumu must lie in [0, 1], got {}", p_mumu),
        (lambda rows: (sigma_stat[:rows] < 0.0) | (sigma_sys[:rows] < 0.0),
         "uncertainties must be non-negative", None),
    ]
    # One mask at a time: a later check can only come first at a row
    # before the first fault found so far.
    row, fault = energy_gev.size, None
    for faulty, message, values in checks:
        mask = faulty(row)
        if mask.any():
            row, fault = int(mask.argmax()), (message, values)
    if fault is not None:
        message, values = fault
        return row, message if values is None else message.format(values[row].item()), None
    if _ascending(energy_gev):
        return None
    _, first, inverse = np.unique(energy_gev, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse] != np.arange(energy_gev.size))
    if repeats.size:
        row = int(repeats[0])
        return row, f"duplicate energy value {energy_gev[row].item()} GeV", int(first[inverse[row]])
    return None


def _ascending(values: np.ndarray) -> bool:
    """Whether values strictly ascend: then no value repeats and they are in order."""
    return bool((values[1:] > values[:-1]).all())


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A binned survival spectrum as read-only float64 columns, one row per point.

    Construction checks every cell (spectrum_fault), then holds the rows in
    ascending energy. A column given as one number holds it in every row;
    sigma_sys defaults to zero. psi, the accumulated phase of each row, is
    filled in by attach_phases; parsers and generators leave it None.
    sigma, the total per-point standard deviation, is statistical and
    systematic in quadrature, math.hypot row by row: np.hypot can differ
    from it in the last bit.
    """

    energy_gev: np.ndarray
    p_mumu: np.ndarray
    sigma_stat: np.ndarray
    sigma_sys: np.ndarray = 0.0
    psi: Optional[np.ndarray] = None
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = SPECTRUM_COLUMNS + (() if self.psi is None else ("psi",))
        columns = [np.asarray(getattr(self, name), dtype=np.float64) for name in names]
        size = columns[0].shape
        if len(size) != 1 or any(column.shape not in ((), size) for column in columns):
            raise DataError("spectrum columns must be 1-D and of one length")
        columns = [np.broadcast_to(column, size) for column in columns]
        fault = spectrum_fault(*columns[:4])
        if fault is not None:
            raise DataError(fault[1])
        # Columns whose energies already ascend are copied as they are.
        order = None if _ascending(columns[0]) else np.argsort(columns[0], kind="stable")
        for name, column in zip(names, columns):
            column = column.copy() if order is None else column[order]
            object.__setattr__(self, name, _read_only(column))
        # math.hypot(s, 0.0) is |s| exactly: only rows with a systematic
        # error need the call.
        sigma = np.abs(self.sigma_stat)
        rows = np.flatnonzero(self.sigma_sys)
        sigma[rows] = list(map(math.hypot, self.sigma_stat[rows].tolist(),
                               self.sigma_sys[rows].tolist()))
        object.__setattr__(self, "sigma", _read_only(sigma))

    def __len__(self) -> int:
        return self.energy_gev.size


@dataclass(frozen=True)
class PhaseTuple:
    """One selected tuple: a view of one row of a TupleSet.

    indices are dataset positions of the n-1 components, sorted by descending
    phase (repetition allowed); mismatch is the signed sum-rule residual,
    relative to the target phase. The target may share an
    index with a component; only phases matter.
    """

    indices: tuple[int, ...]
    target_index: int
    n: int
    mismatch: float


# Point indices are int32: a TupleSet refuses a dataset of INDEX_LIMIT
# points or more.
INDEX_LIMIT = 2**31


def _index_column(values) -> np.ndarray:
    """values as an integer array: int32 as given, anything else as int64."""
    values = np.asarray(values)
    return values if values.dtype == np.int32 else np.asarray(values, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class TupleSet:
    """Selected order-n tuples of a size-point dataset, as read-only columns.

    comp_idx holds one row of n-1 component indices per tuple; target_idx
    and mismatch one entry per tuple. The indices are int32, so size must
    be below INDEX_LIMIT, which is checked before anything is converted;
    every index is checked against [0, size) once, here. An order-4 tuple
    takes 24 bytes here, against 40 with int64 indices. A whole order-4
    analysis peaks at about 69 bytes a tuple (the peak-RSS slope of
    scripts/peak_rss.py from 200 to 300 bins; see TUPLE_BYTES). The analysis
    reads only the columns; ts[i], tuple i as a PhaseTuple, is kept for
    perfbench/tracing.py, which reads tuples[0].n.
    """

    n: int
    size: int
    comp_idx: np.ndarray
    target_idx: np.ndarray
    mismatch: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise DomainError(f"order must be an integer >= 3, got {self.n}")
        if not isinstance(self.size, (int, np.integer)) or not 0 <= self.size < INDEX_LIMIT:
            raise DomainError(
                f"a tuple set indexes fewer than {INDEX_LIMIT} points, got {self.size}"
            )
        comp = _index_column(self.comp_idx)
        comp = comp.reshape(0, self.n - 1) if comp.size == 0 else comp
        target = _index_column(self.target_idx)
        mismatch = np.asarray(self.mismatch, dtype=float)
        if comp.shape[1:] != (self.n - 1,) or not target.shape == mismatch.shape == (len(comp),):
            raise DomainError(f"order-{self.n} tuples need {self.n - 1} components each")
        if len(comp) and not 0 <= min(comp.min(), target.min()) <= max(
            comp.max(), target.max()
        ) < self.size:
            raise IndexError(f"tuple indices outside dataset of {self.size} points")
        for name, arr in (("comp_idx", comp), ("target_idx", target)):
            object.__setattr__(self, name, _read_only(arr.astype(np.int32, copy=False)))
        object.__setattr__(self, "mismatch", _read_only(mismatch))

    def __len__(self) -> int:
        return len(self.target_idx)

    def component_points(self) -> np.ndarray:
        """The points some tuple's components read, ascending, found through
        a flag per point rather than a sort of the index rows."""
        read = np.zeros(self.size, dtype=bool)
        read[self.comp_idx] = True
        return np.flatnonzero(read)

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


def attach_phases(dataset: Spectrum, params: OscParams) -> Spectrum:
    """The spectrum with each row's accumulated phase attached as psi.

    psi is phase_scale(params) / energy_gev, element for element the float
    accumulated_phase gives. The spectrum was checked and sorted when it
    was built, so the copy shares its columns as they are. Pure.
    """
    spectrum = copy.copy(dataset)
    object.__setattr__(spectrum, "psi", _read_only(phase_scale(params) / dataset.energy_gev))
    return spectrum


# Candidate component multisets evaluated per block of selection.
SELECT_BLOCK_ROWS = 1 << 13

# select_ntuples refuses an order-n selection of more than
# SELECT_BUDGET_BYTES // tuple_bytes(n) tuples. What an order-n tuple adds
# to the peak resident memory of a whole analysis (1000 replicas) was
# measured as the slope of scripts/peak_rss.py's peak between two seed-0
# quantum spectra, from the medians of three runs at each size:
#   order 3, 1000 -> 2200 bins (462 786 -> 2 239 848 tuples): 79.8 bytes
#   order 4, 200 -> 300 bins (465 650 -> 2 338 056 tuples): 68.8 bytes
#   order 5, 100 -> 130 bins (616 532 -> 2 258 566 tuples): 80.6 bytes
#   order 6, 60 -> 80 bins (494 541 -> 2 659 963 tuples): 103.0 bytes
#   order 7, 45 -> 55 bins (583 189 -> 2 220 741 tuples): 102.8 bytes
# Repeated runs differ by up to 16 MiB, a few bytes a tuple. What grows
# with the order is the n - 1 component indices a tuple keeps, joins,
# sorts on and gathers for the null, so tuple_bytes is a line in n - 1:
# TUPLE_BYTES plus COMPONENT_BYTES a component, at least a tenth above
# every measured slope (order 3's is the tightest); past order 7 it is
# extrapolated. At order 4 the budget admits 20.6M tuples: 7.1M at 400
# bins (503 MB peak), and it refuses the roughly sixteen times as many at
# 800 bins before they fill memory.
TUPLE_BYTES = 56
COMPONENT_BYTES = 16
SELECT_BUDGET_BYTES = 1 << 31


def tuple_bytes(n: int) -> int:
    """The bytes the selection budget counts for one order-n tuple."""
    return TUPLE_BYTES + COMPONENT_BYTES * (n - 1)


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
        dtype=np.int32,
    ).reshape(-1, k - 1)
    left = math.comb(size + k - 1, k)
    fill = 0
    for a, start in enumerate(np.searchsorted(rest[:, 0], np.arange(size)).tolist()):
        while start < len(rest):
            if not fill:
                block = np.empty((min(SELECT_BLOCK_ROWS, left), k), dtype=np.int32)
            rows = min(len(rest) - start, len(block) - fill)
            block[fill:fill + rows, 0] = a
            block[fill:fill + rows, 1:] = rest[start:start + rows]
            start += rows
            fill += rows
            if fill == len(block):
                left -= fill
                fill = 0
                yield block


def _residual(total: np.ndarray, psi_c: np.ndarray) -> np.ndarray:
    """Signed relative sum-rule residuals, (total - psi_c) / psi_c, against
    candidate target phases, inf where a candidate phase is <= 0 (no target)."""
    resid = total - psi_c
    np.divide(resid, psi_c, out=resid, where=psi_c > 0.0)
    resid[psi_c <= 0.0] = np.inf
    return resid


def select_ntuples(dataset: Spectrum, n: int, tolerance: float) -> TupleSet:
    """Enumerate order-n tuples whose component phases sum to a measured phase.

    Parameters
    ----------
    dataset : Spectrum
        A spectrum with its phases attached (attach_phases).
    n : int
        Tuple order; n - 1 components are chosen as a multiset.
    tolerance : float
        Acceptance threshold on |mismatch|, the residual relative to the
        target phase: (phase sum - target phase) / target phase.

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
    DomainError once it passes SELECT_BUDGET_BYTES // tuple_bytes(n), before
    the tuples and the analysis of them could fill memory.
    """
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"order must be an integer >= 3, got {n}")
    if not tolerance > 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if len(dataset) < n:
        raise DataError(f"need at least {n} points for order-{n} tuples, got {len(dataset)}")
    psis = dataset.psi
    if psis is None:
        raise DataError("the spectrum has no attached phases; run attach_phases first")
    size = len(psis)

    # Dataset order is ascending energy, hence descending phase; ascending
    # index combinations are therefore already sorted by descending phase.
    order = np.argsort(psis, kind="stable")
    # Zero-padded, so both neighbours of every sum exist; a pad, like any
    # phase <= 0, never serves as a target.
    cand_psi = np.concatenate(([0.0], psis[order], [0.0]))
    cand_idx = np.concatenate(([-1], order, [-1])).astype(np.int32)
    budget = SELECT_BUDGET_BYTES // tuple_bytes(n)
    kept = 0
    found = []
    for combos in _multiset_blocks(size, n - 1):
        total = psis[combos[:, 0]]
        for col in combos.T[1:]:
            total = total + psis[col]
        upper = np.searchsorted(cand_psi[1:-1], total) + 1
        lower_resid, upper_resid = (
            _residual(total, cand_psi[c]) for c in (upper - 1, upper)
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
                f"{budget} ({SELECT_BUDGET_BYTES} bytes at {tuple_bytes(n)} a tuple); "
                "use a smaller tolerance or a lower order"
            )
        found.append((combos[keep], cand_idx[upper - 1 + take_upper][keep], resid[keep]))

    # One column is joined at a time, and its blocks dropped before the next.
    parts = [list(column) for column in zip(*found)]
    del found
    comp_idx, target_idx, mismatch = (np.concatenate(parts.pop(0)) for _ in range(3))
    # lexsort's last key is its primary: the target phase, then the
    # components' phases from the last (smallest) to the first. It is
    # stable, so ties keep the scan order. The keys are the phases' dense
    # ranks in the narrowest unsigned dtype, which order the tuples as the
    # phases do.
    phase_rank = np.unique(psis, return_inverse=True)[1]
    phase_rank = phase_rank.astype(np.min_scalar_type(size))
    ranks = np.lexsort((*phase_rank[comp_idx.T], phase_rank[target_idx]))
    # Each column is put in order before the next, its unsorted copy dropped.
    comp_idx = comp_idx[ranks]
    target_idx = target_idx[ranks]
    mismatch = mismatch[ranks]
    return TupleSet(
        n=n, size=size, comp_idx=comp_idx, target_idx=target_idx, mismatch=mismatch
    )
