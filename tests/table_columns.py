"""Whole columns and projections of a tuple table, for tests.

The package reads its tables a chunk at a time (pipeline.table_chunks);
only tests hold a whole column, and they build it here. The package
writes every column of a table; a test that writes some of them writes
a projection.
"""

import numpy as np

from nulgi.dataio import PointColumn, TupleTable
from nulgi.pipeline import table_chunks

# The columns of tuples.csv, as analyze and triples write them, in order.
TUPLE_COLUMNS = (
    "component_indices", "target_index", "mismatch", "phase_sum", "k_value",
    "k_sigma", "violation", "k_classical_data", "k_quantum_model",
)


def projected(table, names) -> TupleTable:
    """The named columns of the table, in the order of names."""
    return TupleTable({name: table.columns[name] for name in names})


def whole_column(table, name: str) -> np.ndarray:
    """The named column: a PointColumn's gather, or the column's chunks joined."""
    column = table.columns[name]
    if isinstance(column, PointColumn):
        return column.values[column.index]
    parts = [part for part, in table_chunks(table, (name,))]
    return np.concatenate(parts) if parts else np.empty(0, column.dtype)
