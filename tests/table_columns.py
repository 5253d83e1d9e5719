"""Whole columns of a tuple table, for tests that compare a column at once.

The package reads its tables a chunk at a time (pipeline.table_chunks);
only tests hold a whole column, and they build it here.
"""

import numpy as np

from nulgi.dataio import PointColumn
from nulgi.pipeline import table_chunks


def whole_column(table, name: str) -> np.ndarray:
    """The named column: a PointColumn's gather, or the column's chunks joined."""
    column = table.columns[name]
    if isinstance(column, PointColumn):
        return column.values[column.index]
    parts = [part for part, in table_chunks(table, (name,))]
    return np.concatenate(parts) if parts else np.empty(0, column.dtype)
