"""The bounds on the Leggett-Garg combination of order n.

The statistic of order n combines n-1 sequential two-time correlations C_i
with one end-to-end correlation: K_n = sum_i C_i - C_end. Macrorealistic
(classical) evolution bounds K_n by n - 2; a two-level quantum system can
reach n cos(pi / n) (Emary, Lambert and Nori, Rep. Prog. Phys. 77, 016001,
2014). pipeline.tuple_table evaluates K_n per tuple as arrays.
"""

from __future__ import annotations

import math

from .errors import DomainError


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
