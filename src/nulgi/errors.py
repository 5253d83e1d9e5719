"""Exception types that map onto the command-line exit-code contract, and
the size budget whose refusal raises one."""


class DataError(ValueError):
    """Malformed or unusable input data (bad CSV, duplicate energies, too few points)."""


class DomainError(ValueError):
    """Argument outside its physical or mathematical domain, or an invalid configuration."""


# The memory a run may spend on the items of one size it is given: the
# replicas of a null, the points of a curve, the bins of a synthetic
# spectrum. A larger size is refused before anything is allocated, where
# numpy would otherwise fail part way with a MemoryError.
SIZE_BUDGET_BYTES = 1 << 31


def check_budget(what: str, value: int, item_bytes: int) -> None:
    """Raise DomainError when value items of item_bytes each pass SIZE_BUDGET_BYTES."""
    budget = SIZE_BUDGET_BYTES // item_bytes
    if value > budget:
        raise DomainError(
            f"{what} {value} is past the budget of {budget} "
            f"({SIZE_BUDGET_BYTES} bytes at {item_bytes} each)"
        )
