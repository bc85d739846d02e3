class CantorActError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(CantorActError):
    """Malformed input: chain/machine file, word syntax, or point syntax."""


class InvalidChainError(CantorActError):
    """A chain failed structural validation; carries the validation report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BudgetError(CantorActError):
    """A hard resource budget was exceeded. Never a silent truncation.

    `budget` names the budget that was hit (e.g. "depth_limit",
    "memory_budget", "word_budget", "word_letters", "group_order",
    "schreier_generators").
    """

    def __init__(self, budget, message):
        super().__init__(message)
        self.budget = budget
