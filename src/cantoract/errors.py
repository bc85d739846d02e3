import json


class CantorActError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(CantorActError):
    """Malformed input: chain/machine file, word syntax, or point syntax."""


def read_json(text: str, where: str):
    """The JSON value ``text`` holds, else a one-line ``SchemaError``
    ``"{where}: ..."``: malformed, or nested too deep for the parser."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{where}: arrays or objects nest too deep") from None


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def json_type(value) -> str:
    """How an error message names the JSON type of ``value``."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def expect(value, kind: type, where: str):
    """``value`` if its type is exactly ``kind`` (so a bool is no
    integer), else a one-line ``SchemaError`` naming ``where``."""
    if type(value) is not kind:
        raise SchemaError(f"{where} must be {_JSON_TYPES[kind]}, got {json_type(value)}")
    return value


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
