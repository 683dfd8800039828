"""Exception types shared across the toolkit, and the one JSON reader.

The CLI maps these onto process exit codes, so raising the right type
matters more than the message text: UsageError -> 1, DataError -> 2,
SearchFailedError -> 3.
"""

import json


class ToolkitError(Exception):
    """Base class for errors raised deliberately by this package."""


class UsageError(ToolkitError):
    """Bad command-line arguments or an unusable experiment config."""


class DataError(ToolkitError):
    """Input data violates the documented corpus or file contracts."""


class SearchFailedError(ToolkitError):
    """Every trial of a hyperparameter search failed; `result` keeps the
    search log so callers can still write it."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result
        self.trials = result.trials


# what decoding a payload of the wrong shape or type raises
# (json.JSONDecodeError is a ValueError)
_DECODE_ERRORS = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


def read_json(path: str, what: str, decode, error=DataError):
    """Parse the JSON file at `path` and return `decode(payload)`; a file
    that cannot be opened or decoded raises `error` naming `what`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return decode(json.load(handle))
    except OSError as exc:
        raise error(f"cannot open {what} {path!r}: {exc}") from exc
    except _DECODE_ERRORS as exc:
        raise error(f"invalid {what} {path!r}: {exc}") from exc
