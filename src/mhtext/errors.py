"""Exception types, the one JSON reader, and the hyperparameter rules.

The CLI exits with the `exit_code` of the error it catches, so raising
the right type matters more than the message text: UsageError -> 1,
DataError -> 2, SearchFailedError -> 3.

Each solver's config applies the rules to its own fields when it is
built, so params files, search trials and model bundles meet the same
checks. A rule returns the value normalized (100.0 becomes 100, 10
becomes 10.0) or raises ValueError.
"""

import json
import math
import numbers
import operator
from dataclasses import fields

import numpy as np


class ToolkitError(Exception):
    """Base class for errors raised deliberately by this package."""

    exit_code = 1


class UsageError(ToolkitError):
    """Bad command-line arguments or an unusable experiment config."""

    exit_code = 1


class DataError(ToolkitError):
    """Input data violates the documented corpus or file contracts."""

    exit_code = 2


class SearchFailedError(ToolkitError):
    """Every trial of a hyperparameter search failed; `result` keeps the
    search log so callers can still write it."""

    exit_code = 3

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result
        self.trials = result.trials


# what decoding a payload of the wrong shape or type raises
# (json.JSONDecodeError is a ValueError)
_DECODE_ERRORS = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


def read_json(path: str, what: str, decode, error=DataError):
    """Parse the JSON file at `path` and return `decode(payload)`; a file
    that cannot be opened or decoded raises `error` naming `what` and the
    path, and a DataError or UsageError of the decoder's own is raised
    again with them prefixed."""
    try:
        with open(path, encoding="utf-8") as handle:
            return decode(json.load(handle))
    except OSError as exc:
        raise error(f"cannot open {what} {path!r}: {exc}") from exc
    except _DECODE_ERRORS as exc:
        raise error(f"invalid {what} {path!r}: {exc}") from exc
    except (DataError, UsageError) as exc:  # the decoder's own refusal keeps its type
        raise type(exc)(f"invalid {what} {path!r}: {exc}") from exc


def check_header(data: dict, what: str, error: type[ToolkitError], **header) -> None:
    """Raise `error` unless the `what` payload `data` holds the `header`
    values this version reads: its schema_version, and its kind for a
    format that holds several."""
    found = {key: data.get(key) for key in header}
    if found != header:
        raise error(f"unsupported {what} schema: found "
                    + " and ".join(f"{key} {value!r}" for key, value in found.items())
                    + "; this version reads " + " and ".join(map(repr, header.values())))


_COMPARE = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}


def _within(value, what: str, *limits):
    limits = [(op, limit) for op, limit in limits if limit is not None]
    if all(_COMPARE[op](value, limit) for op, limit in limits):
        return value
    raise ValueError(f"expected {what} " + " and ".join(f"{op} {limit}" for op, limit in limits))


def whole(at_least: int | None = None, at_most: int | None = None):
    """The rule for an integer or an integral float (100.0), as an int;
    bools and fractions are refused, not truncated."""
    def rule(value) -> int:
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
                isinstance(value, float) and value.is_integer())):
            raise ValueError("expected a whole number")
        return _within(int(value), "a whole number", (">=", at_least), ("<=", at_most))
    return rule


def wholes(name: str, values) -> np.ndarray:
    """A JSON list of whole numbers as an int64 array; a bool or a
    fraction in it is refused, not truncated, naming the field."""
    if not isinstance(values, list):
        raise ValueError(f"{name}: expected a list of whole numbers")
    if not all(type(value) is int for value in values):
        rule = whole()
        values = [check(name, value, rule) for value in values]
    return np.array(values, dtype=np.int64)


def real(at_least: float | None = None, above: float | None = None,
         below: float | None = None, at_most: float | None = None):
    """The rule for a finite number, as a float; bools, strings, NaN and
    infinities (json reads NaN, Infinity and 1e999) are refused."""
    def rule(value) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError("expected a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ValueError("expected a finite number")
        return _within(value, "a number", (">=", at_least), (">", above), ("<", below),
                       ("<=", at_most))
    return rule


def one_of(*options, otherwise=None):
    """The rule for one of `options` (matched by type too, as 1 == True),
    or else for a value the rule `otherwise` takes."""
    def rule(value):
        if any(value == option and type(value) is type(option) for option in options):
            return value
        if otherwise is None:
            raise ValueError(f"expected one of {options!r}")
        try:
            return otherwise(value)
        except ValueError as exc:
            raise ValueError(f"{exc}, or one of {options!r}") from None
    return rule


def finite(name: str, values) -> np.ndarray:
    """`values` as a float64 array; a NaN or infinite entry (or a null,
    which numpy reads as NaN) raises ValueError naming the field."""
    array = np.array(values, dtype=np.float64)
    bad = array[~np.isfinite(array)]
    if bad.size:
        raise ValueError(f"{name}: expected finite numbers, found {bad[0]}")
    return array


def positive(name: str, values) -> np.ndarray:
    """`values` as a float64 array of finite numbers above 0; any other
    entry raises ValueError naming the field."""
    array = finite(name, values)
    if (array <= 0).any():
        raise ValueError(f"{name}: expected numbers above 0, found {array[array <= 0][0]}")
    return array


def check(name: str, value, rule):
    """`rule(value)`, with a refusal naming the field it was read from."""
    try:
        return rule(value)
    except ValueError as exc:
        raise ValueError(f"{name}={value!r}: {exc}") from None


def check_fields(config, **rules) -> None:
    """Check the named fields of the frozen dataclass `config` and store
    each normalized value in place; called from its __post_init__."""
    for name, rule in rules.items():
        object.__setattr__(config, name, check(name, getattr(config, name), rule))


def stored(cls, data: dict):
    """`cls(**data)` for a config read back from a file, where a missing
    field would silently take today's default: it raises KeyError."""
    missing = sorted({f.name for f in fields(cls)} - set(data))
    if missing:
        raise KeyError(f"{cls.__name__} fields {missing}")
    return cls(**data)
