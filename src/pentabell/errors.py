"""Exception types shared across the package, and the one boundary through
which outside JSON documents (the graph, scenario and model files) are read
and rejected.

A document is read by `load_json` and built by a decoder marked with
`json_decoder`, which hands its fields to the constructors of the types
that hold them.  Each constructor checks its own values, and every number
is read through one of the readers here: `strict_int` for an integer,
`strict_ints` for an array of them, `strict_pair` for a pair of integers,
`strict_real` for a real number and `strict_reals` for an array of them,
entry by entry.  An integer field must be a JSON integer, so `true`, `2.0`
and `"2"` are rejected rather than coerced, and a pair has exactly two; a
real field must be a JSON number, so `true`, `"1"`, `null` and an integer
too large for a float are rejected.  `strict_pair` owns the fast path for
a plain pair of ints.  A field that holds several values is read by
`strict_iterable`, and a field of text by `strict_text`, so a number there
raises too.  A malformed document raises InvalidInputError, whichever field
is wrong.
"""

import functools
import json
import numbers
from collections.abc import Iterable

import numpy as np


class PentabellError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PentabellError):
    """Raised when an argument violates an operation's preconditions."""


class CapacityError(PentabellError):
    """Raised when an input exceeds the size envelope an algorithm supports."""


class ConvergenceError(PentabellError):
    """Raised when an iterative solver stops short of its tolerance.

    Carries the best certified result found, so the caller can inspect it,
    and the reason the solver stopped (numerics.certified_solve's stalled,
    cap or failed step).
    """

    def __init__(self, message, result=None, reason=None):
        super().__init__(message)
        self.result = result
        self.reason = reason


def strict_int(value, what: str) -> int:
    """value as an int; anything but an integer (a bool, 2.0 or "2") raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{what} must be an integer, not {value!r}")
    return int(value)


def strict_ints(values, what: str) -> np.ndarray:
    """values (nested lists or an array) as an integer array of the same
    shape, each entry read through `strict_int`."""
    entries = np.array(values, dtype=object)
    return np.array([strict_int(v, what) for v in entries.flat], dtype=np.int64).reshape(entries.shape)


def strict_pair(value, what: str) -> tuple:
    """value as a tuple of two ints; anything but a list (or tuple) of
    exactly two integers raises."""
    if type(value) in (tuple, list) and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        return tuple(value)  # a plain int pair, the common case, skips the checks below
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidInputError(f"{what} must be a pair of integers, not {value!r}")
    return strict_int(value[0], what), strict_int(value[1], what)


def strict_real(value, what: str) -> float:
    """value as a float; anything but a real number (a bool, "1", None or
    an integer too large for a float) raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{what} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{what} must be a real number, not an integer too large for a float") from None


def strict_reals(values, what: str) -> np.ndarray:
    """values (nested lists or an array) as a float array of the same
    shape, each entry read through `strict_real`."""
    entries = np.array(values, dtype=object)
    return np.array([strict_real(v, what) for v in entries.flat], dtype=float).reshape(entries.shape)


def strict_iterable(value, what: str):
    """value itself if it holds values to iterate over (a list, tuple, set
    or generator); anything else (a number or None) raises."""
    if not isinstance(value, Iterable):
        raise InvalidInputError(f"{what} must be a collection of values, not {value!r}")
    return value


def strict_text(value, what: str) -> str:
    """value itself if it is a str; anything else (a number, None or
    bytes) raises."""
    if not isinstance(value, str):
        raise InvalidInputError(f"{what} must be a string, not {value!r}")
    return value


def json_decoder(kind: str):
    """Mark a function that builds an object from a parsed JSON document: a
    document of the wrong shape (a missing key, a string where a list
    belongs, ragged numbers) raises InvalidInputError naming the kind."""

    def wrap(decode):
        @functools.wraps(decode)
        def checked(data):
            try:
                return decode(data)
            except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
                raise InvalidInputError(f"malformed {kind} JSON: {exc}") from exc

        return checked

    return wrap


def load_json(path):
    """The JSON document in the file at path; a file that is not UTF-8 JSON
    raises InvalidInputError (and a missing one OSError)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: not valid JSON ({exc})") from exc


def save_json(document, path) -> None:
    """Write a JSON document to path, indented, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
