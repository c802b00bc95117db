"""One rule for reading every config object.

Each reader takes the keys of a config object (a dict parsed from JSON)
through :func:`read`, with one converter per kind of value, and admits only
the keys it reads (:func:`fields`).  Converters check, they do not coerce:
``true`` is not 1, ``2.5`` is not an integer and ``"3"`` is not a number.
A fault is a :class:`ConfigError` at the full pointer, such as
``energy.kernel.c``, with the offending value spelled as JSON.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["ConfigError", "read", "fields", "options", "integer", "number",
           "string", "boolean", "numbers", "one_of"]

REQUIRED = object()
_JSON_NUMBERS = {int, float}   # bool is its own type, so true is not one


def _spelled(value) -> str:
    """``value`` spelled as JSON (``true``, ``null``, ``"3"``), else its repr."""
    try:
        return json.dumps(value)
    except TypeError:   # not JSON: a Python caller's object, such as an array
        return repr(value)


class ConfigError(ValueError):
    """Schema violation; ``key`` points at the offending entry."""

    def __init__(self, key: str, message: str):
        self.key, self.message = key, message
        super().__init__(f"config error at {key!r}: {message}")


def read(spec, key: str, convert, default=REQUIRED):
    """``convert(spec[key])``, or ``default`` when the key is absent.

    A :class:`ConfigError` at ``key`` reports a missing required key, a
    converter's ``TypeError``, a constructor's ``ValueError`` (such as an
    ``EnergyError`` or ``JkoError``) and, with ``key.`` in front of its
    pointer, a ``ConfigError`` below.  A ``spec`` that is not an object is
    reported by the reader of ``spec``."""
    if not isinstance(spec, dict):
        raise TypeError(f"expected an object, got {_spelled(spec)}")
    if key not in spec:
        if default is REQUIRED:
            raise ConfigError(key, "missing required key")
        return default
    try:
        return convert(spec[key])
    except ConfigError as exc:
        raise ConfigError(f"{key}.{exc.key}", exc.message) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from exc


def fields(spec, known) -> dict:
    """``spec``, an object whose keys are all ``known``: a key that no
    reader reads is a typo, not a default."""
    if not isinstance(spec, dict):
        raise TypeError(f"expected an object, got {_spelled(spec)}")
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ConfigError(unknown[0], "unknown key")
    return spec


def options(spec, converters: dict) -> dict:
    """The keys of the object ``spec``, each read through its converter in
    ``converters``, as keyword arguments: an absent key keeps the callee's
    default, and a key without a converter is unknown."""
    return {key: read(spec, key, converters[key]) for key in fields(spec, converters)}


def _exactly(test, what: str):
    """Converter of the values ``test`` accepts, each one ``what``."""
    def convert(value):
        if not test(value):
            raise TypeError(f"expected {what}, got {_spelled(value)}")
        return value
    return convert


integer = _exactly(lambda value: type(value) is int, "an integer")
string = _exactly(lambda value: isinstance(value, str), "a string")
boolean = _exactly(lambda value: isinstance(value, bool), "true or false")


def number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {_spelled(value)}")
    return float(value)


def numbers(value) -> np.ndarray:
    """A JSON array of numbers as a float array, its entries' types checked
    in one pass."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {_spelled(value)}")
    if not set(map(type, value)) <= _JSON_NUMBERS:
        bad = next(v for v in value if type(v) not in _JSON_NUMBERS)
        raise TypeError(f"expected an array of numbers, got {_spelled(bad)} in it")
    return np.asarray(value, dtype=float)


def one_of(names, what: str):
    """Converter of a string among ``names``, such as a table's keys; any
    other value is an unknown ``what``."""
    def convert(value):
        if not (isinstance(value, str) and value in names):
            raise ValueError(f"unknown {what} {_spelled(value)}")
        return value
    return convert
