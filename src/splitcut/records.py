"""Typed reading of the JSON records the client keeps: experiment specs,
backend profiles, run traces and extraction reports.

A record's dataclass is the one declaration of its keys, types and
defaults: ``read_record`` checks a decoded JSON object against its fields
and returns keyword arguments for the keys present only, so every default
still comes from the dataclass.
"""
from __future__ import annotations

import functools
import json
import types
import typing
from dataclasses import MISSING, fields


def record_fields(cls) -> dict[str, tuple[object, object]]:
    """Each field of the dataclass ``cls`` as name -> (type, default);
    the default is ``MISSING`` where the field is required. A fresh dict
    each call, so a caller may edit it."""
    return dict(_fields(cls))


@functools.cache
def _fields(cls) -> tuple:
    hints = typing.get_type_hints(cls)  # resolving the annotations is the costly part
    return tuple((f.name, (hints[f.name], f.default)) for f in fields(cls))


def read_record(d, what: str, schema: dict[str, tuple[object, object]]) -> dict:
    """Keyword arguments for the keys of the JSON object ``d``, each value
    checked against its type in ``schema``. Arrays (a list, or a tuple from
    a Python caller) become tuples.

    Raises ValueError, naming the key, for an unknown or missing key and
    for a value of the wrong JSON type: a bool is not an int, and null is
    accepted only where the default is None.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(schema))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = [key for key, (_, default) in schema.items() if default is MISSING and key not in d]
    if missing:
        raise ValueError(f"{what} is missing key {missing[0]!r}")
    kwargs = {}
    for key, value in d.items():
        hint, default = schema[key]
        try:
            kwargs[key] = None if value is None and default is None else _typed(value, hint)
        except TypeError:
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ValueError(f"{what} key {key!r} must be {name}, got {json.dumps(value)}") from None
    return kwargs


def _typed(value, hint):
    if isinstance(hint, types.UnionType):  # ``X | None``: read_record has handled null
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and isinstance(value, (list, tuple)):
        if args[-1] is Ellipsis:
            return tuple(_typed(v, args[0]) for v in value)
        if len(value) == len(args):
            return tuple(_typed(v, a) for v, a in zip(value, args))
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif type(value) is hint:
        return value
    raise TypeError(hint)
