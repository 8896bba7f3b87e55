"""One strict field codec for the config sections: model, task pair, train
and guidance.  Each is a frozen dataclass whose type hints say what a field
takes, and each calls :func:`check` first in ``__post_init__``, so direct
construction and :func:`from_dict` share one rule.  A bool is never a number,
and no value is converted into another (``6.9`` is not an integer)."""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing

_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A finite int or float, not a bool."""
    return (is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


@functools.lru_cache(maxsize=None)
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _stored(value, hint, floats: bool):
    """``value`` as stored for ``hint``: lists become tuples, and with
    ``floats`` numbers become floats.  TypeError if it does not fit."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        for alt in args:
            try:
                return _stored(value, alt, floats)
            except TypeError:
                pass
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and (args[-1] is Ellipsis or len(value) == len(args)):
            return tuple(_stored(v, args[0], floats) for v in value)
    elif hint is float:
        if is_number(value):
            return float(value) if floats else value
    elif hint is int:
        if is_int(value):
            return value
    elif isinstance(value, hint):
        return value
    raise TypeError


def _describe(hint) -> str:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"a list of {count}values, each {_describe(args[0])}"
    if args:
        return " or ".join(map(_describe, args))
    return _NAMES.get(hint, f"a {hint.__name__}")


def check(obj, error, floats: bool = False) -> None:
    """Store each field of the frozen dataclass ``obj`` in its stored form
    (see :func:`_stored`); a field that does not fit its hint raises
    ``error`` naming it."""
    for name, hint in _hints(type(obj)).items():
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, _stored(value, hint, floats))
        except TypeError:
            raise error(f"{name} must be {_describe(hint)}, got {value!r}") from None


def from_dict(cls, d, error, /, **defaults):
    """``cls`` from the JSON object ``d``, reading a nested section through
    its own ``from_dict``; ``defaults`` fill fields the constructor requires
    but a config may omit.  A non-object, an unknown field or a missing field
    raises ``error``."""
    if not isinstance(d, dict):
        raise error(f"{cls.__name__} must be an object, got {d!r}")
    hints = _hints(cls)
    unknown = [k for k in d if k not in hints]
    if unknown:
        raise error(f"unknown {cls.__name__} fields: {unknown}")
    kw = {**defaults, **d}
    for f in dataclasses.fields(cls):
        if f.name not in kw and f.default is f.default_factory is dataclasses.MISSING:
            raise error(f"{cls.__name__} missing field {f.name!r}")
        if f.name in kw and dataclasses.is_dataclass(hints[f.name]):
            kw[f.name] = hints[f.name].from_dict(kw[f.name])
    return cls(**kw)


def to_dict(obj) -> dict:
    """JSON form of a section: fields in declaration order, tuples as lists."""
    return dataclasses.asdict(obj, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})
