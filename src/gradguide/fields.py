"""One strict field codec for the experiment config and each of its sections.
Each is a frozen dataclass whose type hints say what a field takes, and each
calls :func:`check` first in ``__post_init__``, so direct construction and
:func:`from_dict` share one rule.  A bool is never a number, and no value is
converted into another (``6.9`` is not an integer); a closed set of values is
a ``Literal`` hint.  Every error is a :class:`FieldError` naming the dotted
path of its field (``task.seed``)."""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing

_NAMES = {int: "an integer", float: "a finite number", str: "a string", type(None): "null"}


class FieldError(ValueError):
    """A value that does not fit its section.  ``field`` is the dotted path of
    the offending field inside the section, None for the section itself."""

    def __init__(self, detail: str, field: str | None = None):
        super().__init__(detail)
        self.field = field


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A finite int or float, not a bool."""
    return (is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


@functools.lru_cache(maxsize=None)
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _stored(value, hint):
    """``value`` as stored for ``hint``: lists become tuples, numbers stay as
    written.  TypeError if it does not fit."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        for alt in args:
            try:
                return _stored(value, alt)
            except TypeError:
                pass
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and (args[-1] is Ellipsis or len(value) == len(args)):
            return tuple(_stored(v, args[0]) for v in value)
    elif typing.get_origin(hint) is typing.Literal:
        if any(type(value) is type(a) and value == a for a in args):
            return value
    elif hint is float:
        if is_number(value):
            return value
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
    if typing.get_origin(hint) is typing.Literal:
        return " or ".join(map(repr, args))
    if args:
        return " or ".join(map(_describe, args))
    return _NAMES.get(hint, f"a {hint.__name__}")


def check(obj, error) -> None:
    """Store each field of the frozen dataclass ``obj`` in its stored form
    (see :func:`_stored`); a field that does not fit its hint raises
    ``error`` naming it."""
    for name, hint in _hints(type(obj)).items():
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, _stored(value, hint))
        except TypeError:
            raise error(f"{name} must be {_describe(hint)}, got {value!r}", name) from None


def _section(hint, value, name: str, error):
    """The section class that reads ``value`` for the field ``name``: its hint,
    or in a union of sections the member whose ``kind`` field has the value's
    ``kind``.  None if the hint holds no section, or ``value`` is a null the
    hint allows."""
    members = [a for a in typing.get_args(hint) or (hint,) if dataclasses.is_dataclass(a)]
    if not members or (value is None and type(None) in typing.get_args(hint)):
        return None
    if len(members) == 1:
        return members[0]
    if not isinstance(value, dict):
        raise error(f"{name} must be an object, got {value!r}", name)
    kind = value.get("kind")
    for member in members:
        if member.kind == kind:
            return member
    kinds = tuple(member.kind for member in members)
    raise error(f"{name}.kind must be one of {kinds}, got {kind!r}", f"{name}.kind")


def from_dict(cls, d, error, /, **defaults):
    """``cls`` from the JSON object ``d``, reading each nested section
    through its class's own ``from_dict`` (see :func:`_section`);
    ``defaults`` fill fields the constructor requires but a config may omit.
    A non-object, an unknown or missing field, or an error inside a nested
    section raises ``error`` with the offending field's path."""
    if not isinstance(d, dict):
        raise error(f"{cls.__name__} must be an object, got {d!r}")
    hints = _hints(cls)
    unknown = [k for k in d if k not in hints]
    if unknown:
        raise error(f"unknown {cls.__name__} fields: {unknown}", unknown[0])
    kw = {**defaults, **d}
    for f in dataclasses.fields(cls):
        if f.name not in kw:
            if f.default is f.default_factory is dataclasses.MISSING:
                raise error(f"{cls.__name__} missing field {f.name!r}", f.name)
            continue
        section = _section(hints[f.name], kw[f.name], f.name, error)
        if section is not None:
            try:
                kw[f.name] = section.from_dict(kw[f.name])
            except FieldError as e:
                path = f.name if e.field is None else f"{f.name}.{e.field}"
                raise error(str(e), path) from None
    return cls(**kw)


def to_dict(obj) -> dict:
    """JSON form of a section: fields in declaration order, tuples as lists."""
    return dataclasses.asdict(obj, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})
