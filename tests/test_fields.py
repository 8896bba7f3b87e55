"""The shared config field codec: type checks, stored forms, dict round trips."""

from __future__ import annotations

import dataclasses

import pytest

from gradguide import fields


class _Error(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class _Inner:
    rate: float = 0.5

    def __post_init__(self):
        fields.check(self, _Error)

    @classmethod
    def from_dict(cls, d):
        return fields.from_dict(cls, d, _Error)


@dataclasses.dataclass(frozen=True)
class _Section:
    count: int
    scale: float
    dims: tuple[int, ...] = ()
    pair: tuple[float, float] = (0.0, 1.0)
    size: int | str = "full"
    inner: _Inner = dataclasses.field(default_factory=_Inner)

    def __post_init__(self):
        fields.check(self, _Error)


@pytest.mark.parametrize("value,is_int,is_number", [
    (3, True, True), (-2, True, True), (2.5, False, True), (True, False, False),
    (False, False, False), ("3", False, False), (None, False, False),
    (float("inf"), False, False), (float("nan"), False, False),
    (10 ** 400, True, False),
])
def test_predicates(value, is_int, is_number):
    assert fields.is_int(value) is is_int
    assert fields.is_number(value) is is_number


@pytest.mark.parametrize("kw,message", [
    ({"count": 2.0}, "count must be an integer, got 2.0"),
    ({"count": True}, "count must be an integer"),
    ({"scale": "1"}, "scale must be a finite number"),
    ({"scale": float("inf")}, "scale must be a finite number"),
    ({"dims": [1, 2.5]}, "dims must be a list of values, each an integer"),
    ({"dims": "12"}, "dims must be a list of values, each an integer"),
    ({"pair": [0.1]}, "pair must be a list of 2 values, each a finite number"),
    ({"size": 1.5}, "size must be an integer or a string"),
    ({"inner": {"rate": 1.0}}, "inner must be a _Inner"),
])
def test_check_names_the_field(kw, message):
    with pytest.raises(_Error, match=message):
        _Section(**{"count": 1, "scale": 1.0, **kw})


def test_check_stores_lists_as_tuples_and_numbers_as_given():
    s = _Section(count=1, scale=2, dims=[3, 4], pair=[0, 1], size=8)
    assert s.dims == (3, 4) and s.pair == (0, 1) and s.size == 8
    assert type(s.scale) is int and type(s.pair[0]) is int


def test_check_can_store_numbers_as_floats():
    s = _Section(count=1, scale=2, pair=[0, 1])
    fields.check(s, _Error, floats=True)
    assert type(s.scale) is float and s.pair == (0.0, 1.0) and type(s.pair[0]) is float
    assert type(s.count) is int


def test_from_dict_rejects_non_objects_unknown_and_missing_fields():
    with pytest.raises(_Error, match="must be an object"):
        fields.from_dict(_Section, [1, 2], _Error)
    with pytest.raises(_Error, match=r"unknown _Section fields: \['cont'\]"):
        fields.from_dict(_Section, {"cont": 1, "scale": 1.0}, _Error)
    with pytest.raises(_Error, match="missing field 'scale'"):
        fields.from_dict(_Section, {"count": 1}, _Error)
    with pytest.raises(_Error, match="unknown _Inner fields"):
        fields.from_dict(_Section, {"count": 1, "scale": 1.0, "inner": {"rte": 1.0}}, _Error)


def test_from_dict_defaults_fill_required_fields_only_when_absent():
    assert fields.from_dict(_Section, {"count": 1}, _Error, scale=0.5).scale == 0.5
    assert fields.from_dict(_Section, {"count": 1, "scale": 2.0}, _Error, scale=0.5).scale == 2.0


def test_dict_round_trip_in_declaration_order():
    s = _Section(count=1, scale=2.0, dims=(3,), size="full", inner=_Inner(rate=0.25))
    d = fields.to_dict(s)
    assert list(d) == ["count", "scale", "dims", "pair", "size", "inner"]
    assert d["dims"] == [3] and d["pair"] == [0.0, 1.0] and d["inner"] == {"rate": 0.25}
    assert fields.from_dict(_Section, d, _Error) == s
