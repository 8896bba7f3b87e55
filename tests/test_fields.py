"""The shared config field codec: type checks, stored forms, dict round trips."""

from __future__ import annotations

import dataclasses
from typing import Annotated, Literal

import pytest

from gradguide import fields


class _Error(fields.FieldError):
    pass


class _DocumentError(fields.FieldError):
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


@dataclasses.dataclass(frozen=True)
class _Closed:
    size: int | Literal["full"] = "full"
    mode: Literal["fast", "slow"] | None = None

    def __post_init__(self):
        fields.check(self, _Error)


def test_closed_sets_in_a_union_are_checked_by_the_literal():
    # ``X | Literal[...]`` is a typing.Union, not a types.UnionType
    assert _Closed(size=8, mode="slow") == _Closed(8, "slow")
    assert _Closed().size == "full" and _Closed(mode=None).mode is None
    for kw, message in [({"size": "half"}, "size must be an integer or 'full', got 'half'"),
                        ({"size": 1.0}, "size must be an integer or 'full'"),
                        ({"mode": "Fast"}, "mode must be 'fast' or 'slow' or null, got 'Fast'")]:
        with pytest.raises(_Error, match=message) as e:
            _Closed(**kw)
        assert e.value.field == next(iter(kw))


@dataclasses.dataclass(frozen=True)
class _Ranged:
    count: fields.PositiveInt = 1
    seed: fields.NonNegativeInt = 0
    scale: fields.NonNegativeFloat = 0.0
    rate: fields.PositiveFloat = 0.5
    decay: fields.Decay = 0.5
    share: Annotated[float, fields.Range(0, 1, open="lo")] = 1.0
    angle: Annotated[float, fields.Range(0, 180)] = 0.0
    dims: tuple[fields.PositiveInt, ...] = ()
    betas: tuple[fields.Decay, fields.Decay] = (0.0, 0.5)
    size: fields.PositiveInt | Literal["full"] = "full"
    tau: fields.PositiveFloat | Literal["auto"] = "auto"

    def __post_init__(self):
        fields.check(self, _Error)


@pytest.mark.parametrize("name,inside,outside", [
    ("count", [1, 10 ** 400], [0, -1]),
    ("seed", [0, 7], [-1]),
    ("scale", [0, 0.0, 1e300], [-1e-300, -1]),
    ("rate", [1e-300, 5], [0, 0.0, -1.0]),
    # [0, 1): the closed end holds, the open one does not
    ("decay", [0, 0.0, 0.999], [1, 1.0, -0.1]),
    # (0, 1]
    ("share", [1e-9, 1, 1.0], [0, 0.0, 1.0000001]),
    # [0, 180]: both ends closed
    ("angle", [0, 180, 180.0], [-1e-9, 180.5]),
    ("dims", [[], [1, 2]], [[1, 0], [0]]),
    ("betas", [[0, 0.999], [0.5, 0.0]], [[0.5, 1.0], [-0.1, 0.5]]),
    ("size", [1, "full"], [0, -3]),
    ("tau", [1e-12, "auto"], [0, 0.0, -1.0]),
])
def test_a_range_admits_its_ends_as_declared(name, inside, outside):
    for value in inside:
        _Ranged(**{name: value})
    for value in outside:
        with pytest.raises(_Error, match=f"^{name} must be ") as e:
            _Ranged(**{name: value})
        assert e.value.field == name


@pytest.mark.parametrize("name,value", [
    ("count", True), ("seed", False), ("size", True), ("dims", [True]), ("scale", False),
])
def test_a_bool_never_passes_a_range(name, value):
    # True >= 1 and False >= 0 as Python numbers, yet neither is a number here
    with pytest.raises(_Error) as e:
        _Ranged(**{name: value})
    assert e.value.field == name


@pytest.mark.parametrize("kw,message", [
    ({"count": 0}, "count must be an integer >= 1, got 0"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"scale": -0.5}, "scale must be a finite number >= 0, got -0.5"),
    ({"rate": 0}, "rate must be a finite number > 0, got 0"),
    ({"rate": float("inf")}, "rate must be a finite number > 0, got inf"),
    ({"decay": 1.0}, r"decay must be a finite number in \[0, 1\), got 1.0"),
    ({"share": 0.0}, r"share must be a finite number in \(0, 1\], got 0.0"),
    ({"angle": 270}, r"angle must be a finite number in \[0, 180\], got 270"),
    ({"dims": [32, 0]}, r"dims must be a list of values, each an integer >= 1, got \[32, 0\]"),
    ({"betas": [0.9, 1]},
     r"betas must be a list of 2 values, each a finite number in \[0, 1\), got \[0.9, 1\]"),
    ({"size": 0}, "size must be an integer >= 1 or 'full', got 0"),
    ({"tau": -1.0}, "tau must be a finite number > 0 or 'auto', got -1.0"),
])
def test_a_range_error_describes_the_range(kw, message):
    with pytest.raises(_Error, match=f"^{message}$"):
        _Ranged(**kw)


def test_ranged_fields_read_and_round_trip_through_dicts():
    # a Range in an Annotated hint is a dataclass instance, never a section
    r = fields.from_dict(_Ranged, {"count": 2, "dims": [3], "betas": [0.1, 0.2], "size": 4,
                                   "tau": 0.5}, _Error)
    assert r == _Ranged(count=2, dims=(3,), betas=(0.1, 0.2), size=4, tau=0.5)
    assert fields.from_dict(_Ranged, fields.to_dict(r), _Error) == r
    assert [str(fields.Range(1)), str(fields.Range(0, open="lo")),
            str(fields.Range(0, 1, open="hi")), str(fields.Range(0, 1, open="lo")),
            str(fields.Range(0, 180))] == [">= 1", "> 0", "in [0, 1)", "in (0, 1]", "in [0, 180]"]


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


@dataclasses.dataclass(frozen=True)
class _Circle:
    kind: Literal["circle"] = dataclasses.field(default="circle", kw_only=True)
    radius: float

    def __post_init__(self):
        fields.check(self, _Error)

    @classmethod
    def from_dict(cls, d):
        return fields.from_dict(cls, d, _Error)


@dataclasses.dataclass(frozen=True)
class _Square:
    kind: Literal["square"] = dataclasses.field(default="square", kw_only=True)
    side: int
    inner: _Inner = dataclasses.field(default_factory=_Inner)

    def __post_init__(self):
        fields.check(self, _Error)
        if self.side < 1:
            raise _Error(f"side must be >= 1, got {self.side}", "side")

    @classmethod
    def from_dict(cls, d):
        return fields.from_dict(cls, d, _Error)


@dataclasses.dataclass(frozen=True)
class _Document:
    shape: _Circle | _Square
    extra: _Inner | None = None

    def __post_init__(self):
        fields.check(self, _DocumentError)


def _document(**d):
    return fields.from_dict(_Document, d, _DocumentError)


def test_tagged_union_reads_the_member_its_kind_names():
    assert _document(shape={"kind": "square", "side": 2}).shape == _Square(side=2)
    doc = _document(shape={"kind": "circle", "radius": 1.5})
    assert doc.shape == _Circle(radius=1.5)
    # the kind is a field, written first, so the dict form reads back
    assert fields.to_dict(doc) == {"shape": {"kind": "circle", "radius": 1.5}, "extra": None}
    assert fields.from_dict(_Document, fields.to_dict(doc), _DocumentError) == doc


def test_member_refuses_another_kind():
    with pytest.raises(_Error, match="kind must be 'circle', got 'square'") as e:
        _Circle(kind="square", radius=1.0)
    assert e.value.field == "kind"


@pytest.mark.parametrize("shape,field,message", [
    ({"kind": "hexagon"}, "shape.kind",
     r"shape.kind must be one of \('circle', 'square'\), got 'hexagon'"),
    ({"side": 2}, "shape.kind", "got None"),
    ({"kind": ["square"], "side": 2}, "shape.kind", r"got \['square'\]"),
    ([1], "shape", r"shape must be an object, got \[1\]"),
    (None, "shape", "shape must be an object"),
])
def test_tagged_union_errors_name_the_kind(shape, field, message):
    with pytest.raises(_DocumentError, match=message) as e:
        _document(shape=shape)
    assert e.value.field == field


@pytest.mark.parametrize("extra,expected", [
    ({"rate": 0.25}, _Inner(rate=0.25)),
    ({}, _Inner()),
    (None, None),
])
def test_optional_section_present_or_null(extra, expected):
    assert _document(shape={"kind": "circle", "radius": 1.0}, extra=extra).extra == expected


def test_optional_section_absent_is_its_default():
    doc = _document(shape={"kind": "circle", "radius": 1.0})
    assert doc.extra is None and fields.to_dict(doc)["extra"] is None
    with pytest.raises(_DocumentError, match="_Inner must be an object") as e:
        _document(shape={"kind": "circle", "radius": 1.0}, extra=[])
    assert e.value.field == "extra"


@pytest.mark.parametrize("d,field,message", [
    ({"shape": {"kind": "square", "side": 1.5}}, "shape.side", "side must be an integer"),
    ({"shape": {"kind": "square", "side": 0}}, "shape.side", "side must be >= 1"),
    ({"shape": {"kind": "square"}}, "shape.side", "missing field 'side'"),
    ({"shape": {"kind": "square", "side": 1, "sid": 1}}, "shape.sid", "unknown _Square"),
    ({"shape": {"kind": "square", "side": 1, "inner": {"rate": "x"}}}, "shape.inner.rate",
     "rate must be a finite number"),
    ({"shape": {"kind": "square", "side": 1, "inner": {"rte": 1.0}}}, "shape.inner.rte",
     "unknown _Inner"),
    ({"shape": {"kind": "circle", "radius": 1.0}, "extra": {"rate": True}}, "extra.rate",
     "rate must be a finite number"),
    ({"shape": {"kind": "circle", "radius": 1.0}, "extras": None}, "extras",
     "unknown _Document"),
    ({}, "shape", "missing field 'shape'"),
])
def test_nested_errors_carry_the_dotted_path(d, field, message):
    # every error comes out as the outer section's error class
    with pytest.raises(_DocumentError, match=message) as e:
        fields.from_dict(_Document, d, _DocumentError)
    assert e.value.field == field


def test_direct_construction_names_the_field_without_a_path():
    with pytest.raises(_Error) as e:
        _Section(count=2.0, scale=1.0)
    assert e.value.field == "count"
    with pytest.raises(_Error, match="_Section must be an object") as e:
        fields.from_dict(_Section, 3, _Error)
    assert e.value.field is None
