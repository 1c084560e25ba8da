"""Property values: the five kinds used by machines, units and constraints.

A property value is one of: text (str), integer (int), boolean (bool),
:class:`Version` (dotted integers) or :class:`Size` (a canonical byte count).
Kinds never coerce into each other; comparisons across kinds are reported as
type mismatches by the evaluator.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Union

NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.]*$")
VERSION_RE = re.compile(r"^\d+(\.\d+)+$")
SIZE_RE = re.compile(r"^(\d+)(B|KB|MB|GB)$")

# Decimal multipliers; B is the exact-count unit used when nothing larger divides evenly.
SIZE_UNITS = {"B": 1, "KB": 10**3, "MB": 10**6, "GB": 10**9}


@dataclass(frozen=True, order=True)
class Version:
    """Dotted-integer version. Missing trailing components compare as 0: the
    order, equality and hash read only ``key``, the parts without trailing
    zeros."""

    parts: tuple[int, ...] = field(compare=False)
    key: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.parts or any(p < 0 for p in self.parts):
            raise ValueError(f"invalid version parts: {self.parts!r}")
        key = self.parts
        while key and key[-1] == 0:
            key = key[:-1]
        object.__setattr__(self, "key", key)

    @classmethod
    def parse(cls, text: str) -> "Version":
        if not isinstance(text, str) or not re.match(r"^\d+(\.\d+)*$", text):
            raise ValueError(f"invalid version: {text!r}")
        return cls(tuple(int(p) for p in text.split(".")))

    def __str__(self):
        return ".".join(str(p) for p in self.parts)


@dataclass(frozen=True, order=True)
class Size:
    """A byte count, canonicalized to an integer number of bytes."""

    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("size must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "Size":
        m = SIZE_RE.match(text)
        if not m:
            raise ValueError(f"invalid size: {text!r}")
        return cls(int(m.group(1)) * SIZE_UNITS[m.group(2)])

    def __str__(self):
        for unit in ("GB", "MB", "KB"):
            mult = SIZE_UNITS[unit]
            if self.count and self.count % mult == 0:
                return f"{self.count // mult}{unit}"
        return f"{self.count}B"


PropertyValue = Union[str, int, bool, Version, Size]


def kind_of(value: PropertyValue) -> str:
    # bool first: bool is a subclass of int.
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, str):
        return "text"
    if isinstance(value, Version):
        return "version"
    if isinstance(value, Size):
        return "bytes"
    raise TypeError(f"not a property value: {value!r}")


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def value_to_json(value: PropertyValue):
    """Encode a property value for the store documents."""
    kind = kind_of(value)
    if kind in ("boolean", "integer"):
        return value
    if kind == "version":
        return str(value)
    if kind == "bytes":
        return str(value)
    return value  # text


def value_from_json(raw) -> PropertyValue:
    """Decode a store-document scalar back into a property value.

    Strings with a size suffix decode as bytes, dotted digit strings as
    versions, everything else as text. Bare JSON integers decode as the
    integer kind; byte counts must carry a unit suffix (``"0B"`` at minimum).
    """
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        if SIZE_RE.match(raw):
            return Size.parse(raw)
        if VERSION_RE.match(raw):
            return Version.parse(raw)
        return raw
    raise ValueError(f"not a property scalar: {raw!r}")


def size_from_json(raw) -> Size:
    """Decode a field that is declared bytes: bare integer or suffixed string."""
    if isinstance(raw, bool):
        raise ValueError(f"not a size: {raw!r}")
    if isinstance(raw, int):
        return Size(raw)
    if isinstance(raw, str):
        return Size.parse(raw)
    raise ValueError(f"not a size: {raw!r}")


_JSON_SHAPES = {dict: "object", list: "array", str: "string"}


def expect(raw, shape: type, where: str):
    """``raw`` if it is a JSON value of ``shape`` (dict, list or str), else
    ValueError naming ``where``. The document decoders check each container
    and id they read with it, so an ill-shaped document fails to decode
    instead of raising TypeError deep inside."""
    if not isinstance(raw, shape):
        raise ValueError(f"{where}: expected {_JSON_SHAPES[shape]}")
    return raw


def expect_items(raw, shape: type, where: str) -> list:
    """``raw`` if it is a JSON array whose items are all of ``shape``."""
    if not all(isinstance(item, shape) for item in expect(raw, list, where)):
        raise ValueError(f"{where}: expected an array of {_JSON_SHAPES[shape]}s")
    return raw


def parse_property_map(obj, where: str = "properties") -> dict[str, PropertyValue]:
    expect(obj, dict, where)
    props: dict[str, PropertyValue] = {}
    for name, raw in obj.items():
        if not valid_name(name):
            raise ValueError(f"{where}: invalid property name {name!r}")
        props[name] = value_from_json(raw)
    return props


def property_map_to_json(props: dict[str, PropertyValue]) -> dict:
    return {name: value_to_json(props[name]) for name in sorted(props)}


def canonical_json(doc) -> str:
    """Compact JSON text with sorted keys. Decoded documents get the same text
    only when they are the same JSON value: ``1``, ``1.0`` and ``true`` stay
    apart, though Python counts them equal."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
