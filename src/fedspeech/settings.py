"""Typed reading of configuration mappings into frozen dataclasses, and back.

A dataclass is its own schema: its init fields are the keys, their
annotations the types and their defaults the defaults (a ``TypedDict``
declares a mapping that is not read into one object). ``int``, ``str`` and
``bool`` take exactly that YAML type, ``float`` a finite int or float, an
``Enum`` one of its values, ``Optional[X]`` also null, ``tuple[X, ...]`` a
list and ``dict`` any mapping. Every error names its dotted key.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import cache
from typing import (Any, Iterator, Mapping, Union, get_args, get_origin, get_type_hints,
                    is_typeddict)

from .errors import ConfigError

_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false",
             str: "a string", dict: "a mapping"}


@cache
def _declared(cls: type) -> tuple[dict[str, Any], tuple[str, ...]]:
    """The type of each key of ``cls`` and the keys without a default,
    resolved once per class."""
    hints = get_type_hints(cls)
    if is_typeddict(cls):
        return hints, ()
    init = [f for f in fields(cls) if f.init]
    return ({f.name: hints[f.name] for f in init},
            tuple(f.name for f in init
                  if f.default is MISSING and f.default_factory is MISSING))


def _at(where: str, key: Any) -> str:
    return f"{where}.{key}" if where else str(key)


def read_keys(cls: type, value: Any, where: str, build: bool = True) -> dict:
    """The keys that ``value`` gives, each read as ``cls`` declares it.

    With ``build`` false, a value declared as a dataclass is checked key by
    key but not built, so no field default is filled in and no value check
    of the dataclass runs.
    """
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping, got {value!r}")
    types = _declared(cls)[0]
    for key in value:
        if key not in types:
            raise ConfigError(f"unknown configuration key: {_at(where, key)}")
    return {key: read_value(types[key], item, _at(where, key), build)
            for key, item in value.items()}


def read(cls: type, value: Any, where: str, base: Any = None, **flags: Any) -> Any:
    """A ``cls`` read from the configuration mapping ``value`` at ``where``.

    A key that ``value`` leaves out keeps its value in ``base``, or else its
    field default; a field without a default is then required. ``flags``
    that are not None override the mapping. They come typed from the command
    line, so only the checks of ``cls`` itself apply to them. A check of
    ``cls`` that refuses the values names ``where`` when no flag gave one.
    """
    given = read_keys(cls, value, where)
    flagged = {key: flag for key, flag in flags.items() if flag is not None}
    given.update(flagged)
    if base is None:
        for key in _declared(cls)[1]:
            if key not in given:
                raise ConfigError(f"{_at(where, key)}: required key is missing")
    with blamed_on("" if flagged else where):
        return cls(**given) if base is None else replace(base, **given)


@contextmanager
def blamed_on(where: str) -> Iterator[None]:
    """A ``ConfigError`` raised inside is raised again with ``where``, a
    config key, before its message; with ``where`` empty it passes as it is."""
    try:
        yield
    except ConfigError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}: {exc}") from None


def read_value(typ: Any, value: Any, where: str, build: bool = True) -> Any:
    """``value`` read as ``typ`` by the rules in the module docstring."""
    if get_origin(typ) is Union:  # Optional[X]
        return None if value is None else read_value(get_args(typ)[0], value, where, build)
    if get_origin(typ) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(read_value(get_args(typ)[0], item, f"{where}[{i}]", build)
                     for i, item in enumerate(value))
    if is_dataclass(typ) or is_typeddict(typ):
        return read(typ, value, where) if build else read_keys(typ, value, where, False)
    if issubclass(typ, enum.Enum):
        try:
            return typ(value)
        except ValueError:
            raise ConfigError(f"{where}: expected one of "
                              f"{', '.join(m.value for m in typ)}, got {value!r}") from None
    if typ is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    elif typ is dict and isinstance(value, Mapping) or type(value) is typ:
        return value
    raise ConfigError(f"{where}: expected {_EXPECTED[typ]}, got {value!r}")


def to_mapping(obj: Any) -> dict:
    """The mapping that :func:`read` turns back into ``obj``, a dataclass of
    scalar fields."""
    values = {key: getattr(obj, key) for key in _declared(type(obj))[0]}
    return {key: v.value if isinstance(v, enum.Enum) else v for key, v in values.items()}
