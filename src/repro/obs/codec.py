"""The settings codec: the one wire format of the frozen settings dataclasses.

Store digests, manifests, results JSONs, gate baselines and the serve
lease queue all use it; it imports nothing from the package, so every
layer can.  :func:`lower` is the one walker (the *tagged* form, each
dataclass as ``{"__type__": ClassName, ...}``, is what digests hash; the
untagged form is plain field dicts), :func:`build` its inverse, and
:func:`normalise_fields` the one value rule, which every settings
``__post_init__`` applies first: an ``int`` field takes a whole, non-bool
number (numpy ints included) and stores ``int``, a ``float`` field a real,
non-bool number stored as ``float``, and a ``tuple[T, ...]`` field applies
the rule per element.  So ``100``, ``100.0`` and ``np.int64(100)`` are one
value and one store address.  All three read the field annotations.
"""

from __future__ import annotations

import math
import numbers
import types
import typing
from dataclasses import fields, is_dataclass
from functools import cache
from typing import Any

__all__ = ["lower", "build", "normalise_fields"]


def lower(obj: Any, *, tagged: bool, path: str = "settings") -> Any:
    """*obj* as JSON-safe data: dataclasses as field dicts, tuples as lists.
    Anything else but JSON scalars and str-keyed dicts raises
    :class:`TypeError` naming the field, as does a non-finite float in the
    tagged form (no canonical JSON; a manifest keeps it)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if tagged and not math.isfinite(obj):
            raise TypeError(f"{path}: non-finite float {obj!r} has no canonical JSON form")
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__} if tagged else {}
        for f in fields(obj):
            out[f.name] = lower(getattr(obj, f.name), tagged=tagged, path=f"{path}.{f.name}")
        return out
    if isinstance(obj, (list, tuple)):
        return [lower(v, tagged=tagged, path=f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"{path}: dict key {key!r} is not a string")
        return {k: lower(v, tagged=tagged, path=f"{path}.{k}") for k, v in obj.items()}
    raise TypeError(
        f"{path}: cannot canonicalise {type(obj).__name__!r} -- only dataclasses, "
        "str/int/float/bool/None, lists/tuples and str-keyed dicts are digestable"
    )


@cache
def _field_types(cls: type) -> dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def build(cls: type, payload: Any, path: str = "settings") -> Any:
    """Rebuild a *cls* from its lowered form, tagged or not: nested
    dataclass fields (``X`` or ``X | None``) from their dicts, other values
    as they are for the value rule to type.  An unknown key raises
    :class:`ValueError`; a missing one takes the field's default."""
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a {cls.__name__} object, got {payload!r}")
    payload = dict(payload)
    tag = payload.pop("__type__", cls.__name__)
    if tag != cls.__name__:
        raise ValueError(f"{path}: tagged {tag!r}, expected {cls.__name__!r}")
    hints = _field_types(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise ValueError(
            f"{path}: unknown {cls.__name__} fields {sorted(unknown)} -- the payload "
            "was written by a different schema; regenerate it"
        )
    return cls(**{k: _decode(hints[k], v, f"{path}.{k}") for k, v in payload.items()})


def _decode(hint: Any, value: Any, path: str) -> Any:
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return build(hint, value, path) if is_dataclass(hint) else value


#: The value rule: each number type's accepted values, as named in errors.
_RULES = {int: (numbers.Integral, "a whole number"), float: (numbers.Real, "a real number")}


def _typed(value: Any, hint: type, where: str) -> Any:
    accepted, noun = _RULES[hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be {noun}, got {value!r}")
    return hint(value)


def normalise_fields(obj: Any) -> None:
    """Apply the value rule to the number fields of frozen dataclass *obj*;
    a refused value raises :class:`ValueError` naming ``Class.field``."""
    cls = type(obj)
    for name, hint in _field_types(cls).items():
        per_element = typing.get_origin(hint) is tuple
        item = typing.get_args(hint)[0] if per_element else hint
        if item not in _RULES:
            continue
        value, where = getattr(obj, name), f"{cls.__name__}.{name}"
        if not per_element:
            value = _typed(value, item, where)
        elif isinstance(value, (tuple, list)):
            value = tuple(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
        else:
            raise ValueError(f"{where} must be a sequence, got {value!r}")
        object.__setattr__(obj, name, value)
