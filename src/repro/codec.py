"""One plain-data codec for every config and result dataclass.

Configs and results cross the ``ProcessPoolRunner`` process boundary and
land in JSONL checkpoints as plain dicts.  :func:`to_plain` turns a
dataclass into nested dicts and lists with one key per field, in
declaration order; :func:`from_plain` rebuilds it from the field type
hints.  Both walk ``dataclasses.fields``, so a new field travels without
further code and no hand-written handler can drop one.

Stdlib only: every layer, ``core`` up to ``harness``, may import it.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from typing import Any, Dict, Mapping, Type, TypeVar

__all__ = ["PlainData", "from_plain", "require_finite", "to_plain"]

T = TypeVar("T")


def to_plain(obj: Any) -> Any:
    """JSON-ready view: dataclasses become dicts, tuples become lists."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_plain(item) for item in obj]
    if isinstance(obj, dict):
        return {key: to_plain(value) for key, value in obj.items()}
    return obj


def _field_hints(cls: Any) -> Dict[str, Any]:
    """Field name -> resolved type hint, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def from_plain(cls: Type[T], data: Mapping[str, Any]) -> T:
    """Rebuild a ``cls`` dataclass from :func:`to_plain` output.

    Unknown keys raise ValueError, so a stale checkpoint fails loudly
    instead of silently dropping a renamed field.
    """
    hints = _field_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**{name: _decode(hints[name], value)
                  for name, value in data.items()})


def _decode(hint: Any, value: Any) -> Any:
    if value is None:
        return None
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return value if isinstance(value, hint) else from_plain(hint, value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        return _decode(next(a for a in args if a is not type(None)), value)
    if origin is tuple:  # Tuple[X, ...]
        return tuple(_decode(args[0], v) for v in value)
    if origin is list:
        return [_decode(args[0], v) for v in value]
    if origin is dict:  # Dict[str, X]
        return {k: _decode(args[1], v) for k, v in value.items()}
    return value


def require_finite(obj: Any) -> None:
    """Raise ValueError naming a float field of ``obj`` that is NaN or
    infinite; configs call it on construction, since no input means one.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


class PlainData:
    """Mixin giving a dataclass ``to_dict``/``from_dict`` via the codec."""

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data view (JSON-ready)."""
        plain: Dict[str, Any] = to_plain(self)
        return plain

    @classmethod
    def from_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        return from_plain(cls, data)
