"""Immutable value types on ``__slots__``, without ``dataclasses``.

``insdel`` is a one-shot CLI, so every call pays the package import.
``import dataclasses`` brings in ``inspect``, ``ast`` and ``dis``, and
``@dataclass`` generates each class's methods by compiling source at
import time. ``Value`` gives a class what the package used of
``@dataclass(frozen=True)`` at no import cost: the fields are the class's
``__slots__`` in order, set once in ``__init__`` through ``_set``;
equality and hash go over the field tuple within one class; the repr
reads ``Name(field=value, ...)``; assigning or deleting an attribute
raises ``AttributeError``.

The hot types ``Word`` and ``Composition`` write ``__eq__``, ``__hash__``
and ``__lt__`` on their explicit field tuple instead of inheriting the
generic loop here, which costs a ``getattr`` per field; ``sorted`` uses
only ``<``, and ``functools.total_ordering`` derives the other orderings.
"""

from __future__ import annotations

# Sets a field in __init__, past Value.__setattr__.
_set = object.__setattr__


class Value:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
