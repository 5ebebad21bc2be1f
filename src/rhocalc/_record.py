"""Immutable value records: the package's small stand-in for frozen dataclasses.

A record class declares its fields as class annotations, in order, and
writes its own ``__init__``: it checks its arguments and stores every
field, derived ones included, with one ``self.__dict__.update(...)``.
The base derives the rest from the annotations:

* equality by value, field by field, and only with an instance of the
  same class (another class gets ``NotImplemented``);
* a hash that agrees with that equality;
* the repr ``Cls(f=..., g=...)``;
* immutability: assigning or deleting an attribute raises AttributeError.

Building these methods costs nothing at import, where ``dataclasses``
generates and compiles source for every class.  Records keep a
``__dict__``, so a ``functools.cached_property`` still caches on them,
and a private entry stored there beside the fields is not a field (see
``moduli._admissible_nu`` for the one such entry).
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
