"""Base classes of the package's value types.

A record lists its fields in `__slots__`; it compares equal to a record of
the same class with equal fields and shows them in its repr, as a dataclass
does.  A frozen record is read-only after `__init__` (which sets its fields
with `object.__setattr__`) and hashes as the tuple of its fields.  They
stand in for `dataclasses`, whose import (with `inspect`) and generated
methods cost every job several milliseconds.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({pairs})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
