"""Immutable value records built on __slots__, with nothing to generate at
import time.

A subclass names its fields in ``__slots__`` and, in its own ``__init__``,
checks its arguments and sets each field with ``object.__setattr__``.  Two
values are equal when they have the same type and equal fields; the hash is
over the fields; assigning or deleting a field raises AttributeError; the
repr reads ``Name(field=...)``.  Copying and pickling call the class again
with the fields, positionally.
"""


class Value:
    __slots__ = ()

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __reduce__(self) -> tuple:
        return type(self), self._field_values()
