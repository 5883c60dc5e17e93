"""Immutable value records built on __slots__, with nothing to generate at
import time.

A subclass names its fields in ``__slots__``.  A record that checks nothing
inherits the constructor, which takes one argument per slot, in order.  A
record that checks or normalises its arguments writes its own ``__init__``
and sets each field with ``object.__setattr__``.  Two values are equal when
they have the same type and equal fields; the hash is over the fields;
assigning or deleting a field raises AttributeError; the repr reads
``Name(field=...)``; to_json() is the JSON object of the fields by slot
name, with a record field as its own to_json() and a tuple as a list.
Copying and pickling call the class again with the fields, positionally.

check_int is the one rule for the library's integer arguments, and so for
the integers read from JSON, which from_json hands to the constructors.
"""


def check_int(value: int, name: str, low: int | None = None, high: int | None = None) -> int:
    """value, if it is an int (a bool or a float is not) that is >= low, or in
    [low, high] when high is given; otherwise a ValueError naming the argument."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


class Value:
    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

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

    def to_json(self) -> dict:
        return {name: _json(getattr(self, name)) for name in self.__slots__}


def _json(value: object) -> object:
    """value as JSON data: a record as its to_json(), a tuple as a list, recursively."""
    if isinstance(value, Value):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value
