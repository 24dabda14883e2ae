"""Value: the base of the immutable QuadInt, Mat2, Factorization and ChebyParams.

A subclass names its constructor's arguments, two or more and in order, in
_fields and every attribute in __slots__; its __init__ checks and stores them
with _set.  Equality, hashing, repr, copy and pickle go by _fields, and copies
are made by the constructor.  Not dataclasses: their import pulls in inspect.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = property(attrgetter(*cls._fields))  # the fields' values, as a tuple

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
