"""Frozen report records: one base class instead of generated methods.

A subclass declares its fields as class annotations, in order; a field's
default is a plain class attribute.  The base gives every subclass
positional and keyword construction, ``==`` on the field tuple
(``NotImplemented`` for another class), the hash of that tuple,
``Qualname(field=...)`` as repr, and an ``AttributeError`` on assignment
or deletion.  Defining a subclass only reads its annotations: no code is
generated or exec'd and nothing is imported, so start-up pays no more for
a record than for a plain class.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        for name, value in zip(names, args):  # not self.__dict__, which would give each instance its own dict
            object.__setattr__(self, name, value)

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order: positional, then keyword, then class defaults."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and not hasattr(cls, name)]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(missing)}")
        return [values[name] if name in values else getattr(cls, name) for name in names]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
