"""Frozen records and values: one base class instead of generated methods.

A subclass declares its fields as class annotations, in order, and may also
name them in ``__slots__``; a field's default is a class attribute that is
not a slot.  The base gives every subclass positional and keyword
construction, ``==`` on the field tuple (``NotImplemented`` for another
class), the hash of that tuple, ``Qualname(field=...)`` as repr, and an
``AttributeError`` on assignment or deletion.  Defining a subclass only
reads its annotations: no code is generated or exec'd, ``operator`` is
loaded at interpreter start and ``fractions`` by every engine, so a record
costs no more than a plain class.

``to_json`` maps each field through ``json_value``, the one JSON rule of
every report: a ``Fraction`` (so a ``RootOfUnity``) becomes its string, a
tuple or list a list, a dict one with string keys, a ``complex`` the pair
``[re, im]``, a nested record its own ``to_json()``, and any other value
stays as it is.  A report whose JSON renames, drops or reshapes a key
overrides ``to_json`` and starts from ``super().to_json()``; the value
classes (group elements, spectra) write their own formats.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

__all__ = ["Record", "json_value"]


def json_value(value):
    """The JSON form of one field value."""
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        slots = cls.__dict__.get("__slots__", ())
        cls._defaults = {name: getattr(cls, name) for name in fields if name not in slots and hasattr(cls, name)}
        # cls._values(record) is the field tuple; attrgetter gives a bare value for one name and needs at least one
        get = attrgetter(*fields) if len(fields) > 1 else lambda record: tuple(getattr(record, f) for f in fields)
        cls._values = staticmethod(get)

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
        missing = [name for name in names if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(missing)}")
        return [values[name] if name in values else cls._defaults[name] for name in names]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._values
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def to_json(self) -> dict:
        return {name: json_value(getattr(self, name)) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
