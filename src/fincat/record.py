"""Immutable records: the base class of fincat's value types.

A record's fields are the names its class annotates, after those of its
bases; ``_fields`` lists them, as it does for a named tuple.  ``Record``
gives each subclass immutable value semantics, and it generates no code
for it, so importing fincat compiles nothing at run time:

* a constructor taking the fields positionally or by name, a field's
  default being its class attribute (a dict default is copied for each
  record);
* equality over the field values, between records of one class only, and
  a hash over the same values;
* the repr ``Name(field=value, ...)``;
* assignment and deletion that raise ``AttributeError``;
* ``replace(**changes)``, a copy with some fields changed, and copying and
  pickling through the constructor.

Constructors set fields with ``object.__setattr__``.  A subclass uses
``Record.__init__`` unless it must do more when built: one that validates
its fields does so after ``super().__init__`` has set them, and one that
caches a hash sets that too.  A class built thousands of times declares
``__slots__``, unless it caches values in its ``__dict__`` or gives a
field a default (a class attribute cannot share its name with a slot).
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        slots = own.get("__slots__", ())
        names = [n for n in own.get("__annotations__", ()) if n not in cls._fields]
        cls._fields += tuple(names)
        defaults = {n: own[n] for n in names if n in own and n not in slots}
        cls._defaults = {**cls._defaults, **defaults}
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, from some given positionally, some by name
        and the rest by default."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, {len(args)} given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated field {name!r}")
            values[name] = value
        bound = []
        for name in names:
            if name in values:
                bound.append(values[name])
            elif name in cls._defaults:
                value = cls._defaults[name]
                bound.append(dict(value) if isinstance(value, dict) else value)
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        return bound

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy of this record with the named fields changed."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
