"""Frozen value records: the one base class of clpa's immutable values.

A subclass lists its fields as class annotations, in order; a field given a
value in the class body has that value as its default.  :class:`Record`
supplies, once for every subclass, the constructor (positional or keyword
arguments, then ``__post_init__``), frozen attributes, equality and hashing
by the tuple of field values, and a ``Name(field=value, ...)`` repr.  Nothing
is generated per class: generating these methods with :mod:`dataclasses`
cost about 45 ms of every ``clpa`` command's start-up.

Classes built in hot loops declare ``__slots__`` and write their own
``__init__`` (the shared one fills the instance ``__dict__``), ``__eq__`` and
``__hash__`` with the same meaning.
"""


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields) or kwargs.keys() - fields[len(args):]:
            raise TypeError(f"{cls.__name__}() takes fields {fields}, got "
                            f"{len(args)} positional and {sorted(kwargs)} keyword arguments")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        if len(values) < len(fields):
            missing = [f for f in fields if f not in values]
            raise TypeError(f"{cls.__name__}() missing arguments {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; the frozen
        # __setattr__ would refuse the default slot-by-slot restore
        return type(self), self._values()
