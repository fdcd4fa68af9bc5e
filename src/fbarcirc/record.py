"""Frozen value types without generated code.

A :class:`Record` subclass declares its fields as class annotations, in
order, and their defaults as class attributes, as a frozen dataclass does.
Its methods are the base class's, shared by every subclass, so defining one
compiles nothing: ``dataclasses`` builds six methods per class through
``exec``, about 1 ms a class, and this package's classes are defined on
every command's start-up path.

An instance takes its fields positionally or by keyword, runs the class's
``__post_init__`` when it has one, and is frozen from then on: a
``__post_init__`` that normalizes a field writes it with
``object.__setattr__``.  Records compare equal only to records of their own
type with equal fields, hash their fields and print as
``Name(field=value, ...)``.  :func:`replace` builds a changed copy through
``__init__``, so the copy passes every check that a new record would.
"""

from __future__ import annotations


class Record:
    """Base of the package's value types: frozen, compared and hashed by field."""

    __slots__ = ()

    # set on each subclass at its definition
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _post_init: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # the class's own, never a base's (Python >= 3.10)
        cls._fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own
                                             if name in cls.__dict__}}
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} "
                            f"were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            values = {**self._defaults, **values}
            missing = [key for key in fields if key not in values]
            if missing:
                raise TypeError(f"{name}() missing required arguments: "
                                f"{', '.join(map(repr, missing))}")
        self.__dict__.update(values)
        if self._post_init:
            self.__post_init__()

    def __setattr__(self, key: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {key!r}")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {key!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                f"{', '.join(f'{key}={getattr(self, key)!r}' for key in self._fields)})")


def replace(obj: Record, /, **changes) -> Record:
    """A copy of ``obj`` with ``changes`` applied, built through ``__init__``,
    so that its ``__post_init__`` checks the new values (``dataclasses.replace``
    for records)."""
    return type(obj)(**{**dict(zip(obj._fields, obj._values())), **changes})
