"""Immutable value records without generated code.

A subclass of ``Value`` declares its fields as class annotations, in order,
and a class attribute of a field's name is that field's default.  From
functions of this module that every subclass shares, it gets what the
standard library's frozen data classes would give it:

- ``Cls(*args, **kwargs)`` in field order, defaults filled in, then
  ``__post_init__``, which may validate and use ``object.__setattr__`` to
  normalize a field or add a derived attribute;
- ``AttributeError`` on assignment to or deletion of any attribute;
- ``==`` and ``hash`` on the tuple of field values, between instances of
  the same class only;
- ``Cls(field=value, ...)`` as repr, unless the class defines its own.

The field names, defaults and value getter are computed once, when the
class is created.  No method is generated from source text, so importing
the package builds no code at run time and loads none of the modules that
code generation needs (``inspect``, ``ast``, ``dis``, ``tokenize``).
"""

from operator import attrgetter

_setattr = object.__setattr__


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call with keywords, missing arguments or
    defaults; a TypeError worded like Python's for a bad call."""
    names = cls._fields
    init = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{init} takes {len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    for name in names[:len(args)]:
        if name in kwargs:
            raise TypeError(f"{init} got multiple values for argument {name!r}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs[name])
        elif name in cls._defaults:
            values.append(cls._defaults[name])
        else:
            raise TypeError(f"{init} missing required argument {name!r}")
    unexpected = [name for name in kwargs if name not in names]
    if unexpected:
        raise TypeError(
            f"{init} got an unexpected keyword argument {unexpected[0]!r}")
    return tuple(values)


class Value:
    """Base of the package's immutable records (see the module docstring)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # own annotations only (Python 3.10+), strings under the package's
        # ``from __future__ import annotations``
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._defaults = {name: cls.__dict__[name] for name in fields
                         if name in cls.__dict__}
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # the usual call passes every field by position
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
