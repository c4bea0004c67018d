"""Frozen value records, built without per-class code generation.

A record's fields are the annotations of its own class body, in order; a
class attribute of the same name is the field's default. Every record
shares one __init__ that binds the fields by position and keyword, then
calls __post_init__, where a record validates and may normalize its
fields through object.__setattr__. Equality compares the fields one by
one, a numpy array field by dtype, shape and elements; hashing and repr
work over the field tuple, so a record that holds an array refuses to
hash. Assignment or deletion raises AttributeError.

`_fields`, the tuple of field names, is public, as on a namedtuple.
`frozen` is how a record keeps a numpy array field.
"""

from __future__ import annotations

import numpy as np


class Record:
    _fields = ()
    _field_set = frozenset()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {
            name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__
        }

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if args:
            if len(args) > len(names):
                raise TypeError(
                    f"{cls.__name__}() takes {len(names)} positional arguments "
                    f"but {len(args)} were given"
                )
            bound = dict(zip(names, args))
            for name in kwargs:
                if name in bound:
                    raise TypeError(
                        f"{cls.__name__}() got multiple values for argument {name!r}"
                    )
            bound.update(kwargs)
            kwargs = bound
        values = cls._defaults | kwargs
        if values.keys() != cls._field_set:
            for name in kwargs:
                if name not in cls._field_set:
                    raise TypeError(
                        f"{cls.__name__}() got an unexpected keyword argument {name!r}"
                    )
            missing = ", ".join(name for name in names if name not in values)
            raise TypeError(f"{cls.__name__}() missing arguments: {missing}")
        state = self.__dict__
        for name in names:
            state[name] = values[name]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def frozen(arr):
    """The read-only array a record keeps for the numpy array arr: arr
    itself when it is read-only and owns its data, which its holder thereby
    hands over, else a read-only copy that no other array can write to."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr
