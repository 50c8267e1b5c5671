"""Immutable records: the package's value classes without generated code.

A subclass lists its fields as class annotations, in order; a class
attribute of the same name is that field's default.  Construction takes
the fields positionally or by keyword, then runs ``__post_init__``.
Equality holds between instances of the same class with equal fields, the
hash and the repr (``Name(field=value, ...)``) are taken from the fields,
and setting or deleting an attribute raises :class:`AttributeError`.  A
field whose name starts with ``_`` is stored but neither compared, hashed
nor shown.  Instances keep a ``__dict__``, so ``functools.cached_property``
caches on them, and ``__post_init__`` stores derived attributes with
``object.__setattr__``.
"""


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._shown = tuple(name for name in cls._fields if not name.startswith("_"))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
                values[name] = self._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _values(self):
        return tuple(self.__dict__[name] for name in self._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({body})"
