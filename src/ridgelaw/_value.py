"""The immutable base of the package's value classes, standard library only.

A subclass's fields are its ``__init__``'s parameters, in order; the
``__init__`` validates them and stores each by name with ``_set``. An instance
keeps its fields in its ``__dict__``, so a ``functools.cached_property`` can
still cache there.
"""


class Value:
    """Read-only fields, compared and hashed as one tuple, shown as ``Name(field=value, ...)``."""

    _fields = ()
    _unshown = ()  # fields that repr leaves out

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, **fields):
        self.__dict__.update(fields)

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown)
        return f"{type(self).__qualname__}({shown})"
