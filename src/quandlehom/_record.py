"""The private base of the package's value classes: immutable slots records.

``_fields`` names the constructor arguments (two or more) that ``==``, hash,
repr and pickling use; ``__slots__`` holds them, then any derived values, in
the order ``_fill`` sets them.  Once set, a slot cannot be assigned or deleted.
Records are equal only within one class; pickling goes through the constructor.
"""

from operator import attrgetter


class _Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fill(self, *values):
        for set_value, value in zip(self._setters, values):
            set_value(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name, *value):
        raise AttributeError(
            f"{type(self).__qualname__} is immutable: cannot set or delete {name!r}"
        )

    __delattr__ = __setattr__
