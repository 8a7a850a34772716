"""One base for the value classes, in place of ``dataclasses``, which
imports ``inspect`` and compiles every method with ``exec``.

A subclass names its fields, in constructor order, in ``_fields`` and
sets them in its ``__init__``.  It compares equal only to its own class,
field by field, and its repr names every field.  A frozen subclass
(``class P(Record, frozen=True)``) sets its fields in ``__dict__``,
hashes by their tuple and refuses assignment; any other is unhashable,
as with ``dataclass`` and ``dataclass(frozen=True)``.
"""

from operator import attrgetter


class Record:
    _fields = ()

    def __init_subclass__(cls, frozen=False):
        get = attrgetter(*cls._fields)
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        else:
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


def _refuse(self, name, *value):
    verb = "assign to" if value else "delete"
    raise AttributeError(f"cannot {verb} field {name!r}")
