"""The base of the package's mutable record types.

Immutable records are ``typing.NamedTuple`` classes, or subclasses of a
``collections.namedtuple`` whose ``__new__`` checks the fields (see
``amr.AmrEdge``) and whose ``_make`` is ``checked_make``. Records that
change after they are built or check their arguments are ``__slots__``
classes derived from ``Record``. One that keeps a value derived from its
fields adds ``__dict__`` to its slots and computes the value with
``functools.cached_property``, which keeps it in that instance dict (see
``rdf.RdfGraph``). Defining them compiles at most a named tuple's one-line
``__new__``, where a generated class compiles every method it writes, so
importing the package stays cheap.
"""

from __future__ import annotations


class Record:
    """``Name(field=value, ...)`` repr and field-wise equality over
    ``_fields``, which lists the fields in the order of ``__init__``'s
    parameters. Equal records are of one class; records are unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]


@classmethod
def checked_make(cls, iterable):
    """``cls(*iterable)``: a checked named tuple's ``_make``, so that it and
    ``_replace``, which calls it, go through the checks in ``__new__``."""
    return cls(*iterable)
