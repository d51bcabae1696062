"""Frozen records: the part of ``@dataclass(frozen=True)`` the package uses.

Kept: an ``__init__`` taking the fields the class body annotates, in order
and with their defaults, then calling ``__post_init__`` (where
``object.__setattr__`` still works); ``__eq__`` field by field within one
class; ``__hash__`` of the field tuple; the ``Name(field=value, ...)`` repr;
AttributeError on assigning or deleting.  ``_fields`` names the fields.
An unannotated class attribute is no field: ``object.__setattr__`` may
shadow it on one instance, unseen by ``__eq__``, ``__hash__`` and repr.
Dropped: ordering, ``replace``, ``fields``/``asdict``, ``field()``.  The
standard library's version loads ``inspect``, ``ast`` and ``tokenize`` on
import, about half the start-up of a command; this module imports nothing,
and every value class of the package is one of its records.
"""


def _values(self):
    return tuple(getattr(self, name) for name in self._fields)


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign or delete {name!r}: {type(self).__name__} is frozen")


def frozen(cls):
    """``cls`` as a frozen record of the fields its own body annotates."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names)
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"_cls": cls, "_set": object.__setattr__, "__name__": cls.__module__}
    exec(f"def __init__(self, {params}):{body}{post}", scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls._fields, cls.__init__, cls.__repr__ = names, scope["__init__"], _repr
    cls.__eq__, cls.__hash__, cls.__setattr__, cls.__delattr__ = _eq, _hash, _refuse, _refuse
    return cls
