"""Frozen value records: the package's one class decorator.

``frozen`` gives a class the ``__init__``, ``repr``, ``==`` and ``hash``
that ``dataclasses.dataclass(frozen=True)`` gives it, at a fraction of the
cost of building the class.
"""

from operator import attrgetter


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def frozen(cls):
    """The fields are the class's own annotations, in order (no record class
    inherits from another), kept as ``_fields``.  ``__init__`` takes them
    positional or keyword, class attributes as defaults, then calls
    ``__post_init__`` if there is one; ``==`` and ``hash`` go by the tuple
    of fields; assignment and deletion raise ``AttributeError``.  No
    ``__slots__``, so ``functools.cached_property`` works."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    params = ", ".join(f"{f}=_d[{f!r}]" if f in cls.__dict__ else f for f in names)
    body = "".join(f"\n _set(self, {f!r}, {f})" for f in names)
    post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"_set": object.__setattr__, "_d": cls.__dict__}
    exec(f"def __init__(self, {params}):{body}{post}", scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={v!r}' for f, v in zip(names, key(self)))})"

    cls.__init__, cls.__eq__, cls.__hash__ = scope["__init__"], __eq__, lambda self: hash(key(self))
    cls.__repr__, cls.__setattr__, cls.__delattr__, cls._fields = __repr__, _refuse, _refuse, names
    return cls
