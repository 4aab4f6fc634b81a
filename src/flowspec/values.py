"""The one decorator every value type is declared with.

``value_type`` is ``dataclass(frozen=True, slots=True)`` with a cheaper
``__init__``.  The ``__init__`` that ``dataclasses`` generates for a frozen
class stores each field by looking ``__setattr__`` up on ``object`` and
calling it, once per field.  The one installed here stores each field
through its class's slot descriptor, then calls ``__post_init__`` where the
class defines one.  Its name, qualified name, parameters, defaults and
annotations are those of the generated one, and nothing else about the
class changes: assigning a field still raises ``FrozenInstanceError``, and
``__eq__``, ``__hash__``, ``__repr__``, ``__match_args__``, pickling,
copying and ``dataclasses.replace`` are the dataclass's own.

A value type may also declare ``derived`` fields, computed on first read
and kept in their slot.  They are no ``__init__`` parameter and take no part
in ``__eq__``, ``__hash__`` or ``__repr__``, and a ``replace``, a copy or an
unpickled value computes its own.  Each is read through a descriptor that
wraps its slot, so the class needs no ``__getattr__``, which would slow
every other attribute read.  ``__init__`` fills the slot with a marker, so
the first read tests for it instead of catching the empty slot's
``AttributeError``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields


def derived(compute):
    """A field holding ``compute(self)``, computed when it is first read."""
    return field(init=False, repr=False, compare=False, metadata={"derive": compute})


_UNREAD = object()  # a derived field's slot before its first read


class _Derived:
    """A derived field's slot: reading it while it holds ``_UNREAD`` computes
    the value and keeps it there, so it only ever holds what its value's own
    fields give."""

    __slots__ = ("get", "set", "compute")

    def __init__(self, slot, compute):
        self.get, self.set, self.compute = slot.__get__, slot.__set__, compute

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.get(obj)
        if value is _UNREAD:
            value = self.compute(obj)
            self.set(obj, value)
        return value

    def __set__(self, obj, value):
        """Mark the slot unread, dropping ``value``.  Only the dataclass's
        ``__setstate__`` gets here (a frozen class's ``__setattr__`` raises
        first), with the original's value; a copy or an unpickled value
        computes its own when read."""
        self.set(obj, _UNREAD)


def value_type(cls):
    """Declare ``cls`` a frozen, slotted dataclass.  Every field must be a
    positional ``__init__`` parameter with at most a plain default, or a
    ``derived`` field."""
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = cls.__init__
    names = []
    derive = {}
    for f in fields(cls):
        if "derive" in f.metadata:
            derive[f.name] = f.metadata["derive"]
            continue
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__qualname__}.{f.name}: not a plain positional field")
        names.append(f.name)
    namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in (*names, *derive)}
    namespace["_UNREAD"] = _UNREAD
    body = [f"_set_{n}(self, {n})" for n in names] + [f"_set_{n}(self, _UNREAD)" for n in derive]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__(self, {', '.join(names)}):\n    " + "\n    ".join(body)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    cls.__init__ = init
    for name, compute in derive.items():
        setattr(cls, name, _Derived(vars(cls)[name], compute))
    return cls
