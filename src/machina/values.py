"""What machina's value types share, without ``dataclasses``.

Types read on every step, the checked ones and the mutable ones subclass
:class:`FrozenValue` or :class:`Value`. Such a class lists its fields in
``__slots__``, in constructor order, and sets them in its own ``__init__``;
a trailing ``"__dict__"`` slot holds its ``functools.cached_property``
memos. From that list the base gives it ``_fields``, equality with instances
of its own class, a ``repr`` and a ``_replace`` that builds the copy through
``__init__``, so a copy is checked like a new value and starts with empty
memos. A value derived from the fields and read on every step (a state's
``is_end``, an action's ``resolved_output_key``) is such a memo, not a
``property``: the first read computes it, and every later read is an
attribute lookup with no call.

Types built often and read rarely are ``typing.NamedTuple`` classes marked
:func:`distinct`, so that they equal only instances of their own class.

Two rules skip a constructor, each only where that constructor checks
nothing (worths from ``BENCH_ablation.json``):

- where the run loop, a policy, a provider or the dataset generator builds
  a named tuple per step, reply or item, it calls ``tuple_new(Cls, (field,
  ...))`` with every field in ``_fields`` order, defaults included, as a
  field left out makes a short tuple, not an error (worth 10% of
  resume-loop's items/s);
- ``belief.snapshot`` builds its copy with ``object.__new__`` and a store
  per slot, so every slot must be stored (worth 2.6% of resume-loop's
  items/s, with a call-count copy then built alike).
"""


class _EmptyMapping(dict):
    """An empty dict that refuses every change; a copy of it is itself."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("this mapping is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# The default of a frozen type's mapping field, shared by every instance.
EMPTY_MAPPING = _EmptyMapping()

_setattr = object.__setattr__

# A named tuple's generated ``__new__`` is a Python function whose whole body
# is ``tuple.__new__(cls, (fields...))``: calling the builtin directly saves
# a Python frame, about half the cost of building a small record.
tuple_new = tuple.__new__


class Value:
    """A mutable slotted value; instances are unhashable."""

    __slots__ = ()
    _fields: tuple = ()
    # fields that are memos: left out of equality, hashing and ``repr``
    _uncompared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._uncompared
        )
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        """A new instance with ``changes`` applied, built by ``__init__``."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)

    __replace__ = _replace  # what copy.replace calls, from Python 3.13

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class FrozenValue(Value):
    """An immutable, hashable slotted value. ``__init__`` stores the fields
    with :meth:`_set`; assigning or deleting one raises ``AttributeError``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Store ``values`` in field order."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())


def _same_class_eq(self, other):
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _same_class_ne(self, other):
    return not _same_class_eq(self, other)


def distinct(cls):
    """Class decorator for a named tuple: its instances equal only instances
    of the same class, never a plain tuple or another named tuple of the same
    values. Hashing and ordering stay the tuple's."""
    cls.__eq__ = _same_class_eq
    cls.__ne__ = _same_class_ne
    cls.__hash__ = tuple.__hash__
    return cls
