"""Record classes: fields declared by annotation, built without ``dataclasses``.

``record`` turns a class body that annotates its fields into a new, slotted
class with the ``__init__``, ``__repr__`` and ``__eq__`` that
``dataclasses.dataclass`` would give it: records are equal when they are of
the same class and their compare fields are equal.  A ``frozen`` record
raises ``FrozenInstanceError``, an ``AttributeError``, on every assignment
and deletion; it hashes as the tuple of its compare fields, once, and keeps
the hash in the slot ``_h``.  A mutable record is unhashable.  The methods
are closures over the fields, not generated source, so no code is compiled
and neither ``dataclasses`` nor ``inspect`` is imported.  A method the body
defines is kept (an ``__init__`` of a frozen record written by hand sets
``_h`` to None), and no method may use the zero-argument ``super()``.
Copies and pickles are rebuilt through ``__init__`` from the init fields,
so a kept hash, valid only in the process and under the hash seed that
computed it, is never carried over.
"""

from itertools import repeat
from operator import attrgetter, is_

MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class Field:
    """One field of a record: its name, its default and three flags, with the
    meaning ``dataclasses.field`` gives them."""

    def __init__(self, default=MISSING, default_factory=MISSING, init=True,
                 repr=True, compare=True):
        self.name, self.default, self.default_factory = None, default, default_factory
        self.init, self.repr, self.compare = init, repr, compare

    def value(self):
        """The field's default value; MISSING when it has none."""
        if self.default_factory is not MISSING:
            return self.default_factory()
        return self.default


def field(*, default=MISSING, default_factory=MISSING, init=True, repr=True,
          compare=True):
    return Field(default, default_factory, init, repr, compare)


def fields(record_or_class):
    return record_or_class.__record_fields__


def replace(obj, **changes):
    """A new record like ``obj``, with the init fields in ``changes``."""
    for f in fields(obj):
        if not f.init:
            if f.name in changes:
                raise ValueError("field %s is declared with init=False, it "
                                 "cannot be specified with replace()" % f.name)
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def _tuple_of(names):
    """A function from a record to the tuple of its ``names`` fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    if names:
        return attrgetter(*names)
    return lambda obj: ()


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError("cannot assign to field %r" % name)


def _frozen_delattr(self, name):
    raise FrozenInstanceError("cannot delete field %r" % name)


def record(cls=None, *, frozen=False):
    """The record class of the class body ``cls``; see the module docstring."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    ns = dict(cls.__dict__)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    if "__hash__" in ns and ns["__hash__"] is None:
        del ns["__hash__"]  # set by the interpreter, since the body defines __eq__
    specs = []
    for name in cls.__annotations__:
        f = ns.pop(name, MISSING)
        if not isinstance(f, Field):
            f = Field(default=f)
        f.name = name
        specs.append(f)
    ns["__slots__"] = tuple(f.name for f in specs) + (("_h",) if frozen else ())
    ns["__record_fields__"] = specs = tuple(specs)
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    new.__qualname__ = cls.__qualname__
    slots = vars(new)
    set_hash = slots["_h"].__set__ if frozen else None

    init_specs = tuple(f for f in specs if f.init)
    names = tuple(f.name for f in init_specs)
    defaults = tuple(f.default for f in init_specs)
    # past this index every init field has a plain default
    required = max((i + 1 for i, f in enumerate(init_specs) if f.default is MISSING),
                   default=0)
    later = tuple(f for f in specs if not f.init)
    setters = tuple(slots[name].__set__ for name in names)
    key = _tuple_of([f.name for f in specs if f.compare])
    init_values = _tuple_of(names)
    shown = [f.name for f in specs if f.repr]

    def bind(args, kwargs):
        """The init field values of a call that leaves out or names some."""
        k = len(args)
        values = args + tuple(map(kwargs.pop, names[k:], defaults[k:]))
        if k < required and any(map(is_, values[k:required], repeat(MISSING))):
            values = tuple(f.value() if v is MISSING else v
                           for f, v in zip(init_specs, values))
        if kwargs or k > len(names) or (
                k < required and any(map(is_, values, repeat(MISSING)))):
            raise TypeError("%s() takes the arguments (%s)"
                            % (new.__qualname__, ", ".join(names)))
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        if frozen:
            for set_field, value in zip(setters, args):
                set_field(self, value)
            set_hash(self, None)
        else:
            for name, value in zip(names, args):
                setattr(self, name, value)
        for f in later:
            object.__setattr__(self, f.name, f.value())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in shown))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __reduce__(self):
        return (self.__class__, init_values(self))

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__reduce__": __reduce__, "__hash__": None}
    if frozen:
        def __hash__(self):
            h = self._h
            if h is None:
                h = hash(key(self))
                set_hash(self, h)
            return h

        methods.update(__hash__=__hash__, __setattr__=_frozen_setattr,
                       __delattr__=_frozen_delattr)
    for name, method in methods.items():
        if name not in ns:
            setattr(new, name, method)
    return new
