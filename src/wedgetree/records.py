"""Record classes: fields declared by annotation, built without ``dataclasses``.

``record`` turns a class body that annotates its fields into a new, slotted
class with the ``__init__``, ``__repr__`` and ``__eq__`` that
``dataclasses.dataclass`` would give it: records are equal when they are of
the same class and their compare fields are equal.  A ``frozen`` record
raises ``FrozenInstanceError``, an ``AttributeError``, on every assignment
and deletion; it hashes as the tuple of its compare fields, once, and keeps
the hash in the slot ``_h``.  A mutable record is unhashable.  The methods
are compiled from generated source, as ``dataclasses`` does, but each one
only on its first call, so importing a module of records compiles nothing
and building a record compiles only its ``__init__``.  ``__init__`` takes
the fields as its parameters, so Python itself binds and checks the
arguments; a frozen record sets the fields through its slots' own setters,
and ``__eq__`` and ``__hash__`` compare and hash a tuple of the fields read
by name.  Neither ``dataclasses`` nor ``inspect`` is imported.  ``record``
sets every one of these methods, so a class body defines none of them, and
no method may use the zero-argument ``super()``.  Copies and pickles are rebuilt through ``__init__`` from the
fields, so a kept hash, valid only in the process and under the hash
seed that computed it, is never carried over.
"""

MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class Field:
    """One field of a record: its name, its default and two flags, with the
    meaning ``dataclasses.field`` gives them."""

    def __init__(self, default=MISSING, repr=True, compare=True):
        self.name, self.default, self.repr, self.compare = None, default, repr, compare


def field(*, default=MISSING, repr=True, compare=True):
    return Field(default, repr, compare)


def fields(record_or_class):
    return record_or_class.__record_fields__


def replace(obj, **changes):
    """A new record like ``obj``, with the fields in ``changes``."""
    for f in fields(obj):
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError("cannot assign to field %r" % (name,))


def _frozen_delattr(self, name):
    raise FrozenInstanceError("cannot delete field %r" % (name,))


def _sources(cls, frozen):
    """The source of each method of record class ``cls``, and the names they
    read: each field's default ``_d_<name>`` and, for a frozen record, the
    setter ``_s_<name>`` of its slot."""
    specs = cls.__record_fields__
    names = [f.name for f in specs]
    env = {"_d_" + f.name: f.default for f in specs}
    params = ["self"] + [f.name if f.default is MISSING else "%s=_d_%s" % (f.name, f.name)
                         for f in specs]
    sets = [(name, name) for name in names]
    if frozen:
        sets.append(("_h", "None"))
        env.update(("_s_" + name, vars(cls)[name].__set__) for name in cls.__slots__)
        sets = ["_s_%s(self, %s)" % (name, value) for name, value in sets]
    else:
        sets = ["self.%s = %s" % (name, value) for name, value in sets]

    def attrs(obj, names):
        return "(%s)" % "".join("%s.%s," % (obj, n) for n in names)

    key = [f.name for f in specs if f.compare]
    sources = {
        "__init__": "def __init__(%s):\n    %s" % (
            ", ".join(params), "\n    ".join(sets or ["pass"])),
        "__eq__": "def __eq__(self, other):\n"
                  "    if other.__class__ is self.__class__:\n"
                  "        return %s == %s\n"
                  "    return NotImplemented" % (attrs("self", key), attrs("other", key)),
        "__repr__": "def __repr__(self):\n"
                    "    return f'{self.__class__.__qualname__}(%s)'" % ", ".join(
                        "%s={self.%s!r}" % (f.name, f.name) for f in specs if f.repr),
        "__reduce__": "def __reduce__(self):\n    return self.__class__, %s"
                      % attrs("self", names),
    }
    if frozen:
        sources["__hash__"] = ("def __hash__(self):\n"
                               "    h = self._h\n"
                               "    if h is None:\n"
                               "        h = hash(%s)\n"
                               "        _s__h(self, h)\n"
                               "    return h" % attrs("self", key))
    return sources, env


def _compiled_on_first_call(cls, frozen, name):
    """A stand-in for the method ``name`` of record class ``cls``: its first
    call compiles the method, puts it in its place and calls it."""
    def method(self, *args, **kwargs):
        sources, env = _sources(cls, frozen)
        compiled = {}
        exec(compile(sources[name], "<record %s>" % (cls.__qualname__,), "exec"),
             env, compiled)
        setattr(cls, name, compiled[name])
        return compiled[name](self, *args, **kwargs)

    return method


def record(cls=None, *, frozen=False):
    """The record class of the class body ``cls``; see the module docstring."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    ns = dict(cls.__dict__)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    specs = []
    for name in cls.__annotations__:
        f = ns.pop(name, MISSING)
        if not isinstance(f, Field):
            f = Field(default=f)
        f.name = name
        specs.append(f)
    ns.update(__hash__=None, __record_fields__=tuple(specs),
              __slots__=tuple(f.name for f in specs) + (("_h",) if frozen else ()))
    if frozen:
        ns.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    new.__qualname__ = cls.__qualname__
    for name in ("__init__", "__eq__", "__repr__", "__reduce__") + (
            ("__hash__",) if frozen else ()):
        setattr(new, name, _compiled_on_first_call(new, frozen, name))
    return new
