"""Differential test of ``wedgetree.records`` against ``dataclasses``.

For every record class in ``src/``, a ``dataclasses`` twin is built from the
class body as written in the source: the same field names and annotations,
with each default or ``field(...)`` expression evaluated by
``dataclasses.field``, and the same ``frozen`` flag.  On sample values (the
description table of ``test_hygiene`` and the constructions over the
witness case tables of ``helpers``), each record and its twin must agree on
``repr``, equality (exact class, compare fields only), ``hash``, field order
and options, defaults, the error on assigning to or deleting a field, and
on ``copy``, ``deepcopy`` and ``pickle``, and on which calls with a field
missing, an argument too many or an unknown keyword raise ``TypeError``.
``record`` compiles each method on its first call; no class body writes its
own.
"""

import ast
import copy
import dataclasses
import importlib
import pickle
import sys
import types
from pathlib import Path

import pytest

from wedgetree.classify import (
    binary_obstruction, build_separating_family, classify_report,
    gdelta_analysis,
)
from wedgetree.constructions import disjoint_closures, hat, roundtrip_check
from wedgetree.errors import WedgeTreeError
from wedgetree.records import MISSING, fields
from wedgetree.topology import (
    CDiff, ClubFamily, Cone, ConeComplement, EventuallyConstant, OmegaFamily,
    SeqSpec, Wedge, club_accumulation, countably_closed_witness, fu_extract,
    maximality_witness,
)
from wedgetree.trees import Child, resolve

from helpers import (
    BINARY_W1, W, W0n, W1, club_cases, disjoint_closure_cases, fu_cases, o,
    separating_family_cases, seg, up, word,
)
from test_hygiene import _python, _values

SRC = Path(__file__).resolve().parent.parent / "src" / "wedgetree"


def _record_classes(path):
    """(class node, decorator call or None) for each class of ``path``
    decorated with ``record``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if getattr(call.func if call else dec, "id", None) == "record":
                    yield node, call


def _record_bodies():
    """(module, class name, frozen, [(field, annotation, default or field)])
    for each class in ``src/`` decorated with ``record``, read off the source."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("wedgetree." + path.stem)
        scope = dict(vars(module), field=dataclasses.field)
        for node, call in _record_classes(path):
            frozen = any(k.arg == "frozen" and ast.literal_eval(k.value)
                         for k in (call.keywords if call else ()))
            specs = [(st.target.id, ast.unparse(st.annotation)) + (
                () if st.value is None else
                (eval(compile(ast.Expression(st.value), str(path), "eval"), scope),))
                for st in node.body if isinstance(st, ast.AnnAssign)]
            out.append((module, node.name, frozen, specs))
    return out


@pytest.fixture(scope="module")
def twins():
    """Each record class mapped to its ``dataclasses`` twin.  The twins live
    in a module of their own, so that ``pickle`` finds them by name."""
    home = types.ModuleType("record_twins")
    sys.modules[home.__name__] = home
    out = {}
    for module, name, frozen, specs in _record_bodies():
        twin = dataclasses.make_dataclass(name, specs, frozen=frozen)
        twin.__module__ = home.__name__
        setattr(home, name, twin)
        out[getattr(module, name)] = twin
    yield out
    del sys.modules[home.__name__]


def _records_in(value, out):
    """Every record reachable from ``value`` through records, tuples, lists
    and dicts, appended to ``out``."""
    if hasattr(type(value), "__record_fields__"):
        out.append(value)
        for f in fields(value):
            _records_in(getattr(value, f.name), out)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _records_in(v, out)
    elif isinstance(value, dict):
        for k, v in value.items():
            _records_in(k, out)
            _records_in(v, out)
    return out


def _samples():
    """Records from the description table, the witness case tables and one
    run of each construction that builds a record."""
    roots = [x for x, _ in _values()]

    def run(fn, *args):
        roots.extend(args)
        try:
            roots.append(fn(*args))
        except WedgeTreeError as e:
            roots.append(getattr(e, "witness", None))

    for d, t, S in club_cases():
        run(club_accumulation, d, resolve(d, t), S)
    for _, d, t, A in fu_cases():
        run(fu_extract, d, A, resolve(d, t))
    for d, S in separating_family_cases():
        run(build_separating_family, d, S)
    for d, A, B, _ in disjoint_closure_cases():
        run(disjoint_closures, d, A, B)
    tops = (word("0", W1),)
    run(countably_closed_witness, BINARY_W1, resolve(BINARY_W1, tops),
        OmegaFamily((W0n(), Child(1))))
    run(maximality_witness, seg(o(W, 1)), [CDiff((up(W),), ((up(o(W, 1)),),))])
    run(maximality_witness, BINARY_W1, [Wedge((word("0", W1),), ()),
                                        Cone((Child(1),)), ConeComplement(tops)])
    run(classify_report, BINARY_W1)
    run(binary_obstruction, BINARY_W1)
    run(gdelta_analysis, BINARY_W1, tops)
    run(roundtrip_check, BINARY_W1)
    run(hat, BINARY_W1)
    roots += [ClubFamily(tops, (W0n(),)), SeqSpec((tops,), EventuallyConstant(()))]
    return _records_in(roots, [])


def _twin_of(x, twins):
    return twins[type(x)](**{f.name: getattr(x, f.name) for f in fields(x)})


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or its error's class and text."""
    try:
        return "value", fn(*args)
    except (AttributeError, TypeError) as e:
        return isinstance(e, AttributeError), str(e)


def _options(f, missing):
    return (f.name, f.default is missing, f.repr, f.compare)


def test_every_record_class_has_a_twin_and_a_sample(twins):
    sampled = {type(x) for x in _samples()}
    assert len(twins) == 36
    assert sampled == set(twins), set(twins) - sampled


def test_fields_and_defaults_agree(twins):
    for cls, twin in twins.items():
        ours, theirs = fields(cls), dataclasses.fields(twin)
        assert [_options(f, MISSING) for f in ours] == \
            [_options(f, dataclasses.MISSING) for f in theirs], cls
        for f, g in zip(ours, theirs):
            if f.default is not MISSING:
                assert f.default is g.default, (cls, f.name)
        # a call with the required fields only fills in the same defaults
        required = [f.name for f in theirs if f.init and f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        args = {name: () for name in required}
        assert repr(cls(**args)) == repr(twin(**args)), cls


def test_records_agree_with_their_twins(twins):
    by_class = {}
    for x in _samples():  # up to 12 distinct values of each class
        distinct = by_class.setdefault(type(x), {})
        if len(distinct) < 12:
            distinct.setdefault(repr(x), x)
    for cls, distinct in by_class.items():
        xs = list(distinct.values())
        twin = twins[cls]
        sub, twin_sub = type("Sub", (cls,), {}), type("Sub", (twin,), {})
        frozen = twin.__dataclass_params__.frozen
        for x in xs:
            t = _twin_of(x, twins)
            assert repr(x) == repr(t)
            assert _outcome(hash, x) == _outcome(hash, t), repr(x)
            # equality: exact class, compare fields only
            init = {f.name: getattr(x, f.name) for f in fields(x)}
            assert x == cls(**init) and t == twin(**init)
            assert (x == sub(**init)) is (t == twin_sub(**init)) is False
            assert (x == t) is False and (x != t) is True
            for y in xs:
                assert (x == y) is (t == _twin_of(y, twins)), (x, y)
            for f in fields(x):
                value = getattr(x, f.name)
                assert _outcome(setattr, x, f.name, value) == \
                    _outcome(setattr, t, f.name, value)
                if frozen:
                    assert _outcome(delattr, x, f.name) == _outcome(delattr, t, f.name)
            if frozen:
                assert _outcome(setattr, x, "other", 1) == _outcome(setattr, t, "other", 1)
            for make in (copy.copy, copy.deepcopy,
                         lambda v: pickle.loads(pickle.dumps(v))):
                y, u = make(x), make(t)
                assert type(y) is cls and type(u) is twin
                assert repr(y) == repr(u) == repr(x)
                assert (y == x) is (u == t) is True
                assert _outcome(hash, y) == _outcome(hash, u)


_BUILT_METHODS = ("__init__", "__eq__", "__repr__", "__hash__", "__reduce__")


def test_no_record_body_writes_a_built_method():
    for path in sorted(SRC.glob("*.py")):
        for node, _ in _record_classes(path):
            written = {st.name for st in node.body if isinstance(st, ast.FunctionDef)}
            written |= {t.id for st in node.body if isinstance(st, ast.Assign)
                        for t in st.targets if isinstance(t, ast.Name)}
            assert not written & set(_BUILT_METHODS), (path.name, node.name)


def _type_error(make, args, kwargs):
    try:
        make(*args, **kwargs)
    except TypeError:
        return True
    return False


def test_bad_calls_raise_exactly_when_the_twins_do(twins):
    """A call with a field missing, one positional argument too many, an
    unknown keyword or a field given twice raises ``TypeError`` for each
    record class exactly when it does for its twin."""
    raised = 0
    for cls, twin in twins.items():
        names = [f.name for f in fields(cls)]
        full = {name: () for name in names}
        calls = [((), {}), ((), dict(full, bogus=1)), (((),) * (len(names) + 1), {}),
                 (((),) * len(names), {}), (((),) * len(names), {"bogus": 1})]
        calls += [((), {k: v for k, v in full.items() if k != name}) for name in names]
        calls += [(((),) * i, {name: ()}) for i, name in enumerate(names, 1)]
        for args, kwargs in calls:
            expected = _type_error(twin, args, kwargs)
            assert _type_error(cls, args, kwargs) is expected, (cls, args, kwargs)
            raised += expected
    assert raised > 5 * len(twins)


_COMPILED = """
import importlib
import pkgutil
import sys
import wedgetree
for m in pkgutil.iter_modules(wedgetree.__path__):
    importlib.import_module("wedgetree." + m.name)
from wedgetree.topology import Cone


def compiled():
    return sorted({c.__name__ + "." + n
                   for m in list(sys.modules) if m.startswith("wedgetree")
                   for c in vars(sys.modules[m]).values()
                   if hasattr(c, "__record_fields__")
                   for n in %r if hasattr(vars(c).get(n), "__code__")
                   and vars(c)[n].__code__.co_filename.startswith("<record ")})


print(compiled())
x = Cone(())
print(compiled())
x == Cone(()), hash(x), repr(x)
print(compiled())
""" % (_BUILT_METHODS,)


def test_methods_are_compiled_on_first_call():
    """Importing every ``wedgetree`` module compiles no record method, so
    no module builds a record, or keeps one among its globals, when it is
    imported; building one ``Cone`` compiles its ``__init__`` and nothing
    else, and each other method of ``Cone`` is compiled on its own first
    call."""
    assert _python(_COMPILED).splitlines() == [
        "[]", "['Cone.__init__']",
        "['Cone.__eq__', 'Cone.__hash__', 'Cone.__init__', 'Cone.__repr__']"]
