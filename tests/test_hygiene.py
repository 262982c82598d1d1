"""Import hygiene of the library modules, checked with the stdlib ast module.

Every name a module imports is used in it, unless the import is an explicit
re-export (``import X as X``), and no module imports an underscore-prefixed
name from another wedgetree module or reads an underscore-prefixed attribute
that it does not define itself.  Every ``lru_cache``/``cache`` memo is bounded
by a named size.  ``__init__.py`` only re-exports, so it is not checked.
The description and address-step classes of ``trees`` are frozen, slotted
values whose stored hash never shows.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from wedgetree.ordinals import OMEGA1, ONE, add, nat
from wedgetree.trees import (
    CARD_OMEGA, Below, Card, Child, Copy, Full, Graft, HatOf, Seg, TildeOf, Up,
    Word,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "wedgetree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """(bound name, imported name, from-module, level, is re-export) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], a.name, None, 0, a.asname == a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, a.name, node.module, node.level, a.asname == a.name


def _used_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _is_wedgetree(module, level):
    return level > 0 or (module or "").split(".")[0] == "wedgetree"


def test_modules_found():
    assert {p.name for p in MODULES} >= {"series.py", "topology.py", "trees.py"}


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for bound, _, _, _, reexport in _imports(tree):
            if not reexport and bound not in used:
                unused.append("%s: %s" % (path.name, bound))
    assert not unused, unused


def test_no_private_cross_module_imports():
    private = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for _, name, module, level, _ in _imports(tree):
            if _is_wedgetree(module, level) and name.startswith("_"):
                private.append("%s: %s" % (path.name, name))
    assert not private, private


def _defined_names(tree):
    """Names a module defines: functions, classes, assigned names and attributes."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            out.add(n.attr)
    return out


def test_no_foreign_private_attribute_reads():
    foreign = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        own = _defined_names(tree)
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)):
                continue
            if not n.attr.startswith("_") or n.attr.startswith("__") or n.attr in own:
                continue
            if isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"):
                continue
            foreign.append("%s:%d: %s" % (path.name, n.lineno, n.attr))
    assert not foreign, foreign


def _cache_decorators(tree):
    """(decorated definition, decorator) for every lru_cache/cache decorator."""
    for n in ast.walk(tree):
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for dec in n.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else \
                getattr(target, "id", None)
            if name in ("lru_cache", "cache"):
                yield n, dec


def _maxsize(dec):
    if not isinstance(dec, ast.Call):
        return None
    for k in dec.keywords:
        if k.arg == "maxsize":
            return k.value
    return dec.args[0] if dec.args else None


def test_caches_are_bounded_by_a_named_size():
    unbounded = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, dec in _cache_decorators(tree):
            if not isinstance(_maxsize(dec), (ast.Name, ast.Attribute)):
                unbounded.append("%s:%d: %s" % (path.name, dec.lineno, fn.name))
    assert not unbounded, unbounded


def _values():
    """One value of each description and address-step class, built afresh,
    with the ``repr`` it must keep."""
    top = add(OMEGA1, ONE)
    base = HatOf(Seg(OMEGA1))
    kids = ((TildeOf(Full(2, top)), Card.fin(2)), (Seg(nat(3)), CARD_OMEGA))
    return [
        (Seg(top), "Seg(eta=Ordinal(w1+1))"),
        (Full("w", top), "Full(k='w', h=Ordinal(w1+1))"),
        (Graft(base, kids),
         "Graft(base=HatOf(inner=Seg(eta=Ordinal(w1))), children=("
         "(TildeOf(inner=Full(k=2, h=Ordinal(w1+1))), 2), (Seg(eta=Ordinal(3)), w)))"),
        (HatOf(Graft(base, kids[:1])),
         "HatOf(inner=Graft(base=HatOf(inner=Seg(eta=Ordinal(w1))), children=("
         "(TildeOf(inner=Full(k=2, h=Ordinal(w1+1))), 2),)))"),
        (TildeOf(base), "TildeOf(inner=HatOf(inner=Seg(eta=Ordinal(w1))))"),
        (Up(top), "Up(delta=Ordinal(w1+1))"),
        (Child(1), "Child(i=1)"),
        (Word((0, 1), nat(2)), "Word(letters=(0, 1), count=Ordinal(2))"),
        (Copy(0, 3), "Copy(slot=0, idx=3)"),
        (Below(), "Below()"),
    ]


def test_descriptions_are_frozen_slotted_values():
    values, twins = _values(), _values()
    assert {type(x) for x, _ in values} == {
        Seg, Full, Graft, HatOf, TildeOf, Up, Child, Word, Copy, Below}
    for (x, text), (twin, _) in zip(values, twins):
        assert not hasattr(x, "__dict__"), type(x)
        for f in dataclasses.fields(x):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, f.name, None)
        assert repr(x) == text
        assert x is not twin and x == twin and hash(x) == hash(twin)
        copy = dataclasses.replace(twin)
        assert copy is not twin and copy == x and hash(copy) == hash(x)
        assert repr(x) == repr(copy) == text  # a stored hash never shows
