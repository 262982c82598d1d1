"""Import hygiene of the library and test modules, checked with stdlib ast.

Every name a library or test module imports is used in it, unless the import
is an explicit re-export (``import X as X``), and no library module imports an
underscore-prefixed name from another wedgetree module or reads an
underscore-prefixed attribute that it does not define itself.  Every name a
library module assigns at its top level is read somewhere in the library, so a
constant or budget that nothing reads any more does not linger.  Every
``lru_cache``/``cache`` memo is bounded by a named size, and no code sets an
attribute of the shared ``Node``s that the views memoize.  Each view states
its sites per level only, and the list of all sites is derived once, on
``_View``.  ``__init__.py`` imports no library module (it maps each public
name to its home module and loads that module on first use), so it is not
checked here; instead the package surface is checked, and fresh interpreters
check that the CLI and its light commands leave the heavy modules unloaded.
The description and address-step classes of ``trees`` are frozen, slotted
values whose stored hash never shows, not even in a copy or a pickle.
"""

import ast
import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

from wedgetree.ordinals import OMEGA1, ONE, add, nat
from wedgetree.trees import (
    CARD_OMEGA, Below, Card, Child, Copy, Full, Graft, HatOf, Node, Seg,
    TildeOf, Up, Word,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wedgetree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


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
    assert {p.name for p in TESTS} >= {"helpers.py", "test_hygiene.py"}


def test_no_unused_imports():
    unused = []
    for path in MODULES + TESTS:
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


def _module_level_names(tree):
    """Names assigned by the top-level statements of a module."""
    for st in tree.body:
        if isinstance(st, ast.Assign):
            targets = st.targets
        elif isinstance(st, (ast.AnnAssign, ast.AugAssign)):
            targets = [st.target]
        else:
            continue
        for t in targets:
            yield from (n.id for n in ast.walk(t) if isinstance(n, ast.Name))


def test_module_constants_are_read():
    """A top-level name is read by a name or an attribute somewhere in the
    library, unless it is a dunder or part of the public surface."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    unread = ["%s: %s" % (name, target)
              for name, tree in trees.items() for target in _module_level_names(tree)
              if target not in read and target not in PUBLIC
              and not (target.startswith("__") and target.endswith("__"))]
    assert not unread, unread
    flagged = ast.parse("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\nF += 1\n"
                        "def f():\n    G = 6\n")
    assert list(_module_level_names(flagged)) == ["A", "B", "C", "D", "E", "F"]


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


_SETTERS = ("setattr", "delattr", "__setattr__", "__delattr__")


def _attribute_writes(tree, names):
    """Lines that set or delete an attribute in ``names``, directly or through
    ``setattr``/``delattr``, except on ``self`` inside a class's ``__init__``."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    allowed.update(id(n) for n in ast.walk(fn))
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, (ast.Store, ast.Del)):
            target, name = n.value, n.attr
        elif isinstance(n, ast.Call) and len(n.args) >= 2 and \
                isinstance(n.args[1], ast.Constant) and \
                getattr(n.func, "attr", getattr(n.func, "id", None)) in _SETTERS:
            target, name = n.args[0], n.args[1].value
        else:
            continue
        is_self = isinstance(target, ast.Name) and target.id == "self"
        if name in names and not (is_self and id(n) in allowed):
            out.append(n.lineno)
    return sorted(out)


def test_shared_nodes_are_never_assigned():
    """``view`` memoizes walks, so one ``Node`` reaches many callers: only its
    own constructor (or another class's, on ``self``) sets such names."""
    names = set(Node.__slots__)
    writes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writes += ["%s:%d" % (path.name, line) for line in _attribute_writes(tree, names)]
    assert not writes, writes
    flagged = ast.parse(
        "def f(n):\n    n.inner = 1\n    setattr(n, 'tag', 2)\n    del n.ht\n"
        "class A:\n    def __init__(self, n):\n        n.parts = ()\n"
        "    def later(self):\n        self.maximal = True\n"
        "        object.__setattr__(self, 'cof', 0)\n")
    assert _attribute_writes(flagged, names) == [2, 3, 4, 7, 9, 10]
    kept = ast.parse(
        "class A:\n    def __init__(self):\n        self.inner = 1\n"
        "        object.__setattr__(self, 'tag', 2)\n        self.other = 3\n"
        "def g(n):\n    n.other = 1\n")
    assert _attribute_writes(kept, names) == []


def _view_methods():
    """View class name -> names of the methods it defines in ``trees``."""
    tree = ast.parse((SRC / "trees.py").read_text())
    return {c.name: {f.name for f in c.body if isinstance(f, ast.FunctionDef)}
            for c in tree.body
            if isinstance(c, ast.ClassDef) and c.name.endswith("View")}


def test_sites_and_heights_are_stated_once():
    """Each view states its sites per level (``sites_at_height``); the list of
    all sites is derived once, on ``_View``, and so is the height of a view
    that has no closed form for it."""
    methods = _view_methods()
    assert set(methods) == {"_View", "_SegView", "_FullView", "_GraftView",
                            "_HatView", "_TildeView"}
    assert [c for c, m in methods.items() if "unc_sites" in m] == ["_View"]
    assert {c for c, m in methods.items() if "height" in m} == {
        "_View", "_SegView", "_FullView", "_GraftView"}
    assert {c for c, m in methods.items() if "sites_at_height" in m} == \
        set(methods) - {"_View"}
    assert not any("_completion" in m for m in methods.values())


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


def test_descriptions_copy_and_pickle():
    for x, text in _values():
        hash(x)  # stores the hash that a copy must not carry
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and repr(y) == text
            assert y in {x: 1}


def _python(code, hash_seed="0"):
    """Standard output of ``code`` run by a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PICKLED_TREE = "(graft (hat (seg w1)) (((tilde (full 2 (+ w1 1))) 2) ((seg 3) w)))"
_PICKLED_ADDRESS = '(addr (up (+ w1 1)) (child 1) (word "01" 2) (copy 0 3) (below))'
_PARSE = ("from wedgetree.dsl import parse_address, parse_desc, read_sexpr\n"
          "values = (parse_desc(read_sexpr(%r)),) + parse_address(read_sexpr(%r))\n"
          % (_PICKLED_TREE, _PICKLED_ADDRESS))


def test_pickled_descriptions_are_found_under_another_hash_seed():
    dumped = _python(_PARSE + "import pickle\n"
                     "hash(values)\n"
                     "print(pickle.dumps(values).hex())\n", hash_seed="1")
    found = _python(_PARSE + "import json, pickle\n"
                    "loaded = pickle.loads(bytes.fromhex(%r))\n"
                    "table = {v: 1 for v in values}\n"
                    "print(json.dumps([v in table for v in loaded]))\n"
                    % dumped.strip(), hash_seed="2")
    assert json.loads(found) == [True] * 6


# the names ``from wedgetree import *`` gives: the re-exported API and the
# submodules it comes from
PUBLIC = sorted("""
    Below Branch CARD_OMEGA CARD_OMEGA1 CDiff Card Child ClubFamily Cofinality
    Cone ConeComplement ConeSet Copy EventuallyConstant Explicit Full Graft
    HatOf Indexed Node OMEGA OMEGA1 ONE OmegaFamily Ordinal Param Seg SeqSpec
    TildeOf Topology UnionSpec Up V3 Verdict Wedge Word ZERO add ancestor_at
    binary_obstruction build_separating_family check_point_countable check_t0
    children classify_ordinal classify_report club_accumulation
    cluster_or_limit cmp contains countably_closed_witness disjoint_closures
    fin_mul fu_extract gdelta_analysis has_omega1_chain hat height is_r1_tree
    is_chain_complete is_subbasic iso_check left_sub leq maximality_witness
    meet member nat normalize omega_power oracle_encode r_flags resolve
    roundtrip_check tilde unc_sites validate
    classify constructions errors ordinals series topology trees
""".split())


def test_package_surface():
    import wedgetree

    ns = {}
    exec("from wedgetree import *", ns)
    del ns["__builtins__"]
    assert len(PUBLIC) == 84 and sorted(ns) == PUBLIC
    # with every home module loaded the lookup hook is gone, so attribute
    # reads on the package take the interpreter's specialized path
    assert "__getattr__" not in vars(wedgetree)
    for name, value in ns.items():
        if isinstance(value, types.ModuleType):
            assert value is sys.modules["wedgetree." + name]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert getattr(wedgetree, name) is value
    assert set(PUBLIC) <= set(dir(wedgetree))
    with pytest.raises(AttributeError):
        wedgetree.no_such_name


def _loaded(code):
    return json.loads(_python(
        code + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wedgetree'))))"))


def test_imports_are_lazy():
    assert _loaded("import wedgetree") == ["wedgetree"]
    assert _loaded("import wedgetree; wedgetree.nat") == [
        "wedgetree", "wedgetree.errors", "wedgetree.ordinals"]
    heavy = {"wedgetree." + m for m in
             ("classify", "constructions", "topology", "selftest", "corpus")}
    loaded = _loaded("import wedgetree.cli")
    assert "wedgetree.cli" in loaded and not heavy & set(loaded), loaded


def test_light_cli_commands_never_load_topology():
    code = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from cliload import COMMANDS\n"
        "from wedgetree.cli import main\n"
        "out = {}\n"
        "for name, argv, want in COMMANDS:\n"
        "    if name in ('resolve', 'parse-error', 'domain-error'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            code = main(argv)\n"
        "        out[name] = [code == want, 'wedgetree.topology' in sys.modules]\n"
        "print(json.dumps(out))\n" % str(ROOT / "perfbench"))
    assert json.loads(_python(code)) == {
        name: [True, False] for name in ("resolve", "parse-error", "domain-error")}
