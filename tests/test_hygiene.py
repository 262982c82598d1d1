"""Import hygiene of the library and test modules, checked with stdlib ast.

Every name a library or test module imports is used in it, unless the import
is an explicit re-export (``import X as X``), and no library module imports an
underscore-prefixed name from another wedgetree module or reads an
underscore-prefixed attribute that it does not define itself.  Every name a
library module assigns at its top level is read somewhere in the library, so a
constant or budget that nothing reads any more does not linger.  Every
``lru_cache``/``cache`` memo and the one per-object memo of views and series
are bounded by a named size, and no code sets an attribute of the shared
``Node``s that the views memoize.  No function of ``trees``,
``constructions`` or ``classify`` reads an enum member off its class.  Each
view states its sites per level only, and the list of all sites is derived
once, on ``_View``.  ``__init__.py`` imports no library module (it maps each
public name to its home module and loads that module on first use), so it is not
checked here; instead the package surface is checked, and fresh interpreters
check that the CLI and its light commands leave the heavy modules unloaded,
and that no CLI command loads ``dataclasses`` (no library module imports it).
The description and address-step classes of ``trees`` are frozen, slotted
values whose stored hash never shows, not even in a copy or a pickle.  An
``Ordinal`` is a tuple, so no ``%`` format in the library takes a bare
variable as its operand.
"""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

from wedgetree.ordinals import OMEGA1, ONE, Ordinal, add, nat
from wedgetree.records import FrozenInstanceError, fields, replace
from wedgetree.series import Profile
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


def _names_memo(x):
    return getattr(x, "id", getattr(x, "attr", None)) == "memo"


def _memo_writers(tree):
    """Top-level functions and methods that store into, delete from or update
    a dict named ``memo``."""
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    defs += [f for c in tree.body if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)]
    for fn in defs:
        for n in ast.walk(fn):
            stored = isinstance(n, ast.Subscript) and \
                isinstance(n.ctx, (ast.Store, ast.Del)) and _names_memo(n.value)
            updated = isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and _names_memo(n.func.value) \
                and n.func.attr in ("setdefault", "update", "pop", "popitem")
            if stored or updated:
                yield fn
                break


def test_caches_are_bounded_by_a_named_size():
    unbounded = []
    writers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, dec in _cache_decorators(tree):
            if not isinstance(_maxsize(dec), (ast.Name, ast.Attribute)):
                unbounded.append("%s:%d: %s" % (path.name, dec.lineno, fn.name))
        writers += [(path.name, fn) for fn in _memo_writers(tree)]
    assert not unbounded, unbounded
    # the per-object memo of views and series is filled in one place, which
    # compares its length with a named size
    names = ["%s: %s" % (name, fn.name) for name, fn in writers]
    assert names == ["trees.py: per_object_memo"], names
    bounds = [c.comparators[0] for c in ast.walk(writers[0][1])
              if isinstance(c, ast.Compare) and isinstance(c.left, ast.Call)
              and getattr(c.left.func, "id", None) == "len"]
    assert [type(b) for b in bounds] == [ast.Name], bounds


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


def _library_writes(names):
    """``file:line`` of every library line that ``_attribute_writes`` flags."""
    writes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writes += ["%s:%d" % (path.name, line) for line in _attribute_writes(tree, names)]
    return writes


def test_shared_nodes_are_never_assigned():
    """``view`` memoizes walks, so one ``Node`` reaches many callers: only its
    own constructor (or another class's, on ``self``) sets such names."""
    names = set(Node.__slots__)
    writes = _library_writes(names)
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


def test_shared_cards_are_never_assigned():
    """``Card.fin`` hands one card of each small count to every caller: only
    a constructor sets a card's ``kind`` or ``n``."""
    assert Card.fin(2) is Card.fin(2) and Card.fin(2) == Card("fin", 2)
    names = set(Card.__slots__)
    writes = _library_writes(names)
    assert not writes, writes
    flagged = ast.parse(
        "def f(c):\n    c.n = 1\n    setattr(c, 'kind', 'w')\n    del c.n\n"
        "class A:\n    def __init__(self, c):\n        c.kind = 'fin'\n"
        "    def later(self):\n        self.n = 2\n"
        "        object.__setattr__(self, 'kind', 0)\n")
    assert _attribute_writes(flagged, names) == [2, 3, 4, 7, 9, 10]
    kept = ast.parse(
        "class A:\n    def __init__(self):\n        self.kind = 1\n"
        "        object.__setattr__(self, 'n', 2)\n        self.other = 3\n"
        "def g(c):\n    c.other = 1\n")
    assert _attribute_writes(kept, names) == []


def test_shared_profiles_are_never_assigned():
    """Each series memoizes its profiles, so one ``Profile`` reaches every
    caller that asks the same question: only a constructor sets its names."""
    writes = _library_writes(set(Profile.__slots__))
    assert not writes, writes


def test_ordinal_values_are_written_only_by_their_constructor():
    """The value memos hand one ``Ordinal`` to many callers: it is a tuple
    with no slot of its own, and no library code sets its fields."""
    assert Ordinal.__slots__ == () and issubclass(Ordinal, tuple)
    writes = _library_writes({"omega1", "terms"})
    assert not writes, writes


def _bare_format_operands(tree):
    """Lines of the ``%`` formats on a string literal whose right operand is
    a bare name, attribute or subscript."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                  and isinstance(n.left, ast.Constant) and isinstance(n.left.value, str)
                  and isinstance(n.right, (ast.Name, ast.Attribute, ast.Subscript)))


def test_format_operands_are_never_bare_variables():
    """An ``Ordinal`` is a tuple, so ``"%s" % h`` would take it for the
    argument tuple: a variable operand is wrapped in a one-tuple."""
    bare = []
    for path in MODULES + [SRC / "__init__.py"]:
        tree = ast.parse(path.read_text(), filename=str(path))
        bare += ["%s:%d" % (path.name, line) for line in _bare_format_operands(tree)]
    assert not bare, bare
    flagged = ast.parse('a = "%s" % h\nb = "%d" % h.omega1\nc = "%s" % p[1]\n'
                        'd = "%s" % (h,)\ne = "%s" % str(h)\nf = n % k\n'
                        'g = "%s-%s" % (h, k)\n')
    assert _bare_format_operands(flagged) == [1, 2, 3]


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


def _enum_member_reads(tree):
    """(line, class, member) for each read off ``Cofinality`` or ``V3`` in
    the body of a function or lambda, sorted."""
    out = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            out.update((n.lineno, n.value.id, n.attr)
                       for st in body for n in ast.walk(st)
                       if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                       and n.value.id in ("Cofinality", "V3"))
    return sorted(out)


def test_hot_modules_read_enum_members_bound_once():
    """No function body in ``trees``, ``constructions`` or ``classify``
    reads a member off ``Cofinality`` or ``V3``: each module binds the
    members it reads to globals once, as ``ordinals.cof`` does, since a
    member read off the enum class costs more than a global read."""
    reads = ["%s:%d: %s.%s" % ((name,) + r)
             for name in ("trees.py", "constructions.py", "classify.py")
             for r in _enum_member_reads(ast.parse((SRC / name).read_text()))]
    assert not reads, reads
    flagged = ast.parse("A = V3.YES\ndef f(x, y=Cofinality.ZERO):\n"
                        "    return x is Cofinality.OMEGA1 or (lambda: V3.NO)\n")
    assert _enum_member_reads(flagged) == [(3, "Cofinality", "OMEGA1"), (3, "V3", "NO")]


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
        for name in [f.name for f in fields(x)] + ["_h"]:  # the kept hash too
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, None)
        assert repr(x) == text
        assert x is not twin and x == twin and hash(x) == hash(twin)
        copy = replace(twin)
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
             ("classify", "constructions", "topology", "series", "selftest", "corpus")}
    loaded = _loaded("import wedgetree.cli")
    assert "wedgetree.cli" in loaded and not heavy & set(loaded), loaded


# the benchmark's CLI commands that run no topology: the classification
# report, the round trip, the selftest over a corpus file, resolve and both
# error paths
_LIGHT_COMMANDS = ("classify", "witness-roundtrip", "selftest-corpus",
                   "resolve", "parse-error", "domain-error")


def _cold_commands(names, watched, tmp_path):
    """For each named command of the benchmark's CLI workload, run alone in a
    fresh interpreter: whether it exited as the benchmark expects, and which
    of the ``watched`` modules it left loaded."""
    out = {}
    for name in names:
        out[name] = json.loads(_python(
            "import contextlib, io, json, os, sys\n"
            "sys.path.insert(0, %r)\n"
            "from cliload import COMMANDS, CORPUS, CORPUS_FILE\n"
            "from wedgetree.cli import main\n"
            "os.chdir(%r)\n"
            "with open(CORPUS_FILE, 'w') as f:\n"
            "    f.write(CORPUS)\n"
            "argv, want = {n: (a, w) for n, a, w in COMMANDS}[%r]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(argv)\n"
            "print(json.dumps([code == want, sorted(\n"
            "    m for m in %r if m in sys.modules)]))\n"
            % (str(ROOT / "perfbench"), str(tmp_path), name, tuple(watched))))
    return out


def test_light_cli_commands_never_load_topology(tmp_path):
    """Each light command, alone in a fresh interpreter, exits as the
    benchmark expects and loads neither ``topology`` nor ``series``."""
    out = _cold_commands(_LIGHT_COMMANDS, ("wedgetree.topology", "wedgetree.series"),
                         tmp_path)
    assert out == {name: [True, []] for name in _LIGHT_COMMANDS}


# ``dataclasses`` and the modules it imports, which nothing else in a CLI
# process loads
_DATACLASS_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_commands_never_load_dataclasses(tmp_path):
    """Every command of the benchmark's CLI workload, alone in a fresh
    interpreter, exits as the benchmark expects and loads neither
    ``dataclasses`` nor what it imports: records are ``records.record``
    classes."""
    names = json.loads(_python(
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from cliload import COMMANDS\n"
        "print(json.dumps([n for n, _, _ in COMMANDS]))\n" % str(ROOT / "perfbench")))
    assert len(names) == 8 and set(_LIGHT_COMMANDS) < set(names)
    out = _cold_commands(names, _DATACLASS_MODULES, tmp_path)
    assert out == {name: [True, []] for name in names}


def test_no_module_imports_dataclasses():
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(module or name).split(".")[0]
                    for _, name, module, level, _ in _imports(tree) if not level}
        assert "dataclasses" not in imported, path.name
