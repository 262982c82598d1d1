"""Per-layer tracing of wedgetree from outside the library.

Every function named in ``LAYERS`` is wrapped at each ``wedgetree`` module
binding that holds it (the modules use ``from .trees import resolve``, so one
function can have several bindings).  A ``Class.method`` entry patches the
class attribute.  Wrapped calls record spans (name, start, end, parent) in
memory; ordinal arithmetic is called millions of times, so its calls are
only counted and timed.  A span's self time is its duration minus its child
spans and the ordinal calls made directly inside it.

This module imports nothing from wedgetree at load time, so the traced CLI
child can import it before ``-X importtime`` sees the library.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

_ORDINAL_NAMES = (
    "Ordinal.__init__", "add", "cmp", "nat", "omega_power", "fin_mul",
    "times_nat", "left_sub", "classify_ordinal", "pred", "drop_leading_unit",
    "limit_of_affine", "fundamental",
)
_TREES_NAMES = (
    "view", "validate", "structure_ok", "is_chain_complete", "height",
    "resolve", "parts_to_steps", "node_at", "leq", "meet", "leq_parts",
    "meet_parts", "ancestor_at", "children", "child_toward",
    "cofinal_I_nodes", "unc_sites", "sites_at_height", "hat_shift",
    "hat_unshift", "tilde_shift", "tilde_unshift",
)
_SERIES_NAMES = (
    "SymbolicSeries.__init__", "SymbolicSeries.at", "SymbolicSeries.le_profile",
    "SymbolicSeries.eq_profile", "SymbolicSeries.meet_profile_with",
    "SymbolicSeries.params_upto",
)
_DECIDER_NAMES = (
    "member", "is_subbasic", "contains", "is_countable_spec",
    "cluster_or_limit", "sample_members",
)
_CONSTRUCTION_NAMES = (
    "hat", "tilde", "normalize", "is_r1_tree", "iso_check", "roundtrip_check",
)
_CLASSIFY_NAMES = (
    "classify_report", "r_flags", "tall_address", "has_omega1_chain",
    "binary_obstruction", "gdelta_analysis", "gdelta_intersection_oracle",
    "check_t0", "check_point_countable",
)
_DSL_NAMES = (
    "read_sexpr", "parse_ordinal", "print_ordinal", "parse_card", "print_card",
    "parse_desc", "print_desc", "parse_address", "print_address", "parse_set",
    "print_set", "parse_seq", "print_seq", "parse_open",
)

# The one table of traced functions: (layer, module, name).
LAYERS = (
    [("ordinals", "wedgetree.ordinals", n) for n in _ORDINAL_NAMES]
    + [("trees", "wedgetree.trees", n) for n in _TREES_NAMES]
    + [("series", "wedgetree.topology", n) for n in _SERIES_NAMES]
    + [("deciders", "wedgetree.topology", n) for n in _DECIDER_NAMES]
    + [
        ("witness.countably-closed", "wedgetree.topology", "countably_closed_witness"),
        ("witness.club", "wedgetree.topology", "club_accumulation"),
        ("witness.fu-extract", "wedgetree.topology", "fu_extract"),
        ("witness.maximality", "wedgetree.topology", "maximality_witness"),
        ("witness.separating-family", "wedgetree.classify", "build_separating_family"),
        ("witness.disjoint-closures", "wedgetree.constructions", "disjoint_closures"),
    ]
    + [("constructions", "wedgetree.constructions", n) for n in _CONSTRUCTION_NAMES]
    + [("classify", "wedgetree.classify", n) for n in _CLASSIFY_NAMES]
    + [("dsl", "wedgetree.dsl", n) for n in _DSL_NAMES]
)

SPAN_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS if layer != "ordinals"))

# per-layer metrics a traced run reports, and the table entries each needs
ORDINAL_COUNTS = {"ordinals.new_calls": "Ordinal.__init__",
                  "ordinals.add_calls": "add", "ordinals.cmp_calls": "cmp"}
SERIES_BUILD = "SymbolicSeries.__init__"


def _lookup(module, name):
    """(owner, attribute, object) for a table entry, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not isinstance(owner, type) and path:
        return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if obj is None or not callable(obj):
        return None
    return owner, attr, obj


def _key(args, kwargs):
    try:
        key = (args, tuple(sorted(kwargs.items())))
        hash(key)
        return key
    except TypeError:
        return repr((args, sorted(kwargs.items())))


class Tracer:
    """Installs the wrappers, holds the spans and counts, and removes the
    wrappers again.  One per process; not thread safe (nothing here runs
    threads)."""

    def __init__(self):
        from wedgetree.errors import UndecidableTailPattern
        self._undecidable_type = UndecidableTailPattern
        self.names = []          # entry index -> (layer, name)
        self.missing = []        # "module:name" of entries not found
        self.calls = []          # entry index -> call count
        self.raised_undecidable = []
        self.series_keys = set()
        self.span_name = array("l")      # per span: entry index
        self.span_parent = array("l")    # per span: parent span index or -1
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_ordinal = array("d")   # ordinal time directly inside the span
        self.ordinal_s = 0.0
        self.originals = {}      # table name -> original object
        self._stack = []
        self._depth = 0
        self._restore = []
        self._view_before = (0, 0)

    # -- wrappers -----------------------------------------------------------

    def _count_wrapper(self, fn, idx):
        calls = self.calls
        stack = self._stack
        span_ordinal = self.span_ordinal
        clock = time.perf_counter

        def counted(*args, **kwargs):
            calls[idx] += 1
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._depth = 0
                self.ordinal_s += dt
                if stack:
                    span_ordinal[stack[-1]] += dt
        return counted

    def _span_wrapper(self, fn, idx, keep_keys):
        calls, stack = self.calls, self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, ordinal = self.span_start, self.span_end, self.span_ordinal
        raised = self.raised_undecidable
        undecidable = self._undecidable_type
        keys = self.series_keys
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            calls[idx] += 1
            if keep_keys:
                keys.add(_key(args[1:], kwargs))
            span = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ordinal.append(0.0)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except undecidable:
                raised[idx] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
        return spanned

    # -- install / remove ---------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wedgetree" or n.startswith("wedgetree."))]
        for layer, module, name in LAYERS:
            found = _lookup(module, name)
            if found is None:
                self.missing.append("%s:%s" % (module, name))
                continue
            owner, attr, orig = found
            idx = len(self.names)
            self.names.append((layer, name))
            self.calls.append(0)
            self.raised_undecidable.append(0)
            self.originals[name] = orig
            if layer == "ordinals":
                wrapper = self._count_wrapper(orig, idx)
            else:
                wrapper = self._span_wrapper(orig, idx, name == SERIES_BUILD)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, orig))
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, binding, wrapper)
                        self._restore.append((mod, binding, orig))
        view = self._view()
        if view is not None:
            info = view.cache_info()
            self._view_before = (info.hits, info.misses)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def _self_times(self):
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        per_entry = [0.0] * len(self.names)
        names, ordinal = self.span_name, self.span_ordinal
        for i in range(n):
            per_entry[names[i]] += ends[i] - starts[i] - child[i] - ordinal[i]
        return per_entry

    def raw(self):
        """Additive per-layer sums: counts and seconds.  Sums of these over
        several processes are still meaningful."""
        self_s = self._self_times()
        out = {}
        if any(layer == "ordinals" for layer, _ in self.names):
            out["ordinals.self_s"] = self.ordinal_s
        for metric, name in ORDINAL_COUNTS.items():
            out[metric] = self._entry_calls(name)
        for layer in SPAN_LAYERS:
            idx = [i for i, (l, _) in enumerate(self.names) if l == layer]
            if not idx:
                continue
            out[layer + ".calls"] = sum(self.calls[i] for i in idx)
            out[layer + ".self_s"] = sum(self_s[i] for i in idx)
            out[layer + ".undecidable"] = sum(self.raised_undecidable[i] for i in idx)
        builds = self._entry_calls(SERIES_BUILD)
        if builds is not None:
            out["series.builds"] = builds
            out["series.distinct_keys"] = len(self.series_keys)
        view = self._view()
        if view is not None:
            info = view.cache_info()
            out["trees.view_hits"] = info.hits - self._view_before[0]
            out["trees.view_misses"] = info.misses - self._view_before[1]
            out["trees.view_entries"] = info.currsize
        return {k: v for k, v in out.items() if v is not None}

    def _view(self):
        view = self.originals.get("view")
        return view if hasattr(view, "cache_info") else None

    def _entry_calls(self, name):
        for i, (_, n) in enumerate(self.names):
            if n == name:
                return self.calls[i]
        return None
