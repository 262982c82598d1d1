"""Symbolic chain-complete trees, wedge topologies, and their classification.

Every public name is loaded from its home module on first use (PEP 562), so
``import wedgetree`` imports none of the submodules and a command-line call
loads only what its command runs.  After the first lookup the value sits in
this module's globals.  Once every home module is loaded, all names are bound
and the module ``__getattr__`` removes itself: CPython does not specialize
attribute reads on a module that defines one, so with the hook in place each
``wedgetree.X`` read takes the slower generic path.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

# public submodule -> the public names it provides here
_EXPORTS = {
    "ordinals": (
        "OMEGA", "OMEGA1", "ONE", "ZERO", "Cofinality", "Ordinal", "add",
        "classify_ordinal", "cmp", "fin_mul", "left_sub", "nat",
        "omega_power", "oracle_encode",
    ),
    "trees": (
        "Below", "CARD_OMEGA", "CARD_OMEGA1", "Card", "Child", "Copy", "Full",
        "Graft", "HatOf", "Node", "Param", "Seg", "TildeOf", "Up", "Word",
        "ancestor_at", "children", "height", "is_chain_complete", "leq",
        "meet", "resolve", "unc_sites", "validate",
    ),
    "series": (),
    "topology": (
        "Branch", "CDiff", "ClubFamily", "Cone", "ConeComplement", "ConeSet",
        "Explicit", "EventuallyConstant", "Indexed", "OmegaFamily", "SeqSpec",
        "Topology", "UnionSpec", "Verdict", "Wedge", "club_accumulation",
        "cluster_or_limit", "contains", "countably_closed_witness",
        "fu_extract", "is_subbasic", "maximality_witness", "member",
    ),
    "constructions": (
        "disjoint_closures", "hat", "is_r1_tree", "iso_check", "normalize",
        "r_flags", "roundtrip_check", "tilde",
    ),
    "classify": (
        "V3", "binary_obstruction", "build_separating_family",
        "check_point_countable", "check_t0", "classify_report",
        "gdelta_analysis", "has_omega1_chain",
    ),
    "errors": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    g = globals()
    g[name] = getattr(_import_module("." + _HOME[name], __name__), name)
    if all(__name__ + "." + m in _sys.modules for m in _EXPORTS):
        for other, home in _HOME.items():
            g[other] = getattr(_sys.modules[__name__ + "." + home], other)
        g.pop("__getattr__", None)
    return g[name]


def __dir__():
    return sorted({*globals(), *__all__})
