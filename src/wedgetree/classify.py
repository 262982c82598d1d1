"""Rule-engine classification of described trees.

Verdicts are three-valued: Yes and No always carry the firing rule and its
citation; Unknown lists the rules that were tried.  The properties are tied
together by the class inclusions (Corson inside Valdivia inside weakly
Valdivia, and so on), enforced by a closure pass that may never contradict a
fired rule.

The separating-family code reads the set specs and what their parts answer
(``topology.named_nodes``, ``reaches``, ``meet_height``, ``limit_at``) off
the package (``wedgetree.topology``) when it runs, so importing this module
or running ``classify_report`` loads neither ``topology`` nor ``series``.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import wedgetree

from .errors import HeightTooLarge, PreconditionFailed
from .ordinals import OMEGA1, ONE, ZERO, Cofinality, Ordinal, add
from .records import record
from .trees import (
    ORDER_CACHE_SIZE, Below, Card, Copy, Full, Graft, HatOf, Seg, TildeOf, Up,
    Word, ancestor_at, as_node, child_toward, height, leq_parts, meet,
    validate, view,
)
from .constructions import normalize, r_flags


class V3(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


# the functions below read these names: a member read off the enum class
# costs more than a module global
_YES, _NO, _UNKNOWN = V3.YES, V3.NO, V3.UNKNOWN
_ZERO_COF, _OMEGA1_COF = Cofinality.ZERO, Cofinality.OMEGA1


PROPERTIES = (
    "Corson", "Valdivia", "HereditarilyValdivia", "WeaklyCorson",
    "WeaklyValdivia", "DenseGdelta", "RTree", "R1Tree",
)

# positive class inclusions: left Yes forces right Yes (and right No forces
# left No); the closure pass applies them and ``selftest`` re-checks them
IMPLICATIONS = (
    ("Corson", "Valdivia", "LC1", "class inclusion (§1)"),
    ("Corson", "HereditarilyValdivia", "LC2", "Corson is hereditary (§1)"),
    ("Corson", "WeaklyCorson", "LC3", "identity image (§1)"),
    ("HereditarilyValdivia", "Valdivia", "LC4", "the space is closed in itself"),
    ("Valdivia", "WeaklyValdivia", "LC5", "identity image (§1)"),
    ("WeaklyCorson", "WeaklyValdivia", "LC6", "class inclusion (§1)"),
    ("WeaklyCorson", "DenseGdelta", "LC7", "Prop 5.2"),
    ("Valdivia", "RTree", "LC8", "§2 (Valdivia trees are r-trees)"),
)


@record
class PropVerdict:
    """A property's verdict.  ``witness`` is the object a rule found (an
    ``Omega1Chain`` or a ``BinaryEmbedding``), or None; ``to_json`` prints
    it, so a caller that reads no JSON pays for no printing."""
    verdict: V3 = V3.UNKNOWN
    rule: str = ""
    citation: str = ""
    witness: object = None
    tried: tuple = ()

    def to_json(self):
        out = {"verdict": self.verdict.value}
        if self.verdict is _UNKNOWN:
            out["tried"] = list(self.tried)
        else:
            out["rule"] = self.rule
            out["citation"] = self.citation
            if self.witness is not None:
                out["witness"] = self.witness.to_json()
        return out


@record
class ClassificationReport:
    desc: object
    props: dict
    notes: tuple = ()

    def verdict(self, prop):
        return self.props[prop].verdict

    def to_json(self):
        out = {p: v.to_json() for p, v in self.props.items()}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


class RuleConflict(AssertionError):
    pass


class _Engine:
    """The verdicts fired so far, ``None`` for a property still UNKNOWN:
    ``finish`` builds an UNKNOWN property's ``PropVerdict``, with the rules
    tried, once."""

    def __init__(self, desc):
        self.desc = desc
        self.props = dict.fromkeys(PROPERTIES)
        self.notes = []
        self.tried = []

    def fire(self, prop, verdict, rule, citation, witness=None):
        cur = self.props[prop]
        if cur is not None:
            if cur.verdict is not verdict:
                raise RuleConflict(
                    "%s fired %s on %s but %s already said %s"
                    % (rule, verdict, prop, cur.rule, cur.verdict))
            return
        self.props[prop] = PropVerdict(verdict, rule, citation, witness)

    def close(self):
        for prop, verdict, rule, cite in _closure(tuple(
                _UNKNOWN if v is None else v.verdict for v in self.props.values())):
            self.props[prop] = PropVerdict(verdict, rule, cite)

    def finish(self):
        for p, v in self.props.items():
            if v is None:
                self.props[p] = PropVerdict(tried=tuple(self.tried))
        return ClassificationReport(self.desc, self.props, tuple(self.notes))


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def _closure(verdicts):
    """What the closure pass derives from the verdicts of ``PROPERTIES``, in
    order, before it: ``(property, verdict, rule, citation)`` for each
    derivation, in the order the pass makes them.  The pass applies
    ``IMPLICATIONS`` in order until nothing changes, and a Yes above a No
    raises ``RuleConflict``.  The answer depends on the verdicts alone, so
    it is kept for each of their at most 3**8 patterns; a pattern that
    raises is not kept and raises again on every call."""
    cur = dict(zip(PROPERTIES, verdicts))
    out = []
    changed = True
    while changed:
        changed = False
        for a, b, rule, cite in IMPLICATIONS:
            if cur[a] is _YES and cur[b] is _UNKNOWN:
                cur[b] = _YES
                out.append((b, _YES, rule, cite))
                changed = True
            if cur[b] is _NO and cur[a] is _UNKNOWN:
                cur[a] = _NO
                out.append((a, _NO, rule + "*", cite + " (contrapositive)"))
                changed = True
            if cur[a] is _YES and cur[b] is _NO:
                raise RuleConflict("closure violated between %s and %s" % (a, b))
    return tuple(out)


# -- structural analyses ---------------------------------------------------------

def tall_address(d):
    """Address of a node at the top level (following the tallest graft slot)."""
    if isinstance(d, Seg):
        return (Up(d.eta),) if not d.eta.is_zero else ()
    if isinstance(d, Full):
        top = view(d).top
        return (Word((0,), top),) if not top.is_zero else ()
    if isinstance(d, Graft):
        if not d.children:
            return tall_address(d.base)
        best, best_h = 0, None
        for slot, (child, _) in enumerate(d.children):
            h = height(child)
            if best_h is None or h > best_h:
                best, best_h = slot, h
        return tall_address(d.base) + (Copy(best, 0),) + tall_address(d.children[best][0])
    if isinstance(d, (HatOf, TildeOf)):
        return tall_address(d.inner)
    raise TypeError(d)


def has_omega1_chain(d):
    """(flag, witness address of a node at height w1, or None).  The top
    address is asked once, so it is walked afresh (``find``) and kept
    nowhere."""
    if height(d) < add(OMEGA1, ONE):
        return False, None
    top = view(d).find(tall_address(d))
    node = ancestor_at(d, top, OMEGA1)
    return True, node.address()


@record(frozen=True)
class Omega1Chain:
    """The witness of rule R1: the address of a node at height w1, so the
    chain below it and the node form a closed copy of [0, w1]."""
    address: tuple

    def to_json(self):
        from .dsl import print_address
        return {"omega1_chain": print_address(self.address)}


@record(frozen=True)
class BinaryEmbedding:
    """A closed copy of the full binary tree of height w1+1: the {0,1}-paths
    of one full region, from its root through its w1-th level.  ``top`` is
    the exact address of the copy's leftmost node at level w1, which sits
    ``offset + w1`` high (see ``_binary_region`` for its ``Below()`` steps)."""
    prefix: tuple     # address of the region root
    offset: Ordinal   # height of the region root in d
    top: tuple        # address of the leftmost node at the region's level w1

    def to_json(self):
        from .dsl import print_address
        return {"kind": "binary-embedding", "root": print_address(self.prefix),
                "offset": str(self.offset), "top": print_address(self.top)}


def binary_obstruction(d):
    """A closed embedded full binary tree of height w1+1, when one exists."""
    found = _binary_region(d, ())
    if found is None:
        return None
    prefix, hats = found
    top = prefix + (Word((0,), OMEGA1),) + (Below(),) * hats
    # the region root is asked once: walked afresh, kept nowhere
    return BinaryEmbedding(prefix, view(d).find(prefix).ht, top)


def _binary_region(d, prefix):
    """(address of a full region's root, number of hats crossed above it),
    for a full region of height above w1, or None.

    The root is d's root or a grafted copy's root: a successor height with
    no split point below it, so ``prefix`` names it in d.  Each ``HatOf``
    crossed lifts the image of every cofinality-w1 node one level and puts
    a split point at its old height, so under k hats the region's level-w1
    node lies k ``Below()`` steps under the node its address names.  Nodes
    below level w1 keep their height over the root and their branching.  A
    ``tilde(hat(x))`` pair removes the split points of its hat: it counts
    for none and leaves x's addresses."""
    if isinstance(d, Seg):
        return None
    if isinstance(d, Full):
        if d.k != 1 and view(d).top >= OMEGA1:
            return (prefix, 0)
        return None
    if isinstance(d, Graft):
        found = _binary_region(d.base, prefix)
        if found:
            return found
        if not d.children:
            return None
        # the copies hang on a top the base keeps (``base_top``)
        btop = view(d).base_top()
        for slot, (child, _) in enumerate(d.children):
            sub = _binary_region(
                child, prefix + btop.address() + (Copy(slot, 0),))
            if sub:
                return sub
        return None
    if isinstance(d, HatOf):
        # the region survives; its split points close the branches off
        found = _binary_region(d.inner, prefix)
        return None if found is None else (found[0], found[1] + 1)
    if isinstance(d, TildeOf) and isinstance(d.inner, HatOf):
        # tilde(hat(x)) is x, with x's addresses
        return _binary_region(d.inner.inner, prefix)
    # a validated tilde over anything else has no surviving full w1-region
    # (its level-w1 nodes would violate chain completeness)
    return None


# -- G-delta analysis --------------------------------------------------------------

def gdelta_class(node):
    """"isolated" / "gdelta" / "not-gdelta" for a resolved node.

    A point is a countable intersection of opens exactly when a countable
    local base exists: cofinality at most omega and countably many immediate
    successors."""
    if node.cof is _ZERO_COF and node.ims.is_finite:
        return "isolated"
    if node.cof is not _OMEGA1_COF and node.ims.le_omega:
        return "gdelta"
    return "not-gdelta"


@record(frozen=True)
class GdeltaReport:
    point: object          # class of the queried point, when one was given


def gdelta_analysis(d, x=None):
    """The G-delta class of ``x`` (when given).  The G-delta points are
    dense on every valid described tree (rule R8), so the report carries no
    density flag:

    *  Every nonempty open set of the coarse wedge topology contains a point
       u of cofinality 0: the top of the set's cone part, or else the root.
    *  If u has countably many immediate successors, u is G-delta.
    *  Otherwise all but finitely many child cones of u lie inside the open
       set; children sit at successor heights, so they have cofinality 0 too.
    *  Only one kind of node has w1 immediate successors: a maximal node of a
       graft base with a multiplicity-w1 slot.  Seg and Full give at most w,
       hat and tilde keep ``ims``, and split points have 1.
    *  A chain crosses the top level of each ``Graft`` subterm at most once,
       so climbing first children reaches a G-delta point in at most as many
       steps as ``d`` has ``Graft`` subterms.
    """
    point = None
    if x is not None:
        point = gdelta_class(as_node(d, x))
    return GdeltaReport(point)


# -- separating family (heights up to w1+1) -------------------------------------------

@record
class FamilyU:
    """The cone family with singleton patches witnessing Valdivia-ness of a
    closed subset: cones V_r with r in I(T) outside all marker cones, plus one
    singleton per point of the discrete leftover part."""
    d: object
    S: object
    markers: dict          # s.parts -> (s, t(s))
    singletons: tuple      # the S1 points

    def cone_allowed(self, r):
        if r.cof is not _ZERO_COF:
            return False
        return all(not leq_parts(ts.parts, r.parts)
                   for _, ts in self.markers.values())

    def separator_for(self, x, y):
        """A family member containing exactly one of x, y; None if the family
        fails (it must not, for valid inputs)."""
        d = self.d
        if x.parts == y.parts:
            return None
        for s, _ in self.markers.values():
            if s.parts == x.parts or s.parts == y.parts:
                return ("singleton", s)
        if leq_parts(x.parts, y.parts):
            r = child_toward(d, x, y)
        elif leq_parts(y.parts, x.parts):
            r = child_toward(d, y, x)
        else:
            m = meet(d, x, y)
            r = child_toward(d, m, y)
        if not self.cone_allowed(r):
            return None
        return ("cone", r)

    def verify(self):
        """Re-derive the family from its markers and the parts of S:

        *  The singletons and the marker keys are both S1
           (``_leftover_points``).
        *  Each marker t(s) is an I-point of countable height below s.
        *  No part of S's countable-height points (``_countable_parts``)
           reaches V_t(s) (``topology.reaches``).
        *  No singleton other than s lies above t(s).

        These give T0 on every pair and point-countability on a dense set.
        The tree has height at most w1+1, so a point of S in V_t(s) has
        height w1 and is a candidate for S1; V_t(s) is an open neighbourhood
        of it that misses every part's countable-height points, so it is in
        S1, and it is s.  A pair with a singleton is split by it.  Any other
        pair x, y is split by the child r of x, or of their meet, toward y:
        r has a successor height, so r is in I(T), and V_r lies in no marker
        cone, since it holds y, which is no singleton.  A point of countable
        height lies in the cones at its countably many predecessors; a
        singleton s lies in its own singleton and in the cones strictly below
        t(s)."""
        d, reaches = self.d, wedgetree.topology.reaches
        parts = _countable_parts(d, self.S)
        s1 = {s.parts for s in _leftover_points(d, self.S, parts)}
        if s1 != {s.parts for s in self.singletons} or s1 != set(self.markers):
            return False
        for key, (s, ts) in self.markers.items():
            if (key != s.parts or not ts.in_I or not ts.ht.is_countable
                    or not leq_parts(ts.parts, s.parts)
                    or any(reaches(d, part, ts) for part in parts)
                    or any(o.parts != key and leq_parts(ts.parts, o.parts)
                           for o in self.singletons)):
                return False
        return True

    def to_json(self):
        from .dsl import print_address
        return {
            "kind": "separating-family",
            "singletons": [print_address(s.address()) for s in self.singletons],
            "markers": [[print_address(s.address()), print_address(t.address())]
                        for s, t in self.markers.values()],
            "verified": self.verify(),
        }


def _countable_parts(d, S):
    """The parts of S cut down to the points of countable height, whose
    closure the separating family reads: an explicit set keeps its points of
    countable height, and a cone set based at an uncountable height, all of
    whose points lie that high, is dropped.  Branches and families stay
    whole: the answers read from them are the same either way."""
    topology = wedgetree.topology
    out = []
    for part in topology.spec_parts(S):
        if isinstance(part, topology.Explicit):
            part = topology.Explicit(tuple(
                p for p, n in zip(part.points, topology.named_nodes(d, part))
                if n.ht.is_countable))
        elif isinstance(part, topology.ConeSet) and \
                not topology.named_nodes(d, part)[0].ht.is_countable:
            continue
        out.append(part)
    return out


def _leftover_points(d, S, countable):
    """S1: the points of S of uncountable cofinality, which its parts name
    (finitely many in the closed-set description language), at which no part
    of ``countable`` is a limit (``topology.limit_at``)."""
    topology = wedgetree.topology
    out = {}
    for part in topology.spec_parts(S):
        for n in topology.named_nodes(d, part):
            if n.cof is _OMEGA1_COF:
                out[n.parts] = n
    return [s for s in out.values()
            if not any(topology.limit_at(d, part, s) for part in countable)]


def build_separating_family(d, S):
    """The cones-plus-singletons family for a closed subset of a tree of
    height at most w1+1."""
    topology = wedgetree.topology
    validate(d)
    if height(d) > add(OMEGA1, ONE):
        raise HeightTooLarge("separating families need height at most w1+1")
    parts = _countable_parts(d, S)
    s1 = _leftover_points(d, S, parts)
    # discreteness of the leftover part comes with the construction; the
    # markers below certify it point by point
    markers = {}
    for s in s1:
        # the marker sits past every height at which the countable part, or
        # another leftover point, meets s's chain
        beta = ZERO
        for h in [topology.meet_height(d, part, s) for part in parts] + \
                [meet(d, s, other).ht for other in s1 if other.parts != s.parts]:
            if h > beta:
                beta = h
        ts = ancestor_at(d, s, add(beta, ONE))
        if not ts.in_I:
            raise PreconditionFailed("marker is not at a successor height")
        if any(topology.reaches(d, part, ts) for part in parts):
            raise PreconditionFailed(
                "marker cone still meets the closure of the countable part")
        markers[s.parts] = (s, ts)
    fam = FamilyU(d, S, markers, tuple(s1))
    for s, ts in markers.values():
        for other in s1:
            if other.parts != s.parts and leq_parts(ts.parts, other.parts):
                raise PreconditionFailed("the leftover part is not discrete")
    return fam


def check_t0(d, S, family, pairs):
    """Every pair of distinct points of S is split by some family member.
    ``S`` is not read: the caller must draw ``pairs`` from S, because a pair
    with a point outside S is judged as if that point were in S.  An
    ordered pair of parts is asked once: a repeat was already split."""
    split = set()
    for a, b in pairs:
        x, y = as_node(d, a), as_node(d, b)
        key = (x.parts, y.parts)
        if x.parts == y.parts or key in split:
            continue
        split.add(key)
        sep = family.separator_for(x, y)
        if sep is None:
            return False
        kind, r = sep
        if kind == "singleton":
            if (r.parts == x.parts) == (r.parts == y.parts):
                return False
        else:
            if leq_parts(r.parts, x.parts) == leq_parts(r.parts, y.parts):
                return False
    return True


def check_point_countable(d, family, points):
    """Each point lies in countably many family members: in the cones at its
    predecessors, or, for a marked point, at its marker's predecessors (see
    ``FamilyU.verify``), so that height must be countable.  Each point is
    checked once, however often it is listed."""
    checked = set()
    for p in points:
        x = as_node(d, p)
        if x.parts in checked:
            continue
        checked.add(x.parts)
        marked = family.markers.get(x.parts)
        bound = x.ht if marked is None else marked[1].ht
        if not bound.is_countable:
            return False
    return True


# -- the report ---------------------------------------------------------------------

def classify_report(d):
    validate(d)
    eng = _Engine(d)

    chain, chain_witness = has_omega1_chain(d)
    eng.tried.append("R1")
    if chain:
        eng.fire("Corson", _NO, "R1",
                 "§1 ([0,w1] is not Corson; closed subspaces persist)",
                 witness=Omega1Chain(chain_witness))
    else:
        eng.fire("Corson", _YES, "R1",
                 "Prop 5.2 proof citing [N2, Thm 2.8] (no w1-chains)")

    eng.tried.append("R2")
    if height(d) <= add(OMEGA1, ONE):
        eng.fire("Valdivia", _YES, "R2", "Prop 2.4")
        eng.fire("HereditarilyValdivia", _YES, "R2", "Prop 2.4")

    is_r, is_r1 = r_flags(d)
    eng.fire("RTree", _YES if is_r else _NO, "RF", "§2 (r-tree check)")
    eng.fire("R1Tree", _YES if is_r1 else _NO, "RF", "§2 (r1-tree check)")
    eng.tried.append("R3")
    if not is_r:
        eng.fire("Valdivia", _NO, "R3",
                 "§2 / Remark after Thm 4.2 (Valdivia trees are r-trees)")

    eng.tried.append("R4")
    obstruction = binary_obstruction(d)
    if obstruction is not None:
        eng.fire("WeaklyCorson", _NO, "R4",
                 "Example 4.5 with Prop 5.2 (closed subspaces persist)",
                 witness=obstruction)

    eng.tried.append("R5")
    norm = normalize(d)
    if isinstance(norm, Seg):
        eng.fire("WeaklyCorson", _YES, "R5",
                 "Remark after Thm 4.2 (ordinal segments below w2)")
        eng.fire("Valdivia", _YES, "R5",
                 "Remark after Thm 4.2 (ordinal segments below w2)")

    eng.tried.append("R6")
    if height(d) <= OMEGA1:
        eng.fire("WeaklyCorson", _YES, "R6",
                 "Thm 4.2 (iii)=>(i): the hat construction acts trivially")

    eng.tried.append("R7")
    if _is_remark_shape(norm):
        eng.fire("WeaklyCorson", _YES, "R7", "Remark after Thm 4.2")

    eng.tried.append("R8")
    # derived for every valid description (see ``gdelta_analysis``)
    eng.fire("DenseGdelta", _YES, "R8",
             "§5 (successor-height points are isolated) / Prop 5.2")

    eng.close()

    hv = eng.props["HereditarilyValdivia"]
    if hv is not None and hv.verdict is _YES:
        eng.notes.append(
            "hereditarily weakly Valdivia (Example 4.5: hereditarily Valdivia"
            " implies hereditarily weakly Valdivia)")
    return eng.finish()


def _is_remark_shape(norm):
    """A chain of length w1+1 carrying countably many countable-height
    children on top (the weakly-Corson-but-not-Valdivia shape)."""
    if not isinstance(norm, Graft):
        return False
    if normalize(norm.base) != Seg(OMEGA1):
        return False
    total = Card.fin(0)
    for child, mult in norm.children:
        if not height(child).is_countable:
            return False
        total = total.plus(mult)
    return total.le_omega
