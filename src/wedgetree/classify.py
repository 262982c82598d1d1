"""Rule-engine classification of described trees.

Verdicts are three-valued: Yes and No always carry the firing rule and its
citation; Unknown lists the rules that were tried.  The properties are tied
together by the class inclusions (Corson inside Valdivia inside weakly
Valdivia, and so on), enforced by a closure pass that may never contradict a
fired rule.

The separating-family code reads the set specs and deciders of ``topology``
off the package (``wedgetree.topology``) when it runs, so importing this
module or running ``classify_report`` loads neither ``topology`` nor
``series``.
"""

from __future__ import annotations

import enum

import wedgetree

from .errors import HeightTooLarge, PreconditionFailed
from .ordinals import OMEGA1, ONE, ZERO, Cofinality, Ordinal, add, cmp
from .records import record
from .trees import (
    Below, Card, Copy, Full, Graft, HatOf, Seg, TildeOf, Up, Word,
    ancestor_at, as_node, child_toward, height, leq, leq_parts, meet,
    resolve, validate, view,
)
from .constructions import normalize, r_flags


class V3(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


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
    verdict: V3 = V3.UNKNOWN
    rule: str = ""
    citation: str = ""
    witness: object = None
    tried: tuple = ()

    # a report builds about 18 verdicts, so this is written out: on Python
    # 3.11 the closures of ``record`` take about 2 us a call, this 0.2 us
    def __init__(self, verdict=V3.UNKNOWN, rule="", citation="", witness=None,
                 tried=()):
        self.verdict = verdict
        self.rule = rule
        self.citation = citation
        self.witness = witness
        self.tried = tried

    def to_json(self):
        out = {"verdict": self.verdict.value}
        if self.verdict is V3.UNKNOWN:
            out["tried"] = list(self.tried)
        else:
            out["rule"] = self.rule
            out["citation"] = self.citation
            if self.witness is not None:
                out["witness"] = self.witness
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
    def __init__(self, desc):
        self.desc = desc
        self.props = {p: PropVerdict() for p in PROPERTIES}
        self.notes = []
        self.tried = []

    def fire(self, prop, verdict, rule, citation, witness=None):
        cur = self.props[prop]
        if cur.verdict is not V3.UNKNOWN:
            if cur.verdict is not verdict:
                raise RuleConflict(
                    "%s fired %s on %s but %s already said %s"
                    % (rule, verdict, prop, cur.rule, cur.verdict))
            return
        self.props[prop] = PropVerdict(verdict, rule, citation, witness)

    def close(self):
        changed = True
        while changed:
            changed = False
            for a, b, rule, cite in IMPLICATIONS:
                if self.props[a].verdict is V3.YES and \
                        self.props[b].verdict is V3.UNKNOWN:
                    self.props[b] = PropVerdict(V3.YES, rule, cite)
                    changed = True
                if self.props[b].verdict is V3.NO and \
                        self.props[a].verdict is V3.UNKNOWN:
                    self.props[a] = PropVerdict(
                        V3.NO, rule + "*", cite + " (contrapositive)")
                    changed = True
                if self.props[a].verdict is V3.YES and \
                        self.props[b].verdict is V3.NO:
                    raise RuleConflict("closure violated between %s and %s" % (a, b))

    def finish(self):
        for p, v in self.props.items():
            if v.verdict is V3.UNKNOWN:
                self.props[p] = PropVerdict(tried=tuple(self.tried))
        return ClassificationReport(self.desc, self.props, tuple(self.notes))


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
            if best_h is None or cmp(h, best_h) > 0:
                best, best_h = slot, h
        return tall_address(d.base) + (Copy(best, 0),) + tall_address(d.children[best][0])
    if isinstance(d, (HatOf, TildeOf)):
        return tall_address(d.inner)
    raise TypeError(d)


def has_omega1_chain(d):
    """(flag, witness address of a node at height w1, or None)."""
    if cmp(height(d), add(OMEGA1, ONE)) < 0:
        return False, None
    top = resolve(d, tall_address(d))
    node = ancestor_at(d, top, OMEGA1)
    return True, node.address()


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
    return BinaryEmbedding(prefix, resolve(d, prefix).ht, top)


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
        if d.k != 1 and cmp(view(d).top, OMEGA1) >= 0:
            return (prefix, 0)
        return None
    if isinstance(d, Graft):
        found = _binary_region(d.base, prefix)
        if found:
            return found
        btop = view(d.base).leftmost_top()
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
    if node.cof is Cofinality.ZERO and node.ims.is_finite:
        return "isolated"
    if node.cof is not Cofinality.OMEGA1 and node.ims.le_omega:
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
        if r.cof is not Cofinality.ZERO:
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
        *  No part meets V_t(s) in a point of countable height, and no
           family member lies in V_t(s) (``_cone_meets_D_closure``).
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
        d, parts = self.d, wedgetree.topology.spec_parts(self.S)
        s1 = {s.parts for s in _leftover_points(d, parts)}
        if s1 != {s.parts for s in self.singletons} or s1 != set(self.markers):
            return False
        for key, (s, ts) in self.markers.items():
            if (key != s.parts or not ts.in_I or not ts.ht.is_countable
                    or not leq_parts(ts.parts, s.parts)
                    or any(_cone_meets_D_closure(d, part, ts) for part in parts)
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


def _closure_of_D_part_contains(d, part, s):
    """Does s lie in the closure of {ht < w1} intersected with this part?"""
    topology = wedgetree.topology
    if isinstance(part, topology.Branch):
        # every point of the branch is a limit of its countable predecessors
        return leq_parts(s.parts, resolve(d, part.top).parts)
    if isinstance(part, topology.ConeSet):
        t = resolve(d, part.t)
        if not t.ht.is_countable:
            return False  # V_t carries no points of D at all
        return leq_parts(t.parts, s.parts)
    if isinstance(part, topology.Explicit):
        return any(resolve(d, p).parts == s.parts and s.ht.is_countable
                   for p in part.points)
    if isinstance(part, (topology.OmegaFamily, topology.ClubFamily)):
        series = topology.series_of(d, part)
        if series.eq_profile(s).ever and s.ht.is_countable:
            return True
        kind, sup = series.meet_profile_with(s)
        return kind == "increasing" and cmp(sup, s.ht) == 0
    raise TypeError(part)


def _leftover_points(d, parts):
    """S1: the points of S at uncountable-cofinality heights (finitely many in
    the closed-set description language) outside the closure of every part's
    countable-height points."""
    topology = wedgetree.topology
    out = {}
    for part in parts:
        if isinstance(part, topology.Explicit):
            for p in part.points:
                n = resolve(d, p)
                if n.cof is Cofinality.OMEGA1:
                    out[n.parts] = n
        elif isinstance(part, topology.Branch):
            top = resolve(d, part.top)
            if top.cof is Cofinality.OMEGA1:
                out[top.parts] = top
        elif isinstance(part, topology.ConeSet):
            t = resolve(d, part.t)
            if t.cof is Cofinality.OMEGA1:
                out[t.parts] = t
    return [s for s in out.values()
            if not any(_closure_of_D_part_contains(d, part, s) for part in parts)]


def build_separating_family(d, S):
    """The cones-plus-singletons family for a closed subset of a tree of
    height at most w1+1."""
    validate(d)
    if cmp(height(d), add(OMEGA1, ONE)) > 0:
        raise HeightTooLarge("separating families need height at most w1+1")
    parts = wedgetree.topology.spec_parts(S)
    s1 = _leftover_points(d, parts)
    # discreteness of the leftover part comes with the construction; the
    # markers below certify it point by point
    markers = {}
    for s in s1:
        beta = ZERO
        for part in parts:
            h = _marker_bound(d, part, s)
            if h is not None and cmp(h, beta) > 0:
                beta = h
        for other in s1:
            if other.parts != s.parts:
                h = meet(d, s, other).ht
                if cmp(h, beta) > 0:
                    beta = h
        ts = ancestor_at(d, s, add(beta, ONE))
        if not ts.in_I:
            raise PreconditionFailed("marker is not at a successor height")
        for part in parts:
            if _cone_meets_D_closure(d, part, ts):
                raise PreconditionFailed(
                    "marker cone still meets the closure of the countable part")
        markers[s.parts] = (s, ts)
    fam = FamilyU(d, S, markers, tuple(s1))
    for s, ts in markers.values():
        for other in s1:
            if other.parts != s.parts and leq_parts(ts.parts, other.parts):
                raise PreconditionFailed("the leftover part is not discrete")
    return fam


def _marker_bound(d, part, s):
    """Height below which this part's contribution to the closure of the
    countable-height slice stays away from s's chain."""
    topology = wedgetree.topology
    if isinstance(part, topology.Branch):
        top = resolve(d, part.top)
        return meet(d, s, top).ht
    if isinstance(part, topology.ConeSet):
        t = resolve(d, part.t)
        if not t.ht.is_countable:
            return None  # the cone carries no countable-height points
        return meet(d, s, t).ht
    if isinstance(part, topology.Explicit):
        best = None
        for p in part.points:
            n = resolve(d, p)
            if n.parts == s.parts or not n.ht.is_countable:
                continue
            h = meet(d, s, n).ht
            if best is None or cmp(h, best) > 0:
                best = h
        return best
    if isinstance(part, (topology.OmegaFamily, topology.ClubFamily)):
        series = topology.series_of(d, part)
        kind, sup = series.meet_profile_with(s)
        return sup
    raise TypeError(part)


def _cone_meets_D_closure(d, part, ts):
    topology = wedgetree.topology
    if isinstance(part, topology.Branch):
        return leq(d, ts, resolve(d, part.top))
    if isinstance(part, topology.ConeSet):
        t = resolve(d, part.t)
        if not t.ht.is_countable:
            return False
        return leq_parts(t.parts, ts.parts) or leq_parts(ts.parts, t.parts)
    if isinstance(part, topology.Explicit):
        return any(leq(d, ts, resolve(d, p)) and resolve(d, p).ht.is_countable
                   for p in part.points)
    if isinstance(part, (topology.OmegaFamily, topology.ClubFamily)):
        return topology.series_of(d, part).le_profile(ts).ever
    raise TypeError(part)


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
        eng.fire("Corson", V3.NO, "R1",
                 "§1 ([0,w1] is not Corson; closed subspaces persist)",
                 witness={"omega1_chain": _addr_json(chain_witness)})
    else:
        eng.fire("Corson", V3.YES, "R1",
                 "Prop 5.2 proof citing [N2, Thm 2.8] (no w1-chains)")

    eng.tried.append("R2")
    if cmp(height(d), add(OMEGA1, ONE)) <= 0:
        eng.fire("Valdivia", V3.YES, "R2", "Prop 2.4")
        eng.fire("HereditarilyValdivia", V3.YES, "R2", "Prop 2.4")

    is_r, is_r1 = r_flags(d)
    eng.fire("RTree", V3.YES if is_r else V3.NO, "RF", "§2 (r-tree check)")
    eng.fire("R1Tree", V3.YES if is_r1 else V3.NO, "RF", "§2 (r1-tree check)")
    eng.tried.append("R3")
    if not is_r:
        eng.fire("Valdivia", V3.NO, "R3",
                 "§2 / Remark after Thm 4.2 (Valdivia trees are r-trees)")

    eng.tried.append("R4")
    obstruction = binary_obstruction(d)
    if obstruction is not None:
        eng.fire("WeaklyCorson", V3.NO, "R4",
                 "Example 4.5 with Prop 5.2 (closed subspaces persist)",
                 witness=obstruction.to_json())

    eng.tried.append("R5")
    norm = normalize(d)
    if isinstance(norm, Seg):
        eng.fire("WeaklyCorson", V3.YES, "R5",
                 "Remark after Thm 4.2 (ordinal segments below w2)")
        eng.fire("Valdivia", V3.YES, "R5",
                 "Remark after Thm 4.2 (ordinal segments below w2)")

    eng.tried.append("R6")
    if cmp(height(d), OMEGA1) <= 0:
        eng.fire("WeaklyCorson", V3.YES, "R6",
                 "Thm 4.2 (iii)=>(i): the hat construction acts trivially")

    eng.tried.append("R7")
    if _is_remark_shape(norm):
        eng.fire("WeaklyCorson", V3.YES, "R7", "Remark after Thm 4.2")

    eng.tried.append("R8")
    # derived for every valid description (see ``gdelta_analysis``)
    eng.fire("DenseGdelta", V3.YES, "R8",
             "§5 (successor-height points are isolated) / Prop 5.2")

    eng.close()

    if eng.props["HereditarilyValdivia"].verdict is V3.YES:
        eng.notes.append(
            "hereditarily weakly Valdivia (Example 4.5: hereditarily Valdivia"
            " implies hereditarily weakly Valdivia)")
    return eng.finish()


def _addr_json(addr):
    from .dsl import print_address
    return print_address(addr)


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
