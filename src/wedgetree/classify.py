"""Rule-engine classification of described trees.

Verdicts are three-valued: Yes and No always carry the firing rule and its
citation; Unknown lists the rules that were tried.  The properties are tied
together by the class inclusions (Corson inside Valdivia inside weakly
Valdivia, and so on), enforced by a closure pass that may never contradict a
fired rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations

from .errors import HeightTooLarge, PreconditionFailed
from .ordinals import OMEGA, OMEGA1, ONE, ZERO, Cofinality, Ordinal, add, cmp, nat
from .trees import (
    Card, Child, Copy, Full, Graft, HatOf, Seg, TildeOf, Up, Word,
    ancestor_at, as_node, child_toward, children, height, leq, leq_parts,
    meet_parts, node_at, resolve, validate, view,
)
from .topology import (
    Branch, ClubFamily, ConeSet, Explicit, OmegaFamily, sample_members,
    series_of, spec_parts,
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


@dataclass
class PropVerdict:
    verdict: V3 = V3.UNKNOWN
    rule: str = ""
    citation: str = ""
    witness: object = None
    tried: tuple = ()

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


@dataclass
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


@dataclass(frozen=True)
class BinaryEmbedding:
    """A closed copy of the full binary tree of height w1+1: the {0,1}-paths
    of one full region, from its root through its w1-th level."""
    prefix: tuple     # address of the region root
    offset: Ordinal   # height of the region root

    def embed(self, steps):
        return self.prefix + tuple(steps)

    def to_json(self):
        from .dsl import print_address
        return {"kind": "binary-embedding", "root": print_address(self.prefix),
                "offset": str(self.offset)}


def binary_obstruction(d):
    """A closed embedded full binary tree of height w1+1, when one exists."""
    spec_ = _binary_region(d, (), ZERO)
    if spec_ is None:
        return None
    emb = BinaryEmbedding(*spec_)
    _verify_binary_embedding(d, emb)
    return emb


def _binary_region(d, prefix, offset):
    if isinstance(d, Seg):
        return None
    if isinstance(d, Full):
        if d.k != 1 and cmp(view(d).top, OMEGA1) >= 0:
            return (prefix, offset)
        return None
    if isinstance(d, Graft):
        found = _binary_region(d.base, prefix, offset)
        if found:
            return found
        bview = view(d.base)
        btop = bview.leftmost_top()
        start = add(offset, bview.height())
        for slot, (child, _) in enumerate(d.children):
            sub = _binary_region(
                child, prefix + btop.address() + (Copy(slot, 0),), start)
            if sub:
                return sub
        return None
    if isinstance(d, HatOf):
        # the region survives: levels below w1 keep full branching and the
        # split points close the branches off
        return _binary_region(d.inner, prefix, offset)
    if isinstance(d, TildeOf) and isinstance(d.inner, HatOf):
        # tilde(hat(x)) is x, with x's addresses
        return _binary_region(d.inner.inner, prefix, offset)
    # a validated tilde over anything else has no surviving full w1-region
    # (its level-w1 nodes would violate chain completeness)
    return None


def _verify_binary_embedding(d, emb):
    from .trees import Below
    probes = [(), (Child(0),), (Child(1),), (Child(1), Child(0)),
              (Word((0,), OMEGA), Child(1)), (Word((1,), nat(3)), Child(0)),
              (Word((0,), OMEGA1),)]
    base = resolve(d, emb.embed(())).ht  # wrappers may shift the region root
    for steps in probes:
        addr = emb.embed(steps)
        node = resolve(d, addr)
        rel = sum_steps_height(steps)
        want = add(base, rel)
        guard = 0
        while cmp(node.ht, want) > 0 and guard < 8:
            # inside hat wrappers the copy closes off at split points sitting
            # under the pushed-up original; descend to the innermost one
            addr = addr + (Below(),)
            node = resolve(d, addr)
            guard += 1
        if cmp(node.ht, want) != 0:
            raise PreconditionFailed("embedding height mismatch at %r" % (steps,))
        if cmp(rel, OMEGA1) < 0 and node.ims.is_finite and node.ims.n < 2:
            raise PreconditionFailed("embedding lost its branching")


def sum_steps_height(steps):
    from .ordinals import fin_mul
    total = ZERO
    for s in steps:
        if isinstance(s, Child):
            total = add(total, ONE)
        elif isinstance(s, Word):
            total = add(total, fin_mul(len(s.letters), s.count))
    return total


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


@dataclass(frozen=True)
class GdeltaReport:
    point: object          # class of the queried point, when one was given
    dense: bool


def gdelta_analysis(d, x=None):
    """The G-delta class of ``x`` (when given), and density of the G-delta
    points, which holds on every valid described tree (rule R8):

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
    return GdeltaReport(point, dense=True)


def gdelta_intersection_oracle(d, x, sample_bases):
    """Brute-force side of the not-G-delta verdicts: given countably many
    basic neighbourhoods of x (sampled), produce a point other than x inside
    all of them."""
    x = as_node(d, x)
    if x.cof is Cofinality.OMEGA1:
        best = ZERO
        for u, _ in sample_bases:
            if cmp(u.ht, best) > 0:
                best = u.ht
        y = ancestor_at(d, x, add(best, ONE))
        return y
    if not x.ims.le_omega:
        taken = set()
        for _, F in sample_bases:
            for f in F:
                if f.parts and f.parts[-1][0] == "copy":
                    taken.add(f.parts[-1][2])
        idx = 0
        while idx in taken:
            idx += 1
        kids = children(d, x, idx + 1)
        return kids[idx]
    raise PreconditionFailed("the point has a countable local base")


# -- separating family (heights up to w1+1) -------------------------------------------

# the heights at which members_containing samples the cones above a point
_MEMBER_HEIGHTS = (ZERO, ONE, nat(2), OMEGA)


@dataclass
class FamilyU:
    """The cone family with singleton patches witnessing Valdivia-ness of a
    closed subset: cones V_r with r in I(T) outside all marker cones, plus one
    singleton per point of the discrete leftover part."""
    d: object
    S: object
    markers: dict          # s.parts -> (s, t(s))
    singletons: tuple      # the S1 points
    # x.parts -> the members containing x, filled by members_containing
    _members: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

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
            m = node_at(d, meet_parts(x.parts, y.parts))
            r = child_toward(d, m, y)
        if not r.in_I:
            r = _descend_to_I(d, r, y if leq_parts(r.parts, y.parts) else x)
        if r is None or not self.cone_allowed(r):
            return None
        return ("cone", r)

    def members_containing(self, x):
        """Sampled family members containing x, as ("cone", r) descriptors.

        Kept per point for the life of the family; each call returns a new
        list."""
        members = self._members.get(x.parts)
        if members is None:
            out = []
            if x.parts in self.markers:
                out.append(("singleton", x))
            for h in _MEMBER_HEIGHTS:
                if cmp(h, x.ht) <= 0:
                    r = ancestor_at(self.d, x, h)
                    if self.cone_allowed(r):
                        out.append(("cone", r))
            members = self._members[x.parts] = tuple(out)
        return list(members)

    def verify(self):
        """Re-check the family on its own deterministic sample of S: every
        pair of sampled points is split (``check_t0``), and every sampled
        point of countable height and every singleton lies in countably many
        members (``check_point_countable``)."""
        d = self.d
        pts = list({x.parts: x for x in sample_members(d, self.S, 8)}.values())
        points = [x for x in pts if x.ht.is_countable] + list(self.singletons)
        return (check_t0(d, self.S, self, combinations(pts, 2))
                and check_point_countable(d, self, points))

    def to_json(self):
        from .dsl import print_address
        return {
            "kind": "separating-family",
            "singletons": [print_address(s.address()) for s in self.singletons],
            "markers": [[print_address(s.address()), print_address(t.address())]
                        for s, t in self.markers.values()],
            "verified": self.verify(),
        }


def _descend_to_I(d, r, target):
    """First successor-height node on the chain from r toward target."""
    h = add(r.ht, ONE)
    if cmp(h, target.ht) <= 0:
        return ancestor_at(d, target, h)
    return None


def _closure_of_D_part_contains(d, part, s):
    """Does s lie in the closure of {ht < w1} intersected with this part?"""
    if isinstance(part, Branch):
        # every point of the branch is a limit of its countable predecessors
        return leq_parts(s.parts, resolve(d, part.top).parts)
    if isinstance(part, ConeSet):
        t = resolve(d, part.t)
        if not t.ht.is_countable:
            return False  # V_t carries no points of D at all
        return leq_parts(t.parts, s.parts)
    if isinstance(part, Explicit):
        return any(resolve(d, p).parts == s.parts and s.ht.is_countable
                   for p in part.points)
    if isinstance(part, (OmegaFamily, ClubFamily)):
        series = series_of(d, part)
        if series.eq_profile(s).ever and s.ht.is_countable:
            return True
        kind, sup = series.meet_profile_with(s)
        return kind == "increasing" and cmp(sup, s.ht) == 0
    raise TypeError(part)


def _candidate_S1_points(d, S):
    """Points of S at uncountable-cofinality heights (finitely many in the
    closed-set description language)."""
    out = {}
    for part in spec_parts(S):
        if isinstance(part, Explicit):
            for p in part.points:
                n = resolve(d, p)
                if n.cof is Cofinality.OMEGA1:
                    out[n.parts] = n
        elif isinstance(part, Branch):
            top = resolve(d, part.top)
            if top.cof is Cofinality.OMEGA1:
                out[top.parts] = top
        elif isinstance(part, ConeSet):
            t = resolve(d, part.t)
            if t.cof is Cofinality.OMEGA1:
                out[t.parts] = t
    return list(out.values())


def build_separating_family(d, S):
    """The cones-plus-singletons family for a closed subset of a tree of
    height at most w1+1."""
    validate(d)
    if cmp(height(d), add(OMEGA1, ONE)) > 0:
        raise HeightTooLarge("separating families need height at most w1+1")
    parts = spec_parts(S)
    candidates = _candidate_S1_points(d, S)
    s1 = []
    for s in candidates:
        if not any(_closure_of_D_part_contains(d, part, s) for part in parts):
            s1.append(s)
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
                h = node_at(d, meet_parts(s.parts, other.parts)).ht
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
    if isinstance(part, Branch):
        top = resolve(d, part.top)
        return node_at(d, meet_parts(s.parts, top.parts)).ht
    if isinstance(part, ConeSet):
        t = resolve(d, part.t)
        if not t.ht.is_countable:
            return None  # the cone carries no countable-height points
        return node_at(d, meet_parts(s.parts, t.parts)).ht
    if isinstance(part, Explicit):
        best = None
        for p in part.points:
            n = resolve(d, p)
            if n.parts == s.parts or not n.ht.is_countable:
                continue
            h = node_at(d, meet_parts(s.parts, n.parts)).ht
            if best is None or cmp(h, best) > 0:
                best = h
        return best
    if isinstance(part, (OmegaFamily, ClubFamily)):
        series = series_of(d, part)
        kind, sup = series.meet_profile_with(s)
        return sup
    raise TypeError(part)


def _cone_meets_D_closure(d, part, ts):
    if isinstance(part, Branch):
        return leq(d, ts, resolve(d, part.top))
    if isinstance(part, ConeSet):
        t = resolve(d, part.t)
        if not t.ht.is_countable:
            return False
        return leq_parts(t.parts, ts.parts) or leq_parts(ts.parts, t.parts)
    if isinstance(part, Explicit):
        return any(leq(d, ts, resolve(d, p)) and resolve(d, p).ht.is_countable
                   for p in part.points)
    if isinstance(part, (OmegaFamily, ClubFamily)):
        return series_of(d, part).le_profile(ts).ever
    raise TypeError(part)


def check_t0(d, S, family, pairs):
    """Every pair of distinct points of S is split by some family member."""
    for a, b in pairs:
        x, y = as_node(d, a), as_node(d, b)
        if x.parts == y.parts:
            continue
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
    """Each point lies in countably many family members, certified by a
    countable predecessor-height index."""
    for p in points:
        x = as_node(d, p)
        marked = family.markers.get(x.parts)
        if marked is not None:
            bound = marked[1].ht
        else:
            bound = x.ht
        if not bound.is_countable:
            return False
        for kind, r in family.members_containing(x):
            if kind == "cone" and not leq_parts(r.parts, x.parts):
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
