"""Coarse and countably coarse wedge topologies over described trees.

Two topologies share the cone subbase {V_t, T \\ V_t}: the coarse wedge
topology takes it at finite-cofinality points, the countably coarse wedge
topology at all points of cofinality != omega.  This module holds the basic
opens, the set and sequence specs, the deciders (membership, convergence
verdicts), what a part of a set answers (``named_nodes``, ``reaches``,
``meet_height``, ``limit_at``: one ladder over the part kinds each, which
the witnesses, the separating family and the disjoint closures read) and
the four witness constructions.  They run symbolically over
set/sequence templates with one linear parameter: the template slot
``Param`` lives in ``wedgetree.trees`` next to the address steps, and the
series fitted from the templates in ``wedgetree.series``.

Deciders are sound and conservative: they raise UndecidableTailPattern when a
tail falls outside the decidable fragment, and never return a wrong verdict.
Choice functions pick least indices and least parameters so witnesses are
reproducible.  A least parameter (``series.Profile.first``) and the child
cones of a point that a family enters (``SymbolicSeries.children_profile``)
are read off the family's profiles and slot, so no budget decides a verdict.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .errors import (
    ChoiceUnavailable, IllegalWedge, NotAccumulating, NotInClosure,
    PreconditionFailed, SupNotRepresentable, UndecidableTailPattern,
)
from .ordinals import (
    OMEGA, ONE, ZERO, Cofinality, Ordinal, add, left_sub,
    limit_of_affine, pred,
)
from .records import record
from .series import SymbolicSeries as SymbolicSeries
from .series import SERIES_CACHE_SIZE, cached_series, fit_template, instantiate
from .trees import Param as Param
from .trees import (
    Node, ancestor_at, as_node, child_toward, children, cofinal_I_nodes, leq,
    leq_parts, meet, resolve, validate,
)


# -- head lengths ----------------------------------------------------------------
# Every finite head a construction lists, in one place; none decides a verdict.
_FU_PICKS = 8           # fu_extract: members in the head of the extracted sequence
_CLUB_STEPS = 8         # club_accumulation: steps, enough to see an affine pattern of meets
_MAXIMALITY_HEAD = 8    # maximality_witness: cofinal I-points in the head a template fits


class Topology(enum.Enum):
    CW = "cw"
    SIGMA_CW = "sigma-cw"


class Verdict(enum.Enum):
    CONVERGES = "converges"
    CLUSTERS_ONLY = "clusters-only"
    NEITHER = "neither"


# -- basic opens ---------------------------------------------------------------

@record(frozen=True)
class Cone:
    t: tuple


@record(frozen=True)
class Wedge:
    t: tuple
    excluded: tuple = ()


@record(frozen=True)
class ConeComplement:
    t: tuple


@record(frozen=True)
class CDiff:
    """V_t minus finitely many cones above t (not necessarily immediate)."""
    t: tuple
    excluded: tuple = ()


def _check_wedge_legal(d, base, excluded):
    """Exclusions must be immediate successors of a single node >= base."""
    if not excluded:
        return
    nodes = [as_node(d, f) for f in excluded]
    h = nodes[0].ht
    if any(n.ht != h for n in nodes):
        raise IllegalWedge("exclusions sit at different levels")
    if len({n.parts for n in nodes}) != len(nodes):
        raise IllegalWedge("repeated exclusion")
    if h.kind() != "successor":
        raise IllegalWedge("immediate successors live at successor heights")
    parent = ancestor_at(d, nodes[0], pred(h))
    for n in nodes[1:]:
        if ancestor_at(d, n, pred(h)).parts != parent.parts:
            raise IllegalWedge("exclusions have different parents")
    if not leq_parts(as_node(d, base).parts, parent.parts):
        raise IllegalWedge("exclusions do not sit above the wedge base")


def member(d, x, U):
    """Is x in the basic open U?"""
    x = as_node(d, x)
    if isinstance(U, Cone):
        return leq(d, as_node(d, U.t), x)
    if isinstance(U, ConeComplement):
        return not leq(d, as_node(d, U.t), x)
    if isinstance(U, (Wedge, CDiff)):
        base = as_node(d, U.t)
        if isinstance(U, Wedge):
            _check_wedge_legal(d, base, U.excluded)
        if not leq(d, base, x):
            return False
        return all(not leq(d, as_node(d, f), x) for f in U.excluded)
    raise TypeError("not a basic open: %r" % (U,))


def is_subbasic(d, t, topology):
    """May V_t (and its complement) be taken as subbasic in this topology?"""
    t = as_node(d, t)
    if topology is Topology.CW:
        return t.cof is Cofinality.ZERO
    return t.cof is not Cofinality.OMEGA


# -- set and sequence specs -------------------------------------------------------

@record(frozen=True)
class Explicit:
    points: tuple


@record(frozen=True)
class OmegaFamily:
    """{ template(n) : n < omega }."""
    template: tuple


@record(frozen=True)
class ClubFamily:
    """{ template(alpha) : alpha < ht(anchor) }, ordinal-parameterized."""
    anchor: tuple
    template: tuple


@record(frozen=True)
class Branch:
    """All predecessors of top, top included (a branch closure)."""
    top: tuple


@record(frozen=True)
class ConeSet:
    """V_t as a point set."""
    t: tuple


@record(frozen=True)
class UnionSpec:
    parts: tuple


@record(frozen=True)
class Indexed:
    template: tuple


@record(frozen=True)
class EventuallyConstant:
    point: tuple


@record(frozen=True)
class SeqSpec:
    head: tuple = ()
    tail: object = None

    def term_steps(self, n):
        if n < len(self.head):
            return self.head[n]
        if isinstance(self.tail, Indexed):
            return instantiate(self.tail.template, n)
        if isinstance(self.tail, EventuallyConstant):
            return self.tail.point
        raise ValueError("sequence has no tail template")

    def term(self, d, n):
        return resolve(d, self.term_steps(n))


# -- the members of set specs ------------------------------------------------------

def series_of(d, spec):
    """The SymbolicSeries of an omega- or club-indexed family spec."""
    if isinstance(spec, OmegaFamily):
        return cached_series(d, spec.template)
    if isinstance(spec, ClubFamily):
        return cached_series(d, spec.template, True, resolve(d, spec.anchor).ht)
    raise TypeError(spec)


def spec_parts(spec):
    if isinstance(spec, UnionSpec):
        out = []
        for p in spec.parts:
            out.extend(spec_parts(p))
        return out
    return [spec]


def contains(d, spec, x):
    """Decidable membership of a resolved node in a set spec."""
    x = as_node(d, x)
    for part in spec_parts(spec):
        if isinstance(part, Explicit):
            if any(resolve(d, p).parts == x.parts for p in part.points):
                return True
        elif isinstance(part, Branch):
            if leq(d, x, as_node(d, part.top)):
                return True
        elif isinstance(part, ConeSet):
            if leq(d, as_node(d, part.t), x):
                return True
        elif isinstance(part, (OmegaFamily, ClubFamily)):
            if series_of(d, part).eq_profile(x).ever:
                return True
        else:
            raise TypeError(part)
    return False


# -- what a part of a set spec answers ----------------------------------------------
# A family answers from its series' profiles, the other kinds from the nodes
# they name.

@lru_cache(maxsize=SERIES_CACHE_SIZE)
def named_nodes(d, part):
    """The nodes a part names: an explicit set's points, a branch's top or a
    cone set's base.  A family names none.  Kept per tree and part, like the
    series: one round of the witness cases asks 84 distinct parts."""
    if isinstance(part, Explicit):
        return tuple(resolve(d, p) for p in part.points)
    if isinstance(part, Branch):
        return (as_node(d, part.top),)
    if isinstance(part, ConeSet):
        return (as_node(d, part.t),)
    if isinstance(part, (OmegaFamily, ClubFamily)):
        return ()
    raise TypeError(part)


def reaches(d, part, p):
    """Does some member of the part lie in V_p, for a node p?"""
    if isinstance(part, (OmegaFamily, ClubFamily)):
        return series_of(d, part).le_profile(p).ever
    if isinstance(part, ConeSet):
        c, = named_nodes(d, part)
        return leq_parts(c.parts, p.parts) or leq_parts(p.parts, c.parts)
    # a branch is closed downwards, so it reaches V_p exactly when its top does
    return any(leq_parts(p.parts, n.parts) for n in named_nodes(d, part))


def meet_height(d, part, t):
    """The greatest height at which a member of the part meets the node t
    (ZERO for an empty part); for a family, the supremum of its meet profile
    with t.  It is t's height when some member lies in V_t."""
    if isinstance(part, (OmegaFamily, ClubFamily)):
        return series_of(d, part).meet_profile_with(t)[1]
    if isinstance(part, ConeSet) and reaches(d, part, t):
        return t.ht  # t itself, or the base above it, is a member
    best = ZERO
    for n in named_nodes(d, part):  # a branch meets t highest at its top
        h = meet(d, n, t).ht
        if h > best:
            best = h
    return best


def limit_at(d, part, s):
    """Is the node s of cofinality w1 and a limit of members of the part
    strictly below it?  For a family: its members meet s cofinally."""
    if s.cof is not Cofinality.OMEGA1:
        return False
    if isinstance(part, (OmegaFamily, ClubFamily)):
        kind, sup = series_of(d, part).meet_profile_with(s)
        return kind == "increasing" and sup == s.ht
    if isinstance(part, Branch):
        top, = named_nodes(d, part)
        return leq_parts(s.parts, top.parts)
    if isinstance(part, ConeSet):
        c, = named_nodes(d, part)
        return leq_parts(c.parts, s.parts) and c.parts != s.parts
    if isinstance(part, Explicit):
        return False  # finitely many points
    raise TypeError(part)


def is_countable_spec(d, spec):
    for part in spec_parts(spec):
        if isinstance(part, ClubFamily):
            if resolve(d, part.anchor).ht.cof() is Cofinality.OMEGA1:
                return False
        elif isinstance(part, Branch):
            if as_node(d, part.top).ht.cof() is Cofinality.OMEGA1 or \
                    not as_node(d, part.top).ht.is_countable:
                return False
        elif isinstance(part, ConeSet):
            return False  # cones are not presented as countable lists
    return True


def sample_members(d, spec, k):
    out = []
    for part in spec_parts(spec):
        if isinstance(part, Explicit):
            out.extend(resolve(d, p) for p in part.points)
        elif isinstance(part, (OmegaFamily, ClubFamily)):
            series = series_of(d, part)
            for p in series.params_upto(k):
                out.append(series.at(p))
        elif isinstance(part, Branch):
            top = as_node(d, part.top)
            out.append(top)
            hts = [ZERO, ONE]
            if OMEGA < top.ht:
                hts.append(OMEGA)
            for h in hts:
                if h <= top.ht:
                    out.append(ancestor_at(d, top, h))
        elif isinstance(part, ConeSet):
            base = as_node(d, part.t)
            out.append(base)
            out.extend(children(d, base, 2))
    return out


# -- convergence ---------------------------------------------------------------------

def _local_base_uses_own_cone(x, topology):
    if topology is Topology.SIGMA_CW:
        return x.cof is not Cofinality.OMEGA
    return x.cof is Cofinality.ZERO


def cluster_or_limit(d, seq, x, topology):
    """Does the sequence converge to / cluster at x?

    Decided against the local base at x: wedges based at x itself where the
    topology allows, wedges based at I(T)-points below x otherwise.
    """
    x = as_node(d, x)
    if isinstance(seq.tail, EventuallyConstant):
        c = resolve(d, seq.tail.point)
        return Verdict.CONVERGES if c.parts == x.parts else Verdict.NEITHER
    if not isinstance(seq.tail, Indexed):
        raise TypeError("sequence needs a tail")
    series = cached_series(d, seq.tail.template)
    lex = series.le_profile(x)
    eqx = series.eq_profile(x)
    # a wedge at x may exclude the child cones the sequence enters unless it
    # eventually stays in one of them
    excl_ok = not any(prof.eventually for _, prof in series.children_profile(x)[0])

    own_cone = _local_base_uses_own_cone(x, topology)
    if own_cone:
        b1_conv = lex.eventually or eqx.eventually
        b1_clust = lex.eventually
    elif lex.eventually:
        b1_conv = b1_clust = True
    else:
        # wedge bases below x: cf(x) = omega, or uncountable in the coarse
        # wedge topology
        kind, sup = series.meet_profile_with(x)
        reach = kind == "increasing" and sup == x.ht
        b1_conv = b1_clust = reach

    if b1_conv and excl_ok:
        return Verdict.CONVERGES
    if b1_clust and excl_ok:
        return Verdict.CLUSTERS_ONLY
    return Verdict.NEITHER


# -- witness constructions -------------------------------------------------------------

@record(frozen=True)
class CountablyClosedWitness:
    p: Node
    sup_of_meets: Ordinal
    verified: bool

    def to_json(self):
        from .dsl import print_address
        return {"kind": "countably-closed", "p": print_address(self.p.address()),
                "sup_of_meets": str(self.sup_of_meets), "verified": self.verified}


def countably_closed_witness(d, t, S):
    """A point p in I(T) with p <= t and V_p disjoint from the countable set S,
    certifying that the closure of S misses V_t."""
    validate(d)
    t = as_node(d, t)
    if t.cof is not Cofinality.OMEGA1:
        raise PreconditionFailed("witness requires cf(t) uncountable, got %s" % (t.cof,))
    if not is_countable_spec(d, S):
        raise PreconditionFailed("S must be countable")
    parts = spec_parts(S)
    sup = ZERO
    for part in parts:
        # a member in V_t meets t at t's height, so only then can one lie there
        h = meet_height(d, part, t)
        if h >= t.ht and reaches(d, part, t):
            raise PreconditionFailed("an element of S lies in the cone of t")
        if h > sup:
            sup = h
    if sup >= t.ht:
        raise SupNotRepresentable("meets are cofinal in t; no separating point exists")
    p = ancestor_at(d, t, add(sup, ONE))
    verified = not any(reaches(d, part, p) for part in parts) and p.in_I and leq(d, p, t)
    return CountablyClosedWitness(p, sup, verified)


@record(frozen=True)
class ClubWitness:
    pairs: tuple            # concrete (r_j, s_j) prefix
    r: Node                 # sup of the r_j
    r_heights: tuple
    seq: SeqSpec            # the (s_j) as a sequence spec
    verdict: Verdict
    verified: bool

    def to_json(self):
        from .dsl import print_address
        return {
            "kind": "club",
            "pairs": [[print_address(r.address()), print_address(s.address())]
                      for r, s in self.pairs],
            "r": print_address(self.r.address()),
            "cluster_verdict": self.verdict.value,
            "verified": self.verified,
        }


def _least_member_above(d, S, lower, avoid_cone):
    """Least-parameter member of S in V_lower avoiding V_avoid_cone, or None.
    A family's least parameter is read off its profiles: the least p with
    lower <= s_p and not avoid_cone <= s_p."""
    best = None
    for part in spec_parts(S):
        if isinstance(part, (OmegaFamily, ClubFamily)):
            series = series_of(d, part)
            p = series.le_profile(lower).first(series.le_profile(avoid_cone))
            if p is not None and best is None:
                best = series.at(p)
        elif not isinstance(part, ConeSet):  # explicit points or a branch's top
            for n in named_nodes(d, part):
                if leq(d, lower, n) and not leq(d, avoid_cone, n) and best is None:
                    best = n
    return best


def club_accumulation(d, t, S):
    """The closed-unbounded accumulation construction below an
    uncountable-cofinality point t: alternately pick s_j in S above r_j + 1
    and set r_{j+1} to the meet of s_j with t; r is the supremum."""
    validate(d)
    t = as_node(d, t)
    if t.cof is not Cofinality.OMEGA1:
        raise PreconditionFailed("club accumulation requires cf(t) uncountable")
    r = resolve(d, ())  # r_0 = root
    pairs = []
    for _ in range(_CLUB_STEPS):
        toward = child_toward(d, r, t)
        s = _least_member_above(d, S, toward, t)
        if s is None:
            raise NotAccumulating(
                "no member of S above %r outside the cone of t" % (toward,))
        pairs.append((r, s))
        r_next = meet(d, s, t)
        if r_next.ht <= r.ht and pairs[:-1]:
            raise UndecidableTailPattern("meets stopped increasing")
        r = r_next
    hts = [p[0].ht for p in pairs[1:]] + [r.ht]
    deltas = {str(left_sub(a, b)) for a, b in zip(hts, hts[1:])}
    if len(deltas) != 1:
        raise UndecidableTailPattern("accumulation pattern is not affine")
    delta = left_sub(hts[-2], hts[-1])
    r_sup_ht = limit_of_affine(hts[0], delta)
    if r_sup_ht >= t.ht:
        raise SupNotRepresentable("r_j are cofinal in t itself")
    r_sup = ancestor_at(d, t, r_sup_ht)
    seq = SeqSpec(head=tuple(s.address() for _, s in pairs), tail=None)
    verdict = _cluster_of_concrete_tail(d, [s for _, s in pairs], r_sup)
    verified = all(a.ht < b.ht for (a, _), (b, _) in zip(pairs, pairs[1:]))
    verified = verified and r_sup.ht < t.ht and verdict is not Verdict.NEITHER
    for (rj, sj), (rk, _) in zip(pairs, pairs[1:]):
        verified = verified and meet(d, sj, t).parts == rk.parts
    return ClubWitness(tuple(pairs), r_sup, tuple(hts), seq, verdict, verified)


def _cluster_of_concrete_tail(d, nodes, x):
    """Cluster verdict for a finite prefix extended by its affine pattern."""
    tpl = fit_template(nodes)
    if tpl is None:
        raise UndecidableTailPattern("the picked members fit no template")
    return cluster_or_limit(d, SeqSpec(tail=Indexed(tpl)), x, Topology.CW)


# -- Frechet-Urysohn extraction ----------------------------------------------------------

def fu_extract(d, A, t):
    """A sequence from A converging to t in the countably coarse wedge
    topology, built by the three-case analysis on cf(t) and on how many
    immediate-successor cones of t meet A, read off each family's slot
    (``SymbolicSeries.children_profile``).  When cf(t) = omega and finitely
    many do, the sequence takes, above each of _FU_PICKS cofinal I-points
    below t, the family's least member outside them and other than t, and
    raises UndecidableTailPattern when those members fit no template."""
    validate(d)
    t = as_node(d, t)
    if contains(d, A, t):
        raise PreconditionFailed("t itself belongs to A")

    meeting, distinct = _meeting_children(d, A, t)
    if distinct:
        return _pick_in_child_cones(d, distinct, t)
    if t.cof is not Cofinality.OMEGA:
        if not meeting:
            raise NotInClosure("no immediate-successor cone of t meets A")
        # finitely many meeting cones and a strong local base at t: the wedge
        # excluding them misses A entirely
        raise NotInClosure(
            "only finitely many cones below t's wedge meet A; t is not in the closure")
    base_nodes = cofinal_I_nodes(d, t, _FU_PICKS)
    head = []
    for part in spec_parts(A):
        if isinstance(part, (OmegaFamily, ClubFamily)):
            series = series_of(d, part)
            avoid = [series.le_profile(f) for f in meeting] + [series.eq_profile(t)]
            ps = [series.le_profile(u).first(*avoid) for u in base_nodes]
            if all(p is not None for p in ps):
                nodes = [series.at(p) for p in ps]
                tpl = fit_template(nodes)
                head = [n.address() for n in nodes]
                break
    if not head:
        raise ChoiceUnavailable(
            "A's description cannot exhibit members in the required wedges")
    if tpl is None:
        raise UndecidableTailPattern("the picked members fit no template",
                                     witness=SeqSpec(head=tuple(head)))
    seq = SeqSpec(head=tuple(head), tail=Indexed(tpl))
    if cluster_or_limit(d, SeqSpec(tail=Indexed(tpl)), t,
                        Topology.SIGMA_CW) is not Verdict.CONVERGES:
        raise NotInClosure("extracted sequence does not converge to t", witness=seq)
    return seq


def _meeting_children(d, A, t):
    """(the children of t whose cones meet A, (family, p0) for each family of
    A entering one per member, read off its ``children_profile``)."""
    meeting = {}
    distinct = []
    for part in spec_parts(A):
        if isinstance(part, (OmegaFamily, ClubFamily)):
            kids, p0 = series_of(d, part).children_profile(t)
            meeting.update((f.parts, f) for f, _ in kids)
            if p0 is not None:
                distinct.append((part, p0))
        # a cone set enters the child cone toward its base: a base at or
        # below t would have put t in A
        for n in named_nodes(d, part):
            if leq_parts(t.parts, n.parts) and n.parts != t.parts:
                f = child_toward(d, t, n)
                meeting[f.parts] = f
    return list(meeting.values()), distinct


def _pick_in_child_cones(d, distinct, t):
    """Case: infinitely many immediate-successor cones of t meet A.  A family
    whose members enter pairwise distinct cones gives the head, its first
    _FU_PICKS members, and the tail, the template of as many from p0 on."""
    for part, p0 in distinct:
        series = series_of(d, part)
        tpl = fit_template([series.at(p) for p in range(p0, p0 + _FU_PICKS)])
        if tpl and cluster_or_limit(d, SeqSpec(tail=Indexed(tpl)), t,
                                    Topology.SIGMA_CW) is Verdict.CONVERGES:
            return SeqSpec(head=tuple(series.at(p).address() for p in range(_FU_PICKS)),
                           tail=Indexed(tpl))
    raise ChoiceUnavailable("could not assemble a convergent selection from A")


# -- maximality of the countably coarse wedge topology -------------------------------------

ALREADY_SIGMA_OPEN = "already-sigma-open"


@record(frozen=True)
class MaximalityWitness:
    t: Node
    seq: SeqSpec
    verified: bool

    def to_json(self):
        from .dsl import print_address
        return {"kind": "maximality", "t": print_address(self.t.address()),
                "head": [print_address(s) for s in self.seq.head],
                "verified": self.verified}


def minimal_bases(d, opens):
    """The minimal elements among the bases of a finite union of
    cone-difference sets, in the order of ``opens``; a cone complement's
    base is the root."""
    bases = []
    for U in opens:
        if isinstance(U, (Cone, Wedge, CDiff)):
            bases.append(as_node(d, U.t))
        elif isinstance(U, ConeComplement):
            if not as_node(d, U.t).is_root:  # the complement of the root cone is empty
                bases.append(resolve(d, ()))
        else:
            raise TypeError(U)
    return [b for b in bases
            if not any(leq_parts(o.parts, b.parts) and o.parts != b.parts for o in bases)]


def maximality_witness(d, opens):
    """For a finite union of cone-difference sets: either a minimal element of
    countable cofinality together with an increasing I(T)-sequence outside the
    union that converges to it (so the union cannot be open in any countably
    compact refinement), or the verdict that the union is already open in the
    countably coarse wedge topology."""
    validate(d)
    for t in minimal_bases(d, opens):
        if t.cof is Cofinality.OMEGA:
            seq_nodes = cofinal_I_nodes(d, t, _MAXIMALITY_HEAD)
            outside = all(
                not any(member(d, n, U) for U in opens) for n in seq_nodes)
            tpl = fit_template(seq_nodes)
            seq = SeqSpec(head=tuple(n.address() for n in seq_nodes),
                          tail=Indexed(tpl) if tpl else None)
            verified = outside
            if tpl is not None:
                verified = verified and cluster_or_limit(
                    d, SeqSpec(tail=Indexed(tpl)), t,
                    Topology.SIGMA_CW) is Verdict.CONVERGES
            return MaximalityWitness(t, seq, verified)
    return ALREADY_SIGMA_OPEN
