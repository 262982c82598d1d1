"""Coarse and countably coarse wedge topologies over described trees.

Two topologies share the cone subbase {V_t, T \\ V_t}: the coarse wedge
topology takes it at finite-cofinality points, the countably coarse wedge
topology at all points of cofinality != omega.  This module holds the basic
opens, the set and sequence specs, the deciders (membership, convergence
verdicts) and the four witness constructions.  They run symbolically over
set/sequence templates with one linear parameter; the templates and the
series fitted from them live in ``wedgetree.series``.

Deciders are sound and conservative: they raise UndecidableTailPattern when a
tail falls outside the decidable fragment, and never return a wrong verdict.
Choice functions pick least indices and least parameters so witnesses are
reproducible.  A least parameter is read off the family's profiles
(``series.Profile.first``), not searched for, so no budget decides that a
family has no member in a cone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    ChoiceUnavailable, IllegalWedge, NotAccumulating, NotInClosure,
    PreconditionFailed, SupNotRepresentable, UndecidableTailPattern,
)
from .ordinals import (
    OMEGA, ONE, ZERO, Cofinality, Ordinal, add, cmp, left_sub,
    limit_of_affine, pred,
)
from .series import Param as Param
from .series import SymbolicSeries as SymbolicSeries
from .series import (
    cached_series, fit_stable_template, fit_template, instantiate, next_param,
)
from .trees import (
    Node, ancestor_at, as_node, child_toward, children, cofinal_I_nodes, leq,
    leq_parts, meet, meet_parts, node_at, resolve,
)


# -- probe budgets -------------------------------------------------------------
# Every bounded search of this module, in one place, with what it bounds.
_PROBE_SMALL = 10       # cluster_or_limit: first parameters probed for entered children of x
_PROBE_CLIMB = 10       # and parameters from the first climb above x, so late entries show
_MEETING_KIDS = 12      # _meeting_children: children of t listed when V_t lies in a cone of A
_MEETING_PARAMS = 10    # and members of each family probed for the cones of t they enter;
_MEETING_INFINITE = 6   # that many distinct cones is read as infinitely many, a sampled answer
_PICK_PARAMS = 40       # _pick_in_child_cones: members searched for distinct child cones,
_PICK_KEEP = 12         # picks kept, so a few leading members of another shape can be skipped,
_PICK_FIT = 8           # and the run of picks a stable template is fitted to
_FU_PICKS = 8           # fu_extract: cofinal I-points below t, one least member above each
_SAMPLE_K = 6           # sample_members: members per family when the caller names no count
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

@dataclass(frozen=True)
class Cone:
    t: tuple


@dataclass(frozen=True)
class Wedge:
    t: tuple
    excluded: tuple = ()


@dataclass(frozen=True)
class ConeComplement:
    t: tuple


@dataclass(frozen=True)
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
    if any(cmp(n.ht, h) != 0 for n in nodes):
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
    if isinstance(U, Wedge):
        base = as_node(d, U.t)
        _check_wedge_legal(d, base, U.excluded)
        if not leq(d, base, x):
            return False
        return all(not leq(d, as_node(d, f), x) for f in U.excluded)
    if isinstance(U, CDiff):
        base = as_node(d, U.t)
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

@dataclass(frozen=True)
class Explicit:
    points: tuple


@dataclass(frozen=True)
class OmegaFamily:
    """{ template(n) : n < omega }."""
    template: tuple


@dataclass(frozen=True)
class ClubFamily:
    """{ template(alpha) : alpha < ht(anchor) }, ordinal-parameterized."""
    anchor: tuple
    template: tuple


@dataclass(frozen=True)
class Branch:
    """All predecessors of top, top included (a branch closure)."""
    top: tuple


@dataclass(frozen=True)
class ConeSet:
    """V_t as a point set."""
    t: tuple


@dataclass(frozen=True)
class UnionSpec:
    parts: tuple


@dataclass(frozen=True)
class Indexed:
    template: tuple


@dataclass(frozen=True)
class EventuallyConstant:
    point: tuple


@dataclass(frozen=True)
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


def sample_members(d, spec, k=_SAMPLE_K):
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
            if cmp(OMEGA, top.ht) < 0:
                hts.append(OMEGA)
            for h in hts:
                if cmp(h, top.ht) <= 0:
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
    if series.constant:
        c = series.at(0)
        return Verdict.CONVERGES if c.parts == x.parts else Verdict.NEITHER

    lex = series.le_profile(x)
    eqx = series.eq_profile(x)

    # children of x entered by the sequence (candidates for wedge
    # exclusions): probe small parameters and, crucially, the range where
    # the sequence first climbs above x
    probe_ps = list(series.params_upto(_PROBE_SMALL))
    start = lex.first()
    if start is not None:
        p = start
        for _ in range(_PROBE_CLIMB):
            probe_ps.append(p)
            p = next_param(p)
    cands = {}
    for p in probe_ps:
        sp = series.at(p)
        if leq_parts(x.parts, sp.parts) and sp.parts != x.parts:
            f = child_toward(d, x, sp)
            cands[f.parts] = f
    excl_ok = True
    for f in cands.values():
        pf = series.le_profile(f)
        if pf.kind == "from":
            excl_ok = False

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
        reach = kind == "increasing" and cmp(sup, x.ht) == 0
        b1_conv = b1_clust = reach

    if b1_conv and excl_ok:
        return Verdict.CONVERGES
    if b1_clust and excl_ok:
        return Verdict.CLUSTERS_ONLY
    return Verdict.NEITHER


# -- witness constructions -------------------------------------------------------------

@dataclass(frozen=True)
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
    t = as_node(d, t)
    if t.cof is not Cofinality.OMEGA1:
        raise PreconditionFailed("witness requires cf(t) uncountable, got %s" % t.cof)
    if not is_countable_spec(d, S):
        raise PreconditionFailed("S must be countable")
    sup = ZERO
    for part in spec_parts(S):
        if isinstance(part, Explicit):
            for pt in part.points:
                n = resolve(d, pt)
                if leq_parts(t.parts, n.parts):
                    raise PreconditionFailed("an element of S lies in the cone of t")
                h = node_at(d, meet_parts(n.parts, t.parts)).ht
                if cmp(h, sup) > 0:
                    sup = h
        elif isinstance(part, (OmegaFamily, ClubFamily)):
            series = series_of(d, part)
            if series.le_profile(t).ever or series.eq_profile(t).ever:
                raise PreconditionFailed("an element of S lies in the cone of t")
            kind, s = series.meet_profile_with(t)
            if cmp(s, sup) > 0:
                sup = s
        elif isinstance(part, Branch):
            top = as_node(d, part.top)
            if leq_parts(t.parts, top.parts):
                raise PreconditionFailed("an element of S lies in the cone of t")
            h = node_at(d, meet_parts(top.parts, t.parts)).ht
            if cmp(h, sup) > 0:
                sup = h
        else:
            raise PreconditionFailed("cone sets are not countable inputs")
    if cmp(sup, t.ht) >= 0:
        raise SupNotRepresentable("meets are cofinal in t; no separating point exists")
    p = ancestor_at(d, t, add(sup, ONE))
    verified = _verify_cone_avoids(d, p, S) and p.in_I and leq(d, p, t)
    return CountablyClosedWitness(p, sup, verified)


def _verify_cone_avoids(d, p, S):
    for part in spec_parts(S):
        if isinstance(part, Explicit):
            if any(leq(d, p, resolve(d, pt)) for pt in part.points):
                return False
        elif isinstance(part, (OmegaFamily, ClubFamily)):
            if series_of(d, part).le_profile(p).ever:
                return False
        elif isinstance(part, Branch):
            if leq(d, p, as_node(d, part.top)):
                return False
    return True


@dataclass(frozen=True)
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
        if isinstance(part, Explicit):
            for pt in part.points:
                n = resolve(d, pt)
                if leq(d, lower, n) and not leq(d, avoid_cone, n):
                    if best is None:
                        best = n
        elif isinstance(part, (OmegaFamily, ClubFamily)):
            series = series_of(d, part)
            p = series.le_profile(lower).first(series.le_profile(avoid_cone))
            if p is not None and best is None:
                best = series.at(p)
        elif isinstance(part, Branch):
            top = as_node(d, part.top)
            if leq(d, lower, top) and not leq(d, avoid_cone, top):
                if best is None:
                    best = top
    return best


def club_accumulation(d, t, S, steps=_CLUB_STEPS):
    """The closed-unbounded accumulation construction below an
    uncountable-cofinality point t: alternately pick s_j in S above r_j + 1
    and set r_{j+1} to the meet of s_j with t; r is the supremum."""
    t = as_node(d, t)
    if t.cof is not Cofinality.OMEGA1:
        raise PreconditionFailed("club accumulation requires cf(t) uncountable")
    r = resolve(d, ())  # r_0 = root
    pairs = []
    for _ in range(steps):
        toward = child_toward(d, r, t)
        s = _least_member_above(d, S, toward, t)
        if s is None:
            raise NotAccumulating(
                "no member of S above %r outside the cone of t" % toward)
        pairs.append((r, s))
        r_next = meet(d, s, t)
        if cmp(r_next.ht, r.ht) <= 0 and pairs[:-1]:
            raise UndecidableTailPattern("meets stopped increasing")
        r = r_next
    hts = [p[0].ht for p in pairs[1:]] + [r.ht]
    deltas = {str(left_sub(a, b)) for a, b in zip(hts, hts[1:])}
    if len(deltas) != 1:
        raise UndecidableTailPattern("accumulation pattern is not affine")
    delta = left_sub(hts[-2], hts[-1])
    r_sup_ht = limit_of_affine(hts[0], delta)
    if cmp(r_sup_ht, t.ht) >= 0:
        raise SupNotRepresentable("r_j are cofinal in t itself")
    r_sup = ancestor_at(d, t, r_sup_ht)
    seq = SeqSpec(head=tuple(s.address() for _, s in pairs), tail=None)
    verdict = _cluster_of_concrete_tail(d, [s for _, s in pairs], r_sup)
    verified = all(cmp(a.ht, b.ht) < 0 for (a, _), (b, _) in zip(pairs, pairs[1:]))
    verified = verified and cmp(r_sup.ht, t.ht) < 0 and verdict is not Verdict.NEITHER
    for (rj, sj), (rk, _) in zip(pairs, pairs[1:]):
        verified = verified and meet(d, sj, t).parts == rk.parts
    return ClubWitness(tuple(pairs), r_sup, tuple(hts), seq, verdict, verified)


def _cluster_of_concrete_tail(d, nodes, x):
    """Cluster verdict for a finite prefix extended by its affine pattern."""
    tpl = fit_template(nodes)
    if tpl is None:
        # fall back: every wedge at x must contain some node; sample checks
        ok = all(leq(d, node_at(d, meet_parts(n.parts, x.parts)), x) for n in nodes)
        return Verdict.CLUSTERS_ONLY if ok else Verdict.NEITHER
    return cluster_or_limit(d, SeqSpec(tail=Indexed(tpl)), x, Topology.CW)


# -- Frechet-Urysohn extraction ----------------------------------------------------------

def fu_extract(d, A, t):
    """A sequence from A converging to t in the countably coarse wedge
    topology, built by the three-case analysis on cf(t) and on how many
    immediate-successor cones of t meet A.  When cf(t) = omega and finitely
    many cones meet A, the sequence takes, above each of _FU_PICKS cofinal
    I-points below t, the family's least member outside the meeting cones and
    other than t, read off the profiles."""
    t = as_node(d, t)
    if contains(d, A, t):
        raise PreconditionFailed("t itself belongs to A")

    meeting, meeting_infinite = _meeting_children(d, A, t)
    if t.cof is not Cofinality.OMEGA:
        if meeting_infinite:
            return _pick_in_child_cones(d, A, t)
        if not meeting:
            raise NotInClosure("no immediate-successor cone of t meets A")
        # finitely many meeting cones and a strong local base at t: the wedge
        # excluding them misses A entirely
        raise NotInClosure(
            "only finitely many cones below t's wedge meet A; t is not in the closure")
    if meeting_infinite:
        return _pick_in_child_cones(d, A, t)
    base_nodes = cofinal_I_nodes(d, t, _FU_PICKS)
    head = []
    tpl = None
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
    seq = SeqSpec(head=tuple(head), tail=Indexed(tpl) if tpl else None)
    verdict = cluster_or_limit(d, SeqSpec(tail=Indexed(tpl)), t, Topology.SIGMA_CW) \
        if tpl else Verdict.NEITHER
    if verdict is not Verdict.CONVERGES:
        raise NotInClosure("extracted sequence does not converge to t", witness=seq)
    return seq


def _meeting_children(d, A, t):
    """(finite list of meeting children, True-if-infinitely-many)."""
    meeting = {}
    infinite = False
    kids = children(d, t, _MEETING_KIDS)
    for part in spec_parts(A):
        if isinstance(part, Explicit):
            for pt in part.points:
                n = resolve(d, pt)
                if leq_parts(t.parts, n.parts) and n.parts != t.parts:
                    f = child_toward(d, t, n)
                    meeting[f.parts] = f
        elif isinstance(part, (OmegaFamily, ClubFamily)):
            series = series_of(d, part)
            fs = {}
            for p in series.params_upto(_MEETING_PARAMS):
                sp = series.at(p)
                if leq_parts(t.parts, sp.parts) and sp.parts != t.parts:
                    f = child_toward(d, t, sp)
                    fs[f.parts] = f
            if len(fs) >= _MEETING_INFINITE:
                infinite = True
            meeting.update(fs)
        elif isinstance(part, Branch):
            top = as_node(d, part.top)
            if leq_parts(t.parts, top.parts) and top.parts != t.parts:
                f = child_toward(d, t, top)
                meeting[f.parts] = f
        elif isinstance(part, ConeSet):
            base = as_node(d, part.t)
            if leq_parts(t.parts, base.parts) and base.parts != t.parts:
                # the cone hangs above one child of t
                f = child_toward(d, t, base)
                meeting[f.parts] = f
            elif leq_parts(base.parts, t.parts):
                # V_t is inside the cone: every child cone meets it
                if not t.ims.is_finite:
                    infinite = True
                for k in kids:
                    meeting[k.parts] = k
    return list(meeting.values()), infinite


def _pick_in_child_cones(d, A, t):
    """Case: countably many immediate-successor cones of t meet A."""
    picked = []
    for part in spec_parts(A):
        if isinstance(part, (OmegaFamily, ClubFamily)):
            series = series_of(d, part)
            seen = set()
            for p in series.params_upto(_PICK_PARAMS):
                sp = series.at(p)
                if leq_parts(t.parts, sp.parts) and sp.parts != t.parts:
                    f = child_toward(d, t, sp)
                    if f.parts not in seen:
                        seen.add(f.parts)
                        picked.append(sp)
                if len(picked) >= _PICK_KEEP:
                    break
            if len(picked) >= _PICK_FIT:
                tpl = fit_stable_template(picked, _PICK_FIT)
                if tpl is not None:
                    seq = SeqSpec(head=tuple(n.address() for n in picked[:_PICK_FIT]),
                                  tail=Indexed(tpl))
                    if cluster_or_limit(d, SeqSpec(tail=Indexed(tpl)), t,
                                        Topology.SIGMA_CW) is Verdict.CONVERGES:
                        return seq
        elif isinstance(part, Explicit):
            for pt in part.points:
                n = resolve(d, pt)
                if leq_parts(t.parts, n.parts) and n.parts != t.parts:
                    picked.append(n)
    raise ChoiceUnavailable("could not assemble a convergent selection from A")


# -- maximality of the countably coarse wedge topology -------------------------------------

ALREADY_SIGMA_OPEN = "already-sigma-open"


@dataclass(frozen=True)
class MaximalityWitness:
    t: Node
    seq: SeqSpec
    verified: bool

    def to_json(self):
        from .dsl import print_address
        return {"kind": "maximality", "t": print_address(self.t.address()),
                "head": [print_address(s) for s in self.seq.head],
                "verified": self.verified}


def maximality_witness(d, opens):
    """For a finite union of cone-difference sets: either a minimal element of
    countable cofinality together with an increasing I(T)-sequence outside the
    union that converges to it (so the union cannot be open in any countably
    compact refinement), or the verdict that the union is already open in the
    countably coarse wedge topology."""
    bases = []
    for U in opens:
        if isinstance(U, (Cone, Wedge, CDiff)):
            bases.append(as_node(d, U.t))
        elif isinstance(U, ConeComplement):
            if not as_node(d, U.t).is_root:  # the complement of the root cone is empty
                bases.append(resolve(d, ()))
        else:
            raise TypeError(U)
    minimal = []
    for b in bases:
        if not any(leq_parts(o.parts, b.parts) and o.parts != b.parts for o in bases):
            minimal.append(b)
    for t in minimal:
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
