"""The hat and tilde constructions and their round-trip laws.

``hat`` splits every node of uncountable cofinality off from its predecessors
by a new point with a unique immediate successor, and gives every
upper-bound-less chain of uncountable cofinality its missing supremum.  On a
chain-complete tree the result is the coarse wedge realization of the
Stone-Cech compactification of the countably coarse wedge space.

``tilde`` deletes every level of uncountable cofinality.  tilde(hat(d)) always
recovers d; hat(tilde(d)) recovers d exactly when every uncountable-cofinality
node has at most one immediate successor.

The disjoint-closures code reads the set specs, and where their parts are a
limit (``topology.limit_at``), off the package (``wedgetree.topology``) when
it runs, so importing this module, ``normalize`` and the round trip load
neither ``topology`` nor ``series``.
"""

from __future__ import annotations

from functools import lru_cache

import wedgetree

from .errors import (
    ChoiceUnavailable, InvalidAddress, NotClosed, NotInClosure,
    PreconditionFailed, SupNotRepresentable, UndecidableTailPattern,
)
from .ordinals import ONE, Cofinality, Ordinal, add, pred
from .records import field, record
from .trees import (
    VIEW_CACHE_SIZE, Below, Card, Full, Graft, HatOf, Seg, TildeOf,
    ancestor_at, children, hat_shift, height, resolve,
    structure_ok, tilde_shift, unc_sites, validate, view,
)


# the functions below read this name: a member read off the enum class costs
# more than a module global
_OMEGA1_COF = Cofinality.OMEGA1


# -- the constructions ----------------------------------------------------------

@record(frozen=True)
class HatMap:
    """Node correspondence between d and hat(d): originals keep their
    addresses; the split point below an uncountable-cofinality node t is
    addressed by t's address followed by a below-marker."""
    source: object
    result: object

    def forward(self, steps):
        return tuple(steps)

    def s_of(self, steps):
        t = resolve(self.source, steps)
        if t.cof is not _OMEGA1_COF:
            raise PreconditionFailed(
                "split points exist below uncountable-cofinality nodes only")
        return tuple(steps) + (Below(),)

    def describe(self, steps):
        return resolve(self.result, steps)


def hat(d):
    """hat(d) and its ``HatMap``.  It raises exactly what ``structure_ok``
    raises and answers on chain-incomplete trees, since hat(d) can be valid
    when d is not: it fills the gaps of ``(tilde (seg w1))``."""
    structure_ok(d)
    out = HatOf(d)
    return out, HatMap(d, out)


def tilde(d):
    """tilde(d).  Like ``hat``, it raises exactly what ``structure_ok``
    raises and answers on chain-incomplete trees."""
    structure_ok(d)
    return TildeOf(d)


# -- normalization ----------------------------------------------------------------

@lru_cache(maxsize=VIEW_CACHE_SIZE)
def normalize(d):
    """Rewrite a description into an equivalent simpler one where the
    wrappers act trivially or collapse.  Whether a wrapper acts trivially
    (its tree has no uncountable-cofinality sites, and for a hat no gaps) is
    asked of the view of the wrapped description it was given, not of that
    description's normal form: the two denote isomorphic trees, and
    ``validate`` and the round trip have built the given one's view already,
    so ``normalize`` builds no view of a description that is not a subterm
    of its argument.  A description that is already in normal form is
    returned itself, not an equal copy, so normal forms share their subterm
    objects.  A description and its normal form are immutable, so the
    answers for the ``VIEW_CACHE_SIZE`` most recently used descriptions are
    kept: ``classify_report`` and ``roundtrip_check`` on one tree ask for
    the normal form of d three times between them (R5, ``iso_check`` and
    inside the normal form of tilde(hat(d)))."""
    if isinstance(d, Seg):
        return d
    if isinstance(d, Full):
        if d.k == 1:
            return Seg(pred(d.h))
        return d
    if isinstance(d, Graft):
        base = normalize(d.base)
        children_ = tuple((normalize(c), m) for c, m in d.children)
        if not children_:
            return base
        if (len(children_) == 1 and isinstance(base, Seg)
                and isinstance(children_[0][0], Seg)
                and children_[0][1] == Card.fin(1)):
            return Seg(add(add(base.eta, ONE), children_[0][0].eta))
        if base == d.base and children_ == d.children:
            return d
        return Graft(base, children_)
    if isinstance(d, TildeOf):
        inner = normalize(d.inner)
        if isinstance(inner, HatOf):
            return inner.inner  # in normal form already, as inner is
        if not unc_sites(d.inner):
            return inner
        if isinstance(inner, Seg) and inner.eta.cof() is not _OMEGA1_COF:
            return Seg(tilde_shift(inner.eta))
        return d if inner == d.inner else TildeOf(inner)
    if isinstance(d, HatOf):
        inner = normalize(d.inner)
        if not unc_sites(d.inner) and not view(d.inner).gaps():
            return inner
        if isinstance(inner, Seg):
            return Seg(hat_shift(inner.eta))
        return d if inner == d.inner else HatOf(inner)
    return d


def is_r1_tree(d):
    return r_flags(d)[1]


@lru_cache(maxsize=VIEW_CACHE_SIZE)
def r_flags(d):
    """(is r-tree, is r1-tree): every uncountable-cofinality node has
    finitely many / at most one immediate successor.  The answer is kept
    for the ``VIEW_CACHE_SIZE`` most recently used descriptions, as their
    views are: ``classify_report`` and ``roundtrip_check`` on one tree ask
    it three times between them."""
    sites = unc_sites(d)
    is_r = all(s.ims.is_finite for s in sites)
    is_r1 = all(s.ims.is_finite and s.ims.n <= 1 for s in sites)
    return is_r, is_r1


# -- structural isomorphism (normal forms plus node-level spot checks) -------------

# the spot panel's breadth-first walk from the root: a few nodes past the
# root and the leftmost top, enough to meet a branching and a limit level
_WALK_NODES = 6   # walk nodes the panel keeps, so a check stays a handful
_WALK_KIDS = 2    # children asked of each node: two show a branching


def _walk_nodes(v, root):
    """The first ``_WALK_NODES`` nodes of a breadth-first walk from root in
    the view v.  It only takes immediate successors, which every view lists
    without raising."""
    out = []
    frontier = [root]
    while frontier:
        nxt = []
        for n in frontier:
            for c in v.children(n, _WALK_KIDS):
                out.append(c)
                if len(out) == _WALK_NODES:
                    return out
                nxt.append(c)
        frontier = nxt
    return out


def _spot_nodes(d):
    """A panel of nodes of d covering the structural regions, every
    uncountable-cofinality site included: the root, the leftmost top, the
    sites and the walk's nodes, the first node with each parts kept.  A spot
    check walks each panel node's address, or a translation of it, on the
    other tree, so the panel is never walked on d itself; the round trip
    matches the panel of tilde(hat(d)) to d's by parts, so it builds no
    address of that panel."""
    v = view(d)
    root = v.root()
    out = [root]
    try:
        out.append(v.leftmost_top())
    except InvalidAddress:
        pass  # a tilde removed the top of the leftmost branch
    out.extend(v.unc_sites())
    out.extend(_walk_nodes(v, root))
    uniq = {}
    for n in out:
        uniq.setdefault(n.parts, n)
    return list(uniq.values())


def _node_data_match(a, b):
    # the cards of counts 0 to 3 are shared, so most match by identity
    return a.ht == b.ht and a.cof is b.cof and (a.ims is b.ims or a.ims == b.ims) \
        and a.maximal == b.maximal


def _site_summary(d):
    return sorted((s.ht, s.ims.kind, s.ims.n, s.maximal) for s in unc_sites(d))


def iso_check(d1, d2):
    """Equal heights, equal normal forms and equal site summaries.  This is
    a sound isomorphism check for the round-trip shapes it is used on, not a
    general tree-isomorphism decision."""
    if height(d1) != height(d2):
        return False
    return normalize(d1) == normalize(d2) and _site_summary(d1) == _site_summary(d2)


def _spot_iso(d, pairs):
    """Node data of each ``(node, address)`` pair against the node of d at
    that address; the caller has checked that the heights agree.  Each
    address is walked afresh (``find``) and its walk is not kept: the round
    trip builds d's view for this one call and asks each address of it once."""
    find = view(d).find
    for a, addr in pairs:
        try:
            b = find(addr)
        except InvalidAddress:
            return False
        if not _node_data_match(a, b):
            return False
    return True


def _panel(d):
    """The spot panel of d, each node with its address."""
    return {n.parts: (n, n.address()) for n in _spot_nodes(d)}


def _parts_match(d, panel):
    """The spot panel of d names exactly the parts of ``panel``, and each of
    its nodes has the data of the ``panel`` node with the same parts."""
    nodes = _spot_nodes(d)
    return {n.parts for n in nodes} == panel.keys() and all(
        _node_data_match(n, panel[n.parts][0]) for n in nodes)


@record(frozen=True)
class RoundTrip:
    tilde_hat_ok: bool
    hat_tilde_ok: bool
    is_r1: bool


def roundtrip_check(d):
    """tilde(hat(d)) recovers d always; hat(tilde(d)) recovers d exactly on
    trees whose uncountable-cofinality nodes have at most one successor.
    A tree that ``validate`` rejects raises its error: the laws speak of
    chain-complete trees only.  The views of tilde(hat(d)) and hat(tilde(d))
    are built for this call, and each panel address is walked on them once,
    afresh, with no walk kept; ``resolve``, ``node_at`` and ``root`` keep
    theirs, for callers that ask an address again."""
    validate(d)
    th = TildeOf(HatOf(d))
    _, r1 = r_flags(d)
    panel = _panel(d)  # each address built once, shared by both halves
    # removing the split points restores the parts and the addresses, so the
    # panel of tilde(hat(d)) matches d's node for node by parts, and d's
    # panel is walked on tilde(hat(d)) at its own addresses, once each
    tilde_hat_ok = iso_check(th, d) and _parts_match(th, panel) and \
        _spot_iso(th, panel.values())
    hat_tilde_ok = _hat_tilde_spot_iso(d, HatOf(TildeOf(d)), panel)
    return RoundTrip(tilde_hat_ok, hat_tilde_ok, r1)


def _hat_tilde_address(d, node, addr, panel):
    """Translation of ``node`` of d, at address ``addr``, to an address of
    hat(tilde(d)); d is an r1 tree, so a site that is not maximal has one
    immediate successor."""
    if node.cof is not _OMEGA1_COF or node.maximal:
        return addr  # a maximal one's completion point has its address too
    k, = children(d, node, 2)
    return (panel[k.parts][1] if k.parts in panel else k.address()) + (Below(),)


def _hat_tilde_spot_iso(d, ht_, panel):
    """hat(tilde(d)) recovers d, on d's spot panel.  Every site of d is in
    the panel, so a tree that is not r1 fails: it is decided by r1 first."""
    return r_flags(d)[1] and height(d) == height(ht_) and _spot_iso(
        ht_, ((n, _hat_tilde_address(d, n, a, panel)) for n, a in panel.values()))


# -- disjoint closures in the hat compactification -----------------------------------

@record(frozen=True)
class DisjointVerdict:
    kind: str                 # "disjoint" | "meet"
    at: object = None         # split-point address when kind == "meet"
    accumulation_a: tuple = ()
    accumulation_b: tuple = ()
    sets: tuple = field(default=(), repr=False, compare=False)  # (d, A, B), re-checked

    @property
    def verified(self):
        """The verdict re-derived from its tree and sets: a meeting point is
        the split point, in hat(d), of an uncountable-cofinality node where
        both sets accumulate; disjoint closures share no such point."""
        common = _shared_split_points(*self.sets)[0]
        if self.kind == "disjoint":
            return not common
        try:
            resolve(HatOf(self.sets[0]), self.at)
        except InvalidAddress:
            return False
        t = resolve(self.sets[0], self.at[:-1])
        return t.cof is _OMEGA1_COF and t.parts in common

    def to_json(self):
        out = {"kind": "disjoint-closures", "verdict": self.kind,
               "verified": self.verified}
        if self.at is not None:
            from .dsl import print_address
            out["at"] = print_address(self.at)
        return out


def _sigma_closed_check(d, spec, name):
    """Raise NotClosed with an escaping convergent sequence when a template
    limit point is missing from the set."""
    topology = wedgetree.topology
    for part in topology.spec_parts(spec):
        if isinstance(part, (topology.Explicit, topology.Branch, topology.ConeSet)):
            continue  # closed as they stand (cones and branches are clopen-ish)
        for x in topology.series_of(d, part).limit_nodes():
            if not topology.contains(d, spec, x):
                try:
                    seq = topology.fu_extract(d, spec, x)
                except (ChoiceUnavailable, InvalidAddress, NotInClosure,
                        SupNotRepresentable, UndecidableTailPattern) as exc:
                    raise UndecidableTailPattern(
                        "cannot certify closedness of %s at %r" % (name, x)) from exc
                raise NotClosed(
                    "%s is not closed in the countably coarse wedge topology" % (name,),
                    which=name, witness=(seq, x.address()))


def _accumulating_split_points(d, spec):
    """Split points s(t) where the set accumulates in hat(d): the
    uncountable-cofinality points t on the chain below a branch's top or a
    club family's anchor that the part is a limit at (``topology.limit_at``),
    plus the set's cone parts (a cone accumulates at s(u) for every
    uncountable-cofinality u strictly above its base)."""
    topology = wedgetree.topology
    out = {}
    cones = []
    for part in topology.spec_parts(spec):
        if isinstance(part, topology.ConeSet):
            cones.append(part)
            continue
        if isinstance(part, topology.Branch):
            top, = topology.named_nodes(d, part)
        elif isinstance(part, topology.ClubFamily):
            top = resolve(d, part.anchor)
        else:
            continue  # finitely many points, or an omega family, are a limit at none
        for j in range(1, top.ht.omega1 + 1):  # the heights w1*j up to top's
            t = ancestor_at(d, top, Ordinal(j, ()))
            if topology.limit_at(d, part, t):
                out[t.parts] = t
    return out, cones


_SHARED_MEMBERS = 5  # members per family of A and B looked up in the other set


def disjoint_closures(d, A, B):
    """Decide whether two disjoint closed subsets of the countably coarse
    wedge space keep disjoint closures in the hat compactification.

    Closedness is checked by hunting for escaping convergent sequences; a
    meeting point, were it to exist, must be a split point s(t), detected via
    cofinal meets below t."""
    topology = wedgetree.topology
    validate(d)
    _sigma_closed_check(d, A, "A")
    _sigma_closed_check(d, B, "B")
    for x in topology.sample_members(d, A, _SHARED_MEMBERS):
        if topology.contains(d, B, x):
            raise PreconditionFailed("A and B share the point %r" % (x,))
    for x in topology.sample_members(d, B, _SHARED_MEMBERS):
        if topology.contains(d, A, x):
            raise PreconditionFailed("A and B share the point %r" % (x,))
    common, acc_a, acc_b = _shared_split_points(d, A, B)
    summary = dict(accumulation_a=tuple(sorted(map(str, acc_a))),
                   accumulation_b=tuple(sorted(map(str, acc_b))), sets=(d, A, B))
    if common:
        t = common[min(common, key=str)]
        return DisjointVerdict("meet", at=t.address() + (Below(),), **summary)
    return DisjointVerdict("disjoint", **summary)


def _shared_split_points(d, A, B):
    """(the split points where both A and B accumulate, A's, B's), each as
    {parts: node}.  Where a cone accumulates is ``topology.limit_at``'s
    answer."""
    topology = wedgetree.topology
    acc_a, cones_a = _accumulating_split_points(d, A)
    acc_b, cones_b = _accumulating_split_points(d, B)
    common = set(acc_a) & set(acc_b)
    for cone in cones_a:
        for u in acc_b.values():
            if topology.limit_at(d, cone, u):
                common.add(u.parts)
                acc_a[u.parts] = u
    for cone in cones_b:
        for u in acc_a.values():
            if topology.limit_at(d, cone, u):
                common.add(u.parts)
    for ca in cones_a:
        for cb in cones_b:
            bb, = topology.named_nodes(d, cb)
            if topology.reaches(d, ca, bb):  # the two bases are comparable
                raise UndecidableTailPattern(
                    "comparable cones share their whole upper accumulation")
    return {u: acc_a[u] for u in common}, acc_a, acc_b
