"""The hat and tilde constructions and their round-trip laws.

``hat`` splits every node of uncountable cofinality off from its predecessors
by a new point with a unique immediate successor, and gives every
upper-bound-less chain of uncountable cofinality its missing supremum.  On a
chain-complete tree the result is the coarse wedge realization of the
Stone-Cech compactification of the countably coarse wedge space.

``tilde`` deletes every level of uncountable cofinality.  tilde(hat(d)) always
recovers d; hat(tilde(d)) recovers d exactly when every uncountable-cofinality
node has at most one immediate successor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ChoiceUnavailable, InvalidAddress, NotClosed, NotInClosure,
    PreconditionFailed, SupNotRepresentable, UndecidableTailPattern,
)
from .ordinals import ONE, Cofinality, add, cmp, pred
from .trees import (
    Below, Card, Full, Graft, HatOf, Seg, TildeOf, ancestor_at, as_node,
    children, hat_shift, height, leq_parts, resolve, structure_ok,
    tilde_shift, unc_sites, validate, view,
)
from .topology import (
    Branch, ClubFamily, ConeSet, Explicit, contains, fu_extract,
    sample_members, series_of, spec_parts,
)


# -- the constructions ----------------------------------------------------------

@dataclass(frozen=True)
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
        if t.cof is not Cofinality.OMEGA1:
            raise PreconditionFailed(
                "split points exist below uncountable-cofinality nodes only")
        return tuple(steps) + (Below(),)

    def describe(self, steps):
        return resolve(self.result, steps)


def hat(d):
    structure_ok(d)
    out = HatOf(d)
    return out, HatMap(d, out)


def tilde(d):
    structure_ok(d)
    return TildeOf(d)


# -- normalization ----------------------------------------------------------------

def normalize(d):
    """Rewrite a description into an equivalent simpler one where the
    wrappers act trivially or collapse."""
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
        return Graft(base, children_)
    if isinstance(d, TildeOf):
        inner = normalize(d.inner)
        if isinstance(inner, HatOf):
            return normalize(inner.inner)
        if not unc_sites(inner):
            return inner
        if isinstance(inner, Seg) and inner.eta.cof() is not Cofinality.OMEGA1:
            return Seg(tilde_shift(inner.eta))
        return TildeOf(inner)
    if isinstance(d, HatOf):
        inner = normalize(d.inner)
        if not unc_sites(inner) and not view(inner).gaps():
            return inner
        if isinstance(inner, Seg):
            return Seg(hat_shift(inner.eta))
        return HatOf(inner)
    return d


def is_r1_tree(d):
    return r_flags(d)[1]


def r_flags(d):
    """(is r-tree, is r1-tree): every uncountable-cofinality node has
    finitely many / at most one immediate successor."""
    sites = unc_sites(d)
    is_r = all(s.ims.is_finite for s in sites)
    is_r1 = all(s.ims.is_finite and s.ims.n <= 1 for s in sites)
    return is_r, is_r1


# -- structural isomorphism (normal forms plus node-level spot checks) -------------

# the spot panel's breadth-first walk from the root: a few nodes past the
# root and the leftmost top, enough to meet a branching and a limit level
_WALK_NODES = 6   # walk nodes the panel keeps, so a check stays a handful
_WALK_KIDS = 2    # children asked of each node: two show a branching
_WALK_WIDTH = 3   # nodes kept per level, so a wide tree is walked deeper
_WALK_DEPTH = 6   # levels walked; each adds a node, so _WALK_NODES binds first


def _walk_nodes(d, root):
    """The first ``_WALK_NODES`` nodes of a breadth-first walk from root.
    It only takes immediate successors, which every view lists without
    raising."""
    out = []
    frontier = [root]
    for _ in range(_WALK_DEPTH):
        nxt = []
        for n in frontier:
            for c in children(d, n, _WALK_KIDS):
                out.append(c)
                if len(out) == _WALK_NODES:
                    return out
                nxt.append(c)
        frontier = nxt[:_WALK_WIDTH]
    return out


def _spot_nodes(d):
    """A panel of nodes of d covering the structural regions, every
    uncountable-cofinality site included: the root, the leftmost top, the
    sites and the walk's nodes, the first node with each parts kept.  A spot
    check resolves each panel node's address, or a translation of it, on the
    other tree, so the panel is never resolved on d itself."""
    v = view(d)
    root = v.root()
    out = [root]
    try:
        out.append(v.leftmost_top())
    except InvalidAddress:
        pass  # a tilde removed the top of the leftmost branch
    out.extend(unc_sites(d))
    out.extend(_walk_nodes(d, root))
    uniq = {}
    for n in out:
        uniq.setdefault(n.parts, n)
    return list(uniq.values())


def _node_data_match(a, b):
    return cmp(a.ht, b.ht) == 0 and a.cof is b.cof and a.ims == b.ims \
        and a.maximal == b.maximal


def _site_summary(d):
    return sorted((str(s.ht), str(s.ims), s.maximal) for s in unc_sites(d))


def iso_check(d1, d2):
    """Equal heights, equal normal forms and equal site summaries.  This is
    a sound isomorphism check for the round-trip shapes it is used on, not a
    general tree-isomorphism decision."""
    if cmp(height(d1), height(d2)) != 0:
        return False
    return normalize(d1) == normalize(d2) and _site_summary(d1) == _site_summary(d2)


def _spot_iso(d, pairs):
    """Node data of each ``(node, address)`` pair against the node of d at
    that address; the caller has checked that the heights agree."""
    for a, addr in pairs:
        try:
            b = resolve(d, addr)
        except InvalidAddress:
            return False
        if not _node_data_match(a, b):
            return False
    return True


def _panel(d):
    """The spot panel of d, each node with its address."""
    return {n.parts: (n, n.address()) for n in _spot_nodes(d)}


@dataclass(frozen=True)
class RoundTrip:
    tilde_hat_ok: bool
    hat_tilde_ok: bool
    is_r1: bool


def roundtrip_check(d):
    """tilde(hat(d)) recovers d always; hat(tilde(d)) recovers d exactly on
    trees whose uncountable-cofinality nodes have at most one successor."""
    structure_ok(d)
    th = TildeOf(HatOf(d))
    _, r1 = r_flags(d)
    panel = _panel(d)  # each address built once, shared by both spot checks
    # removing the split points restores the addresses, so each panel is
    # resolved on the other tree at its own addresses
    tilde_hat_ok = iso_check(th, d) and \
        _spot_iso(d, _panel(th).values()) and _spot_iso(th, panel.values())
    hat_tilde_ok = _hat_tilde_spot_iso(d, HatOf(TildeOf(d)), panel)
    return RoundTrip(tilde_hat_ok, hat_tilde_ok, r1)


def _hat_tilde_address(d, node, addr, panel):
    """Candidate translation of ``node`` of d, at address ``addr``, to an
    address of hat(tilde(d)) for r1 trees."""
    if node.cof is not Cofinality.OMEGA1 or node.maximal:
        return addr  # a maximal one's completion point has its address too
    kid = children(d, node, 2)
    if len(kid) != 1:
        raise UndecidableTailPattern("not an r1 position")
    k = kid[0]
    return (panel[k.parts][1] if k.parts in panel else k.address()) + (Below(),)


def _hat_tilde_spot_iso(d, ht_, panel):
    try:
        return cmp(height(d), height(ht_)) == 0 and _spot_iso(
            ht_, ((n, _hat_tilde_address(d, n, a, panel)) for n, a in panel.values()))
    except (InvalidAddress, UndecidableTailPattern):
        return False  # children the walk rejects, or a site not in r1 position


# -- disjoint closures in the hat compactification -----------------------------------

@dataclass(frozen=True)
class DisjointVerdict:
    kind: str                 # "disjoint" | "meet"
    at: object = None         # split-point address when kind == "meet"
    accumulation_a: tuple = ()
    accumulation_b: tuple = ()

    def to_json(self):
        out = {"kind": "disjoint-closures", "verdict": self.kind,
               "verified": True}
        if self.at is not None:
            from .dsl import print_address
            out["at"] = print_address(self.at)
        return out


def _sigma_closed_check(d, spec, name):
    """Raise NotClosed with an escaping convergent sequence when a template
    limit point is missing from the set."""
    for part in spec_parts(spec):
        if isinstance(part, (Explicit, Branch, ConeSet)):
            continue  # closed as they stand (cones and branches are clopen-ish)
        for x in series_of(d, part).limit_nodes():
            if not contains(d, spec, x):
                try:
                    seq = fu_extract(d, spec, x)
                except (ChoiceUnavailable, InvalidAddress, NotInClosure,
                        SupNotRepresentable, UndecidableTailPattern) as exc:
                    raise UndecidableTailPattern(
                        "cannot certify closedness of %s at %r" % (name, x)) from exc
                raise NotClosed(
                    "%s is not closed in the countably coarse wedge topology" % name,
                    which=name, witness=(seq, x.address()))


def _accumulating_split_points(d, spec):
    """Split points s(t) where the set accumulates in hat(d): explicit
    uncountable-cofinality nodes with cofinal meets, plus whole cones (a cone
    accumulates at s(u) for every uncountable-cofinality u above its base)."""
    out = {}
    cones = []
    for part in spec_parts(spec):
        if isinstance(part, Branch):
            top = as_node(d, part.top)
            for site_ht in _unc_heights_upto(d, top.ht):
                t = ancestor_at(d, top, site_ht)
                out[t.parts] = t
        elif isinstance(part, ClubFamily):
            series = series_of(d, part)
            anchor = resolve(d, part.anchor)
            for site_ht in _unc_heights_upto(d, anchor.ht):
                t = ancestor_at(d, anchor, site_ht)
                kind, sup = series.meet_profile_with(t)
                if kind == "increasing" and cmp(sup, t.ht) == 0:
                    out[t.parts] = t
        elif isinstance(part, ConeSet):
            cones.append(resolve(d, part.t))
        # omega families and explicit sets have countable meet suprema and
        # never reach an uncountable-cofinality point
    return out, cones


def _unc_heights_upto(d, h):
    from .ordinals import Ordinal
    return [Ordinal(j, ()) for j in range(1, h.omega1 + 1)
            if cmp(Ordinal(j, ()), h) <= 0]


def disjoint_closures(d, A, B):
    """Decide whether two disjoint closed subsets of the countably coarse
    wedge space keep disjoint closures in the hat compactification.

    Closedness is checked by hunting for escaping convergent sequences; a
    meeting point, were it to exist, must be a split point s(t), detected via
    cofinal meets below t."""
    validate(d)
    _sigma_closed_check(d, A, "A")
    _sigma_closed_check(d, B, "B")
    for x in sample_members(d, A, 5):
        if contains(d, B, x):
            raise PreconditionFailed("A and B share the point %r" % (x,))
    for x in sample_members(d, B, 5):
        if contains(d, A, x):
            raise PreconditionFailed("A and B share the point %r" % (x,))
    acc_a, cones_a = _accumulating_split_points(d, A)
    acc_b, cones_b = _accumulating_split_points(d, B)
    common = set(acc_a) & set(acc_b)
    for base in cones_a:
        for u in acc_b.values():
            if leq_parts(base.parts, u.parts):
                common.add(u.parts)
                acc_a[u.parts] = u
    for base in cones_b:
        for u in acc_a.values():
            if leq_parts(base.parts, u.parts):
                common.add(u.parts)
    for ba in cones_a:
        for bb in cones_b:
            if leq_parts(ba.parts, bb.parts) or leq_parts(bb.parts, ba.parts):
                raise UndecidableTailPattern(
                    "comparable cones share their whole upper accumulation")
    if common:
        t = acc_a[min(common, key=str)]
        return DisjointVerdict("meet", at=t.address() + (Below(),),
                               accumulation_a=tuple(sorted(map(str, acc_a))),
                               accumulation_b=tuple(sorted(map(str, acc_b))))
    return DisjointVerdict("disjoint",
                           accumulation_a=tuple(sorted(map(str, acc_a))),
                           accumulation_b=tuple(sorted(map(str, acc_b))))
