import functools
import random

import pytest

from wedgetree.errors import (
    BadBranching, BadGraftBase, GapAddress, InvalidAddress, NotChainComplete,
    UnsupportedAddress, WedgeTreeError,
)
from wedgetree.ordinals import (
    ONE, ZERO, Cofinality, Ordinal, add, cmp, nat, times_nat,
)
from wedgetree.trees import (
    Below, CARD_OMEGA, CARD_OMEGA1, Card, Child, Copy, Full, Graft, HatOf,
    Node, Seg, TildeOf, ancestor_at, child_toward, children,
    cofinal_I_nodes, hat_shift, height, is_chain_complete, leq, meet,
    node_at, parts_to_steps, resolve, tilde_shift, unc_sites, validate, view,
)
from wedgetree import trees
from wedgetree.classify import build_separating_family, classify_report
from wedgetree.constructions import _spot_nodes, roundtrip_check
from wedgetree.corpus import random_description, sample_nodes
from wedgetree.topology import ConeSet

from helpers import (
    BINARY_W, BINARY_W1, FAN_OMEGA, REMARK_TREE, W, W1, W2, fact_trees, full,
    graft, o, seg, up, walk_trees, word,
)


# -- validation ----------------------------------------------------------------

def test_validate_examples():
    validate(BINARY_W1)
    validate(REMARK_TREE)
    with pytest.raises(NotChainComplete):
        validate(full(2, W))


def test_validate_graft_base_must_be_topped():
    with pytest.raises(BadGraftBase):
        # base of limit height has no top level to graft onto
        validate(Graft(TildeOf(BINARY_W1), ((seg(0), Card.fin(1)),)))


def test_bad_branching_is_a_library_error():
    # the parser rejects (full 0 3); a description built in code reaches
    # structure_ok, which answers with a coded library error
    d = Full(0, nat(3))
    for check in (validate, classify_report, roundtrip_check):
        with pytest.raises(BadBranching) as err:
            check(d)
        assert err.value.code == "bad-branching"


def test_tilde_of_binary_tree_is_not_chain_complete():
    assert not is_chain_complete(TildeOf(BINARY_W1))
    with pytest.raises(NotChainComplete):
        validate(TildeOf(BINARY_W1))


def test_tilde_of_r1_chain_is_chain_complete():
    assert is_chain_complete(TildeOf(seg(o(W1, 1))))
    validate(TildeOf(seg(o(W1, 1))))


# -- heights --------------------------------------------------------------------

def test_height_examples():
    assert height(seg(W1)) == o(W1, 1)
    assert height(REMARK_TREE) == o(W1, 2)
    assert height(BINARY_W1) == o(W1, 1)


def test_height_compositional():
    assert height(graft(seg(2), (seg(W), 2))) == o(2, 1, W, 1)
    assert height(graft(seg(0), (seg(3), 1), (seg(5), 1))) == o(7)
    assert height(full("w", o(W, 1))) == o(W, 1)


# -- resolve ---------------------------------------------------------------------

def test_resolve_full_leftmost_branch_top():
    n = resolve(BINARY_W1, [word("0", W1)])
    assert n.ht == W1
    assert n.cof is Cofinality.OMEGA1
    assert n.ims.is_zero and n.maximal


def test_resolve_seg_interior():
    n = resolve(seg(W1), [up(W)])
    assert n.ht == W
    assert n.cof is Cofinality.OMEGA
    assert n.ims == Card.fin(1) and not n.maximal


def test_resolve_rejects_step_past_maximal():
    with pytest.raises(InvalidAddress):
        resolve(BINARY_W, [word("0", W), Child(1)])


def test_resolve_word_expansion_and_merging():
    a = resolve(BINARY_W, [word("01", 2), Child(0)])
    b = resolve(BINARY_W, [Child(0), Child(1), Child(0), Child(1), Child(0)])
    assert a.parts == b.parts and a.ht == nat(5)


def test_resolve_rejects_transfinite_multiletter_words():
    with pytest.raises(UnsupportedAddress):
        resolve(BINARY_W, [word("01", W)])


def test_resolve_graft_copies():
    n = resolve(REMARK_TREE, [up(W1), Copy(0, 3)])
    assert n.ht == o(W1, 1)
    assert n.cof is Cofinality.ZERO
    assert n.maximal
    with pytest.raises(InvalidAddress):
        resolve(REMARK_TREE, [up(2), Copy(0, 3)])  # not a maximal node of the base
    with pytest.raises(InvalidAddress):
        resolve(graft(seg(0), (seg(0), 2)), [Copy(0, 5)])  # index out of range


def test_resolve_graft_boundary_ims():
    top = resolve(REMARK_TREE, [up(W1)])
    assert top.ims == CARD_OMEGA and not top.maximal
    root = resolve(graft(seg(0), (seg(0), CARD_OMEGA1)), [])
    assert root.ims == CARD_OMEGA1


# -- order: leq / meet ------------------------------------------------------------

def test_leq_examples():
    root = ()
    assert leq(BINARY_W1, root, [word("0", W), Child(1)])
    assert leq(BINARY_W, [word("0", 3)], [word("0", W)])
    assert not leq(BINARY_W, [word("0", 2), Child(1)], [word("0", W)])


def test_meet_examples():
    m = meet(BINARY_W, [word("0", W)], [word("0", 3), Child(1)])
    assert m.ht == nat(3)
    a = resolve(BINARY_W, [word("0", 4)])
    assert meet(BINARY_W, a, a) == a
    m2 = meet(BINARY_W1, [word("0", W1)], [word("0", W), Child(1)])
    assert m2.ht == W
    assert m2.parts == resolve(BINARY_W1, [word("0", W)]).parts


def test_meet_against_segmentwise_oracle():
    # independent check: truncate both addresses level by level with cmp/left_sub
    d = BINARY_W1
    a = resolve(d, [word("0", W), Child(1), word("1", 3)])
    b = resolve(d, [word("0", W), Child(1), word("1", W)])
    m = meet(d, a, b)
    lo = m.ht
    assert leq(d, m, a) and leq(d, m, b)
    probe = add(lo, ONE)
    if cmp(probe, a.ht) <= 0 and cmp(probe, b.ht) <= 0:
        pa = ancestor_at(d, a, probe)
        pb = ancestor_at(d, b, probe)
        assert pa.parts != pb.parts


def _random_node(d, rng):
    nodes = sample_nodes(d, rng, count=8)
    return rng.choice(nodes)


def test_meet_is_greatest_lower_bound_on_random_triples():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        a, b, c = (_random_node(d, rng) for _ in range(3))
        m = meet(d, a, b)
        assert leq(d, m, a) and leq(d, m, b)
        if leq(d, c, a) and leq(d, c, b):
            assert leq(d, c, m)
        checked += 1


def test_leq_antisymmetry_and_ht_monotone():
    rng = random.Random(13)
    for _ in range(100):
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        a, b = (_random_node(d, rng) for _ in range(2))
        if leq(d, a, b) and leq(d, b, a):
            assert a.parts == b.parts
        if leq(d, a, b) and a.parts != b.parts:
            assert cmp(a.ht, b.ht) < 0
        m = meet(d, a, b)
        assert cmp(m.ht, a.ht) <= 0 and cmp(m.ht, b.ht) <= 0


def _binary_path_nodes():
    from hypothesis import strategies as st

    @st.composite
    def paths(draw):
        steps = []
        for _ in range(draw(st.integers(0, 3))):
            letter = draw(st.integers(0, 1))
            count = draw(st.sampled_from([o(1), o(3), W, o(W, 2)]))
            steps.append(word((letter,), count))
        return tuple(steps)

    return paths()


def test_meet_laws_by_hypothesis():
    from hypothesis import given, settings

    d = full(2, o(W1, 1))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_binary_path_nodes(), _binary_path_nodes(), _binary_path_nodes())
    def run(pa, pb, pc):
        try:
            a, b, c = resolve(d, pa), resolve(d, pb), resolve(d, pc)
        except Exception:
            return
        m = meet(d, a, b)
        assert m.parts == meet(d, b, a).parts
        assert meet(d, a, a).parts == a.parts
        left = meet(d, meet(d, a, b), c)
        right = meet(d, a, meet(d, b, c))
        assert left.parts == right.parts

    run()


def test_full_ims_card_property():
    for k, h in [(2, o(W, 1)), (3, o(5)), ("w", o(W1, 1))]:
        d = full(k, h)
        rng = random.Random(3)
        for n in sample_nodes(d, rng, 6):
            if add(n.ht, ONE) == height(d):
                assert n.ims.is_zero
            else:
                want = CARD_OMEGA if k == "w" else Card.fin(k)
                assert n.ims == want


# -- navigation helpers -----------------------------------------------------------

def test_ancestor_at_truncates_runs():
    d = BINARY_W1
    n = resolve(d, [word("0", W), Child(1), word("0", 2)])
    anc = ancestor_at(d, n, o(W, 1))
    assert anc.parts == resolve(d, [word("0", W), Child(1)]).parts
    anc2 = ancestor_at(d, n, o(3))
    assert anc2.parts == resolve(d, [word("0", 3)]).parts


def test_child_toward():
    d = BINARY_W1
    x = resolve(d, [word("0", 2)])
    y = resolve(d, [word("0", W), Child(1)])
    c = child_toward(d, x, y)
    assert c.parts == resolve(d, [word("0", 3)]).parts


def test_cofinal_I_nodes():
    d = seg(W2)
    n = resolve(d, [up(W2)])
    seqs = cofinal_I_nodes(d, n, 5)
    for a, b in zip(seqs, seqs[1:]):
        assert cmp(a.ht, b.ht) < 0
        assert a.cof is Cofinality.ZERO
    assert all(cmp(s.ht, W2) < 0 for s in seqs)


def test_children_enumeration_orders():
    kids = children(FAN_OMEGA, resolve(FAN_OMEGA, []), 4)
    assert [k.parts[-1] for k in kids] == [("copy", 0, i) for i in range(4)]
    kids2 = children(BINARY_W, resolve(BINARY_W, [Child(1)]), 4)
    assert len(kids2) == 2


# -- uncountable-cofinality sites --------------------------------------------------

def test_unc_sites_binary():
    sites = unc_sites(BINARY_W1)
    assert len(sites) == 1
    s = sites[0]
    assert s.ht == W1 and s.ims.is_zero and s.maximal


def test_unc_sites_remark_tree():
    sites = unc_sites(REMARK_TREE)
    assert len(sites) == 1
    assert sites[0].ims == CARD_OMEGA and not sites[0].maximal


def test_unc_sites_long_chain():
    sites = unc_sites(seg(o(times_nat(W1, 2), 3)))
    assert sorted(str(s.ht) for s in sites) == ["w1", "w1*2"]
    assert all(s.ims == Card.fin(1) for s in sites)


def test_sites_are_the_nodes_at_their_parts():
    captop_tree = HatOf(TildeOf(BINARY_W1))  # its gap's completion is a site
    hat_child = graft(seg(W1), (HatOf(BINARY_W1), 2))
    trees = [captop_tree, hat_child]
    rng = random.Random(8)
    while len(trees) < 80:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        trees.append(d)
    for d in trees:
        for s in unc_sites(d):
            assert isinstance(s, Node), d
            n = node_at(d, s.parts)
            assert (s.parts, s.ht, s.cof, s.ims, s.maximal, s.tag) == \
                (n.parts, n.ht, n.cof, n.ims, n.maximal, n.tag), d
    assert [s.tag for s in unc_sites(captop_tree)] == ["captop"]
    assert unc_sites(hat_child)[-1].parts[-1] == ("below",)  # the child's split point


# -- memoized view facts ------------------------------------------------------------

_FACTS = ("height", "unc_sites", "maximal_heights", "gaps")


def _levels(v):
    """The heights w1*j at which a view states its sites."""
    return [Ordinal(j, ()) for j in range(1, v.height().omega1 + 1)]


def test_view_facts_are_computed_once():
    trees = fact_trees()
    view.cache_clear()
    cold = {}
    for d in trees:
        v = view(d)
        cold[d] = (v.height(), list(v.unc_sites()), set(v.maximal_heights()),
                   list(v.gaps()), [list(v.sites_at_height(h)) for h in _levels(v)])
    for d in trees:
        classify_report(d)
        roundtrip_check(d)
    for d in trees:
        v = view(d)
        h, sites, tops, gaps = (getattr(v, f)() for f in _FACTS)
        per_level = [v.sites_at_height(lv) for lv in _levels(v)]
        assert (h, list(sites), set(tops), list(gaps),
                [list(p) for p in per_level]) == cold[d], d
        assert isinstance(sites, tuple) and isinstance(gaps, tuple), d
        assert isinstance(tops, frozenset), d
        assert all(isinstance(p, tuple) for p in per_level), d
        for f in _FACTS:
            assert getattr(v, f)() is getattr(v, f)(), (f, d)
        for lv, p in zip(_levels(v), per_level):
            assert v.sites_at_height(lv) is p, (lv, d)


def test_leftmost_top_is_computed_once():
    trees = fact_trees()
    view.cache_clear()
    cold = {}
    for d in trees:
        try:
            cold[d] = _shape(view(d).leftmost_top())
        except InvalidAddress:
            continue
    assert len(cold) > len(trees) // 2
    for d in trees:
        classify_report(d)
        roundtrip_check(d)
    for d, shape in cold.items():
        v = view(d)
        assert _shape(v.leftmost_top()) == shape, d
        assert v.leftmost_top() is v.leftmost_top(), d


# -- sites and heights derived per level ---------------------------------------------
# Reference copies of the per-class rules that ``_View.unc_sites`` and
# ``_View.height`` replaced: each view listed its own sites, and the hat and
# tilde views restated their heights.

def _ref_unc_sites(v):
    if isinstance(v, trees._SegView):
        return [v._node(Ordinal(j, ())) for j in range(1, v.eta.omega1 + 1)]
    if isinstance(v, trees._FullView):
        return [v._node([(0, Ordinal(j, ()))]) for j in range(1, v.top.omega1 + 1)
                if cmp(Ordinal(j, ()), v.top) <= 0]
    if isinstance(v, trees._GraftView):
        out = [v._wrap_base(s) for s in _ref_unc_sites(v.base)]
        bnode = v.base.leftmost_top()
        for slot, (child, _) in enumerate(v.slots):
            out.extend(v._wrap_child(bnode, slot, 0, s) for s in _ref_unc_sites(child))
        return out
    if isinstance(v, trees._HatView):
        return [v._spoint(s) for s in _ref_unc_sites(v.inner)] + \
            [v.walk(parts_to_steps(g.parts), 0)[0] for g in v.inner.gaps()]
    out = []
    for j in range(1, v.inner.height().omega1 + 1):
        h = Ordinal(j, ONE.terms)  # w1*j + 1: these drop onto the removed level
        out.extend(v._remap(s) for s in v.inner.sites_at_height(h))
    return out


def _ref_height(v):
    best = ONE
    if isinstance(v, trees._HatView):
        for mh in v.inner.maximal_heights():
            cand = add(hat_shift(mh), ONE)
            if cmp(cand, best) > 0:
                best = cand
        for g in v.inner.gaps():
            cand = add(g.ht, ONE)  # the completion point is a real node
            if cmp(cand, best) > 0:
                best = cand
        return best
    for mh in v.inner.maximal_heights():
        if mh.cof() is Cofinality.OMEGA1:
            if cmp(mh, best) > 0:
                best = mh  # the branch survives cofinally, its sup does not
        else:
            cand = add(tilde_shift(mh), ONE)
            if cmp(cand, best) > 0:
                best = cand
    for g in v.inner.gaps():
        if cmp(g.ht, best) > 0:
            best = g.ht
    return best


def _subviews(v):
    yield v
    if isinstance(v, trees._GraftView):
        for w in [v.base] + [child for child, _ in v.slots]:
            yield from _subviews(w)
    elif isinstance(v, (trees._HatView, trees._TildeView)):
        yield from _subviews(v.inner)


_BY_LEVEL = functools.cmp_to_key(lambda a, b: cmp(a.ht, b.ht))


def test_sites_and_heights_are_derived_per_level():
    rng = random.Random(53)
    trees_ = walk_trees()
    drawn = 0
    while drawn < 300:
        d = random_description(rng)
        try:
            validate(d)
        except (BadGraftBase, NotChainComplete):
            continue
        trees_.append(d)
        drawn += 1
    derived = trees._View.height.__wrapped__  # the general rule, unmemoized
    seen = 0
    for d in trees_:
        for v in _subviews(view(d)):
            h = v.height()
            assert cmp(derived(v), h) == 0, (v.desc, d)
            if isinstance(v, (trees._HatView, trees._TildeView)):
                assert cmp(_ref_height(v), h) == 0, (v.desc, d)
            sites = list(v.unc_sites())
            assert _shape(tuple(sites)) == _shape(tuple(sorted(sites, key=_BY_LEVEL))), v.desc
            ref = sorted(_ref_unc_sites(v), key=_BY_LEVEL)
            assert _shape(tuple(sites)) == _shape(tuple(ref)), (v.desc, d)
            seen += 1
    assert seen > 1000


# -- memoized walks and children ---------------------------------------------------

def _shape(x):
    """Everything a node records, down its whole ``inner`` chain."""
    if isinstance(x, Node):
        return (x.parts, x.ht, x.cof, x.ims, x.maximal, x.tag, _shape(x.inner))
    if isinstance(x, tuple):
        return tuple(_shape(y) for y in x)
    return x


def _panel(d):
    """The addresses of the round trip's spot panel of d."""
    return [n.address() for n in _spot_nodes(d)]


def _depth_six_panel(d):
    """The spot panel's addresses as the panel once built them: a walk to
    depth 6 whose first six nodes were kept."""
    out = [()]
    try:
        out.append(view(d).leftmost_top().address())
    except WedgeTreeError:
        pass
    out.extend(s.address() for s in unc_sites(d))
    try:
        walked, frontier = [], [resolve(d, ())]
        for _ in range(6):
            nxt = []
            for n in frontier:
                for c in children(d, n, 2):
                    walked.append(c)
                    nxt.append(c)
            frontier = nxt[:3]
        out.extend(n.address() for n in walked[:6])
    except WedgeTreeError:
        pass
    return list(dict.fromkeys(out))


def test_spot_panel_agrees_with_the_depth_six_walk():
    rng = random.Random(31)
    trees_ = walk_trees()
    drawn = 0
    while drawn < 300:
        d = random_description(rng)
        try:
            validate(d)
        except (BadGraftBase, NotChainComplete):
            continue
        trees_.append(d)
        drawn += 1
    for d in trees_:
        nodes = _spot_nodes(d)
        assert [n.address() for n in nodes] == _depth_six_panel(d), d
        for n in nodes:
            # each panel node is the node its own address resolves to
            assert _shape(resolve(d, n.address())) == _shape(n), (d, n)


def test_memoized_walks_and_children_agree_with_cold_ones():
    for d in walk_trees():
        addrs = _panel(d)
        view.cache_clear()
        cold = []
        for a in addrs:
            n = resolve(d, a)
            kids = [_shape(c) for c in children(d, n, 2)]
            assert [_shape(c) for c in children(d, n, 1)] == kids[:1], (d, a)
            cold.append((_shape(n), kids))
        classify_report(d)
        roundtrip_check(d)
        for a, (node, kids) in zip(addrs, cold):
            n = resolve(d, a)
            assert _shape(n) == node, (d, a)
            assert [_shape(c) for c in children(d, n, 2)] == kids, (d, a)
            assert [_shape(c) for c in children(d, n, 1)] == kids[:1], (d, a)


def test_a_resolved_node_is_shared():
    for d in walk_trees():
        for a in _panel(d):
            assert resolve(d, a) is resolve(d, a), (d, a)


def test_children_returns_a_new_list():
    for d in walk_trees():
        root = resolve(d, ())
        kids = children(d, root, 2)
        again = [_shape(c) for c in kids]
        kids.append(root)
        kids[0] = root
        assert [_shape(c) for c in children(d, root, 2)] == again, d
        assert children(d, root, 2) is not children(d, root, 2)


def test_an_invalid_address_raises_on_every_call():
    captop_tree = HatOf(TildeOf(BINARY_W1))
    cases = [
        (TildeOf(BINARY_W1), [word("0", W1)]),         # gap: a removed branch top
        (TildeOf(BINARY_W1), [word("0", W1), Child(0)]),
        (HatOf(BINARY_W), [word("0", W), Below()]),    # no split point below
        (seg(W1), [up(o(W1, 1))]),                     # past the top
        (graft(seg(W1), (captop_tree, 2)), [up(W1), Copy(0, 2)]),
        (captop_tree, [word("0", W1), Child(0)]),      # above a completion point
    ]
    first = None
    for _ in range(3):
        for d, a in cases:
            with pytest.raises(InvalidAddress):
                resolve(d, a)
        # the hat over the tilde catches the tilde's gap and fills it, on
        # every call, while the tilde itself keeps raising
        cap = resolve(captop_tree, [word("0", W1)])
        assert cap.tag == "captop"
        first = first or _shape(cap)
        assert _shape(cap) == first
        with pytest.raises(GapAddress):
            resolve(TildeOf(BINARY_W1), [word("0", W1)])


# -- memoized ancestors ------------------------------------------------------------

_ANCESTOR_HEIGHTS = (ZERO, ONE, nat(2), W, o(W, 1), W1, o(W1, 1))


def _ancestor_cases(d):
    """(address, height) for every spot address and every height of
    ``_ANCESTOR_HEIGHTS`` at most the node's height."""
    return [(a, h) for a in _panel(d)
            for h in _ANCESTOR_HEIGHTS if cmp(h, resolve(d, a).ht) <= 0]


def test_memoized_ancestors_agree_with_cold_ones():
    families = 0
    for d in walk_trees():
        cases = _ancestor_cases(d)
        view.cache_clear()
        cold = []
        for a, h in cases:
            n = resolve(d, a)
            anc = ancestor_at(d, n, h)
            assert anc.ht == h and leq(d, anc, n), (d, a, h)
            cold.append(_shape(anc))
        classify_report(d)
        roundtrip_check(d)
        if cmp(height(d), o(W1, 1)) <= 0:
            # its checks find cone bases as ancestors at fixed heights
            fam = build_separating_family(d, ConeSet(()))
            assert fam.verify(), d
            families += 1
        for (a, h), anc in zip(cases, cold):
            n = resolve(d, a)
            assert _shape(ancestor_at(d, n, h)) == anc, (d, a, h)
            assert _shape(ancestor_at(d, a, h)) == anc, (d, a, h)
    assert families > 10


def test_an_ancestor_above_the_node_raises_on_every_call():
    cases = [
        (seg(W1), [up(W)], o(W, 1)),
        (BINARY_W1, [word("0", W)], W1),
        (BINARY_W1, [Child(1)], nat(2)),
        (graft(seg(W1), (HatOf(BINARY_W1), 2)), [up(W1), Copy(0, 1)], o(W1, 2)),
        (HatOf(TildeOf(BINARY_W1)), [word("0", W1)], o(W1, 1)),
    ]
    for d, a, h in cases:
        n = resolve(d, a)
        # a view answers any height it is asked for; only ``ancestor_at``
        # knows that this one lies above the node, memo entry or not
        if isinstance(d, (Seg, Full)):
            view(d).ancestor_at(n, h)
        for _ in range(2):
            with pytest.raises(InvalidAddress):
                ancestor_at(d, n, h)
        assert ancestor_at(d, n, n.ht) is n


def test_each_ancestor_is_found_once_per_view(monkeypatch):
    found = {}
    for cls in trees._View.__subclasses__():
        def counted(self, node, h, _inner=cls._ancestor_at):
            out = _inner(self, node, h)
            key = (self, node.parts, h)
            found[key] = found.get(key, 0) + 1
            return out
        monkeypatch.setattr(cls, "_ancestor_at", counted)
    for d in walk_trees():
        cases = _ancestor_cases(d)
        view.cache_clear()
        for _ in range(2):
            for a, h in cases:
                ancestor_at(d, a, h)
            classify_report(d)
    assert found and set(found.values()) == {1}, \
        [k for k, c in found.items() if c > 1][:3]


# -- memoized tree order -------------------------------------------------------------

def _order_pools():
    """(tree, parts) for corpus trees and the nested hat/tilde trees: the
    parts of sampled nodes and of the sites, which carry below-markers."""
    rng = random.Random(17)
    descs = []
    while len(descs) < 20:
        d = random_description(rng)
        try:
            validate(d)
        except (BadGraftBase, NotChainComplete):
            continue
        descs.append(d)
    pools = []
    for d in descs + walk_trees():
        nodes = sample_nodes(d, random.Random(len(pools)), 8) + list(unc_sites(d))
        pools.append((d, sorted({n.parts for n in nodes}, key=repr)))
    return pools


def test_memoized_order_agrees_with_the_plain_one():
    from hypothesis import given, settings, strategies as st

    pools = _order_pools()
    assert any(p and p[-1][0] == "below" for _, parts in pools for p in parts)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(pools), st.data())
    def run(pool, data):
        d, parts = pool
        a = data.draw(st.sampled_from(parts))
        b = data.draw(st.sampled_from(parts))
        for x, y in ((a, b), (b, a), (a, a)):
            want = trees.leq_parts.__wrapped__(x, y)
            assert trees.leq_parts(x, y) is want, (d, x, y)
            assert trees.leq_parts(x, y) is want, (d, x, y)

    run()


# -- hat / tilde views -------------------------------------------------------------

def test_hat_inserts_point_below_uncountable_node():
    d = HatOf(seg(W1))
    assert height(d) == o(W1, 2)
    s = resolve(d, [up(W1), Below()])
    assert s.ht == W1 and s.cof is Cofinality.OMEGA1
    assert s.ims == Card.fin(1) and not s.maximal
    t = resolve(d, [up(W1)])
    assert t.ht == o(W1, 1) and t.cof is Cofinality.ZERO
    kids = children(d, s, 3)
    assert len(kids) == 1 and kids[0].parts == t.parts


def test_hat_no_op_heights_below_w1():
    d = HatOf(BINARY_W)
    assert height(d) == o(W, 1)
    n = resolve(d, [word("0", W)])
    assert n.ht == W and n.maximal
    with pytest.raises(InvalidAddress):
        resolve(d, [word("0", W), Below()])


def test_tilde_removes_uncountable_levels():
    d = TildeOf(BINARY_W1)
    assert height(d) == W1
    with pytest.raises(InvalidAddress):
        resolve(d, [word("0", W1)])
    n = resolve(d, [word("0", W), Child(1)])
    assert n.ht == o(W, 1)


def test_tilde_reborn_node_has_uncountable_cofinality():
    d = TildeOf(seg(o(W1, 5)))
    n = resolve(d, [up(o(W1, 1))])
    assert n.ht == W1 and n.cof is Cofinality.OMEGA1
    assert height(d) == o(W1, 5)


def test_hat_of_tilde_restores_branch_tops():
    d = HatOf(TildeOf(BINARY_W1))
    cap = resolve(d, [word("0", W1)])
    assert cap.ht == W1 and cap.maximal and cap.ims.is_zero
    assert height(d) == o(W1, 1)
    anc = ancestor_at(d, cap, o(W, 1))
    assert anc.parts == resolve(d, [word("0", W), Child(0)]).parts


def test_tilde_of_hat_drops_exactly_inserted_points():
    d = TildeOf(HatOf(BINARY_W1))
    assert height(d) == o(W1, 1)
    top = resolve(d, [word("0", W1)])
    assert top.ht == W1 and top.maximal
    with pytest.raises(InvalidAddress):
        resolve(d, [word("0", W1), Below()])


def test_nested_hat_spoints():
    d = HatOf(HatOf(seg(W1)))
    s2 = resolve(d, [up(W1), Below(), Below()])
    assert s2.ht == W1 and s2.ims == Card.fin(1)
    s1 = resolve(d, [up(W1), Below()])
    assert s1.ht == o(W1, 1)
    assert leq(d, s2, s1) and not leq(d, s1, s2)
    m = meet(d, s2, resolve(d, [up(W1)]))
    assert m.parts == s2.parts
