import random

import pytest

from wedgetree.errors import BadGraftBase, InvalidAddress, NotChainComplete, UnsupportedAddress
from wedgetree.ordinals import OMEGA, OMEGA1, ONE, ZERO, Cofinality, add, cmp, nat, times_nat
from wedgetree.trees import (
    Below, CARD_OMEGA, CARD_OMEGA1, Card, Child, Copy, Full, Graft, HatOf,
    Node, Seg, TildeOf, Up, Word, ancestor_at, child_toward, children,
    cofinal_I_nodes, height, is_chain_complete, leq, meet, node_at, resolve,
    unc_sites, validate, view,
)
from wedgetree.classify import classify_report
from wedgetree.constructions import roundtrip_check
from wedgetree.corpus import random_description, sample_nodes

from helpers import (
    BINARY_W, BINARY_W1, FAN_OMEGA, REMARK_TREE, W, W1, W2, full, graft, o,
    seg, up, word,
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


def _fact_trees():
    trees = [
        HatOf(TildeOf(BINARY_W1)),
        TildeOf(HatOf(BINARY_W1)),
        graft(HatOf(seg(W1)), (seg(2), 2)),               # grafts over hat bases
        graft(HatOf(BINARY_W1), (seg(1), 2)),
        graft(seg(W1), (HatOf(BINARY_W1), 2), (TildeOf(HatOf(seg(o(W1, 3)))), 1)),
    ]
    rng = random.Random(12)
    while len(trees) < 60:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        trees.append(d)
    return trees


def test_view_facts_are_computed_once():
    trees = _fact_trees()
    view.cache_clear()
    cold = {}
    for d in trees:
        v = view(d)
        cold[d] = (v.height(), list(v.unc_sites()), set(v.maximal_heights()),
                   list(v.gaps()))
    for d in trees:
        classify_report(d)
        roundtrip_check(d)
    for d in trees:
        v = view(d)
        h, sites, tops, gaps = (getattr(v, f)() for f in _FACTS)
        assert (h, list(sites), set(tops), list(gaps)) == cold[d], d
        assert isinstance(sites, tuple) and isinstance(gaps, tuple), d
        assert isinstance(tops, frozenset), d
        for f in _FACTS:
            assert getattr(v, f)() is getattr(v, f)(), (f, d)


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
