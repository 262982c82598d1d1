import random
from collections import Counter

import pytest

from wedgetree.errors import (
    ChoiceUnavailable, InvalidAddress, NotClosed, NotInClosure,
    PreconditionFailed, SupNotRepresentable, UndecidableTailPattern,
)
from wedgetree.ordinals import ONE, add, cmp, times_nat
from wedgetree.trees import (
    CARD_OMEGA, Card, Child, Copy, Full, Graft, HatOf, Node, TildeOf, Word,
    height, resolve, validate,
)
from wedgetree.topology import (
    Branch, ClubFamily, Explicit, OmegaFamily, Param, UnionSpec,
)
from wedgetree.constructions import (
    disjoint_closures, hat, is_r1_tree, iso_check, normalize, roundtrip_check,
    tilde,
)
from wedgetree.corpus import random_description

from helpers import (
    BINARY_W, BINARY_W1, REMARK_TREE, W, W1, full, graft, o, seg, up, word,
)


def tpl_0n1():
    return (Word((0,), Param()), Child(1))


# -- hat -----------------------------------------------------------------------

def test_hat_segment_is_longer_segment():
    d, m = hat(seg(W1))
    assert iso_check(d, seg(o(W1, 1)))
    assert normalize(d) == seg(o(W1, 1))
    s = m.describe(m.s_of((up(W1),)))
    assert s.ims == Card.fin(1)


def test_hat_countable_tree_unchanged():
    d, _ = hat(BINARY_W)
    assert normalize(d) == BINARY_W
    assert iso_check(d, BINARY_W)


def test_hat_binary_w1_splits_top_level():
    d, m = hat(BINARY_W1)
    assert height(d) == o(W1, 2)
    s = m.describe(m.s_of((word("0", W1),)))
    assert s.ht == W1 and s.ims == Card.fin(1)
    top = resolve(d, [word("0", W1)])
    assert top.ht == o(W1, 1) and top.maximal
    below = resolve(d, [word("0", W), Child(1)])
    assert below.ims == Card.fin(2)
    assert m.forward((word("0", 3),)) == (word("0", 3),)


def test_hat_map_rejects_countable_cofinality():
    _, m = hat(BINARY_W1)
    with pytest.raises(PreconditionFailed):
        m.s_of((word("0", W),))


# -- tilde ---------------------------------------------------------------------

def test_tilde_examples():
    assert height(tilde(BINARY_W1)) == W1
    assert normalize(tilde(BINARY_W)) == BINARY_W
    t = tilde(hat(BINARY_W1)[0])
    assert normalize(t) == BINARY_W1
    assert iso_check(t, BINARY_W1)


def test_tilde_non_r1_is_flagged_not_chain_complete():
    from wedgetree.trees import is_chain_complete
    assert not is_chain_complete(tilde(REMARK_TREE))
    # removing a maximal level leaves the branch below it supremum-free
    assert not is_chain_complete(tilde(seg(W1)))
    # a successor above the uncountable level drops down and keeps completeness
    assert is_chain_complete(tilde(seg(o(W1, 1))))


# -- r flags and round trips ------------------------------------------------------

def test_is_r1_examples():
    assert is_r1_tree(BINARY_W1)
    assert is_r1_tree(seg(o(W1, W)))
    assert not is_r1_tree(REMARK_TREE)


def test_roundtrip_binary():
    rt = roundtrip_check(BINARY_W1)
    assert rt.tilde_hat_ok and rt.hat_tilde_ok and rt.is_r1


def test_roundtrip_remark_tree():
    rt = roundtrip_check(REMARK_TREE)
    assert rt.tilde_hat_ok and rt.hat_tilde_ok == rt.is_r1 and not rt.is_r1


def test_roundtrip_countable():
    rt = roundtrip_check(seg(W))
    assert rt.tilde_hat_ok and rt.hat_tilde_ok


def test_roundtrip_chain_with_successor_after_limit():
    rt = roundtrip_check(seg(o(W1, 1)))
    assert rt.tilde_hat_ok and rt.hat_tilde_ok and rt.is_r1


def test_roundtrip_check_propagates_programming_errors(monkeypatch):
    # only library errors count as a failed spot check; a bug must surface
    import wedgetree.constructions as constructions
    real_resolve = constructions.resolve

    def broken(desc, steps):
        if isinstance(desc, (HatOf, TildeOf)):
            raise TypeError("simulated bug")
        return real_resolve(desc, steps)

    monkeypatch.setattr(constructions, "resolve", broken)
    with pytest.raises(TypeError):
        roundtrip_check(full(2, o(W1, 1)))


def test_roundtrip_check_builds_each_spot_panel_once(monkeypatch):
    import wedgetree.constructions as constructions
    real = constructions._spot_nodes
    seen = []

    def counted(d):
        seen.append(d)
        return real(d)

    monkeypatch.setattr(constructions, "_spot_nodes", counted)
    rt = roundtrip_check(BINARY_W1)
    assert rt.tilde_hat_ok and rt.hat_tilde_ok == rt.is_r1
    assert len(seen) == 2 and set(seen) == {BINARY_W1, TildeOf(HatOf(BINARY_W1))}


def test_roundtrip_check_resolves_each_panel_on_the_other_tree(monkeypatch):
    # a panel carries its nodes, so its addresses are resolved only on the
    # tree it is compared with, once each, and never on its own tree
    import wedgetree.constructions as constructions
    th = TildeOf(HatOf(BINARY_W1))
    panel = {t: Counter(n.address() for n in constructions._spot_nodes(t))
             for t in (BINARY_W1, th)}
    real = constructions.resolve
    calls = []

    def counted(desc, steps):
        calls.append((desc, tuple(steps)))
        return real(desc, steps)

    monkeypatch.setattr(constructions, "resolve", counted)
    rt = roundtrip_check(BINARY_W1)
    assert rt.tilde_hat_ok and rt.hat_tilde_ok == rt.is_r1
    assert Counter(a for t, a in calls if t == BINARY_W1) == panel[th]
    assert Counter(a for t, a in calls if t == th) == panel[BINARY_W1]


def test_roundtrip_check_builds_each_panel_address_once(monkeypatch):
    # the panel of d carries its addresses to the spot check on tilde(hat(d))
    # and to the translation onto hat(tilde(d)), so no panel node of d has
    # its address built twice, not even as the one child of a site
    import wedgetree.constructions as constructions
    real = Node.address
    built = Counter()

    def counted(node):
        built[node.desc, node.parts] += 1
        return real(node)

    rng = random.Random(41)
    trees = [BINARY_W1, seg(o(W1, 1)), REMARK_TREE, graft(seg(W1), (HatOf(BINARY_W1), 2))]
    while len(trees) < 30:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        trees.append(d)
    for d in trees:
        panel = constructions._spot_nodes(d)
        built.clear()
        monkeypatch.setattr(Node, "address", counted)
        roundtrip_check(d)
        monkeypatch.undo()
        assert [built[d, n.parts] for n in panel] == [1] * len(panel), d


def test_hat_output_is_always_r1():
    rng = random.Random(23)
    seen = 0
    while seen < 25:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        h, _ = hat(d)
        assert is_r1_tree(h), d
        seen += 1


def test_height_bookkeeping_of_hat():
    # the height bumps exactly when the old top level sits finitely far
    # above an uncountable-cofinality level
    cases = [
        (BINARY_W1, True),
        (seg(W1), True),
        (REMARK_TREE, True),
        (BINARY_W, False),
        (graft(seg(W1), (seg(W), 1)), False),
        (seg(o(W1, W)), False),
    ]
    for d, bumps in cases:
        h, _ = hat(d)
        want = add(height(d), ONE) if bumps else height(d)
        assert cmp(height(h), want) == 0, d


# -- disjoint closures --------------------------------------------------------------

def test_disjoint_cones_stay_disjoint():
    A = Explicit(((Child(0), Child(1)), (Child(0), Child(1), Child(0))))
    B = Explicit(((Child(0), Child(0), Child(1)),))
    v = disjoint_closures(BINARY_W1, A, B)
    assert v.kind == "disjoint"


def test_not_closed_flagged_with_escaping_sequence():
    A = OmegaFamily(tpl_0n1())
    B = Explicit(((Child(1),),))
    with pytest.raises(NotClosed) as ei:
        disjoint_closures(BINARY_W1, A, B)
    assert ei.value.which == "A"
    seq, limit = ei.value.witness
    assert resolve(BINARY_W1, limit).ht == W


def test_closed_pair_with_limits_included():
    A = UnionSpec((OmegaFamily(tpl_0n1()),
                   Explicit(((word("0", W),),))))
    B = UnionSpec((OmegaFamily((Word((0,), Param(W, ONE)), Child(1))),
                   Explicit(((word("0", times_nat(W, 2)),),))))
    v = disjoint_closures(BINARY_W1, A, B)
    assert v.kind == "disjoint"


def test_branches_accumulate_at_split_points_but_stay_disjoint():
    A = Branch((word("0", W1),))
    B = Explicit(((Child(1),), (Child(1), Child(0))))
    v = disjoint_closures(BINARY_W1, A, B)
    assert v.kind == "disjoint"
    assert v.accumulation_a  # the branch reaches the split point below its top


def test_closedness_is_undecidable_only_when_extraction_fails(monkeypatch):
    # an escaping sequence that cannot be built leaves closedness undecided;
    # any other error, a library one included, is a bug and surfaces
    import wedgetree.constructions as constructions
    A = OmegaFamily(tpl_0n1())
    B = Explicit(((Child(1),),))

    def patch(exc):
        def failing(d, spec, x):
            raise exc("simulated")
        monkeypatch.setattr(constructions, "fu_extract", failing)

    for exc in (ChoiceUnavailable, InvalidAddress, NotInClosure,
                SupNotRepresentable, UndecidableTailPattern):
        patch(exc)
        with pytest.raises(UndecidableTailPattern, match="cannot certify") as ei:
            disjoint_closures(BINARY_W1, A, B)
        assert isinstance(ei.value.__cause__, exc)
    for exc in (PreconditionFailed, TypeError):
        patch(exc)
        with pytest.raises(exc, match="simulated"):
            disjoint_closures(BINARY_W1, A, B)


def test_club_without_top_is_closed_and_disjoint_from_top():
    # all predecessors of the top, as a club family, plus the isolated point 1
    A = ClubFamily((word("0", W1),), (Word((0,), Param()),))
    B = Explicit(((word("0", W1),),))
    v = disjoint_closures(BINARY_W1, A, B)
    assert v.kind == "disjoint"
    assert v.accumulation_a  # the family marches up to the split point


def test_club_with_trailing_step_is_not_closed():
    A = ClubFamily((word("0", W1),), tpl_0n1())
    B = Explicit(((Child(1),),))
    with pytest.raises(NotClosed):
        disjoint_closures(BINARY_W1, A, B)


def test_overlapping_sets_rejected():
    A = Explicit(((Child(0),),))
    B = Explicit(((Child(0),), (Child(1),)))
    with pytest.raises(PreconditionFailed):
        disjoint_closures(BINARY_W1, A, B)


def test_copy_family_missing_its_parent_is_not_closed():
    from wedgetree.trees import Copy, validate
    d = graft(seg(1), (seg(0), CARD_OMEGA))
    validate(d)
    A = OmegaFamily((up(1), Copy(0, Param())))  # the fan, parent excluded
    B = Explicit(((),))                         # the root
    with pytest.raises(NotClosed) as ei:
        disjoint_closures(d, A, B)
    _, limit = ei.value.witness
    from wedgetree.trees import resolve
    assert resolve(d, limit).ht == o(1)         # the fan's parent


# -- normalization ---------------------------------------------------------------

def test_normalize_rules():
    assert normalize(Full(1, o(W, 1))) == seg(W)
    assert normalize(graft(seg(2), (seg(3), 1))) == seg(6)
    assert normalize(Graft(seg(2), ())) == seg(2)
    assert normalize(TildeOf(HatOf(REMARK_TREE))) == REMARK_TREE
    assert normalize(TildeOf(seg(o(W1, 1)))) == seg(W1)
    assert normalize(HatOf(seg(o(W1, W)))) == seg(o(W1, W))
