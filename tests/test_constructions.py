import random
from collections import Counter

import pytest

from wedgetree.errors import (
    ChoiceUnavailable, InvalidAddress, NotClosed, NotInClosure,
    PreconditionFailed, SupNotRepresentable, UndecidableTailPattern,
)
from wedgetree.ordinals import ONE, add, cmp, times_nat
from wedgetree import trees
from wedgetree.trees import (
    CARD_OMEGA, Card, Child, Copy, Full, Graft, HatOf, Node, TildeOf, Word,
    height, resolve, validate,
)
from wedgetree.topology import (
    Branch, ClubFamily, ConeSet, Explicit, OmegaFamily, Param, UnionSpec,
)
from wedgetree.constructions import (
    _spot_nodes, disjoint_closures, hat, is_r1_tree, iso_check, normalize,
    r_flags, roundtrip_check, tilde,
)
from wedgetree.corpus import random_description
from wedgetree.dsl import parse_desc, read_sexpr

from helpers import (
    BINARY_W, BINARY_W1, OUTSIDE_THE_DOMAIN, REMARK_TREE, W, W1, full, graft,
    o, outcome, reference_normalize, reference_roundtrip, seg, up,
    valid_draws, walk_trees, word,
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


def test_roundtrip_check_resolves_only_the_panel_of_d(monkeypatch):
    # the panel of tilde(hat(d)) is matched to d's by parts, so only d's
    # panel is resolved, on tilde(hat(d)) once per address; nothing is
    # resolved on d, and no node of tilde(hat(d))'s panel gets an address
    import wedgetree.constructions as constructions
    real_resolve, real_address = constructions.resolve, Node.address
    for d in (BINARY_W1, REMARK_TREE, seg(o(W1, 1)),
              graft(seg(W1), (HatOf(BINARY_W1), 2))):
        th = TildeOf(HatOf(d))
        panel = Counter(n.address() for n in _spot_nodes(d))
        th_panel = _parts(th)
        calls, built = [], []

        def resolve(desc, steps):
            calls.append((desc, tuple(steps)))
            return real_resolve(desc, steps)

        def address(node):
            built.append((node.desc, node.parts))
            return real_address(node)

        monkeypatch.setattr(constructions, "resolve", resolve)
        monkeypatch.setattr(Node, "address", address)
        rt = roundtrip_check(d)
        monkeypatch.undo()
        assert rt.tilde_hat_ok, d
        assert not [a for t, a in calls if t == d], d
        assert Counter(a for t, a in calls if t == th) == panel, d
        assert not [p for t, p in built if t == th and p in th_panel], d


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


# -- the round trip against the three-panel reference ----------------------------

def _parts(d):
    return {n.parts for n in _spot_nodes(d)}


def test_roundtrip_check_agrees_with_the_three_panel_reference():
    # matching the tilde-hat panel to d's by parts answers as resolving both
    # panels did, and the two panels name the same parts
    draws = valid_draws(11, 2000)
    wrapped = [f(d) for d in draws[:400]
               for f in (lambda x: tilde(hat(x)[0]), lambda x: hat(x)[0], normalize)]
    for d in walk_trees() + draws + wrapped:
        assert roundtrip_check(d) == reference_roundtrip(d), d
        assert _parts(TildeOf(HatOf(d))) == _parts(d), d


def _clear_memos():
    for memo in (trees.view, trees.structure_ok, normalize):
        memo.cache_clear()


def _flagged_under(monkeypatch, cls, name, fault):
    """Indices of 300 valid seed-5 trees whose ``tilde_hat_ok`` is False with
    ``fault(method)`` in place of ``cls.name``: (the library's, the
    reference's).  Memoized views and answers are dropped before and after,
    so the fault reaches every view and leaves none behind."""
    draws = valid_draws(5, 300)
    monkeypatch.setattr(cls, name, fault(getattr(cls, name)))
    _clear_memos()
    try:
        lib = {i for i, d in enumerate(draws)
               if not roundtrip_check(d).tilde_hat_ok}
        ref = {i for i, d in enumerate(draws)
               if not reference_roundtrip(d).tilde_hat_ok}
    finally:
        monkeypatch.undo()
        _clear_memos()
    return lib, ref


def _with_ims(node, n):
    return Node(node.desc, node.parts, node.ht, node.cof, Card.fin(n),
                node.maximal, node.tag, node.inner)


def test_roundtrip_check_catches_a_tilde_remap_fault(monkeypatch):
    def fault(remap):
        def wrong(self, n):
            out = remap(self, n)
            return _with_ims(out, 7) if cmp(out.ht, W1) > 0 else out
        return wrong

    lib, ref = _flagged_under(monkeypatch, trees._TildeView, "_remap", fault)
    assert ref <= lib and len(lib) >= 135


def test_roundtrip_check_catches_a_segment_walk_fault(monkeypatch):
    # only the walk is wrong: sites, tops and children keep the true data
    def fault(walk):
        def wrong(self, steps, i):
            node, j = walk(self, steps, i)
            return (_with_ims(node, 5) if cmp(node.ht, W1) > 0 else node), j
        return wrong

    lib, ref = _flagged_under(monkeypatch, trees._SegView, "_walk", fault)
    assert ref <= lib and len(lib) >= 106


def test_roundtrip_check_catches_a_tilde_children_fault(monkeypatch):
    # only the children are wrong: walks resolve the true nodes, so this is
    # caught by the node data of the tilde-hat panel, which the walk builds
    def fault(kids):
        return lambda self, node, count: [
            _with_ims(c, 7) for c in kids(self, node, count)]

    lib, ref = _flagged_under(monkeypatch, trees._TildeView, "_children", fault)
    assert ref <= lib and len(lib) >= 288


def test_roundtrip_check_catches_a_hat_that_drops_children(monkeypatch):
    # the hat's images keep their data, so no resolved node differs; only
    # the panel of tilde(hat(d)), which the walk builds from children,
    # names other parts than d's
    def fault(kids):
        return lambda self, node, count: kids(self, node, count)[:1]

    lib, ref = _flagged_under(monkeypatch, trees._HatView, "_children", fault)
    assert ref <= lib and len(lib) >= 88


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
    import wedgetree.topology as topology
    A = OmegaFamily(tpl_0n1())
    B = Explicit(((Child(1),),))

    def patch(exc):
        def failing(d, spec, x):
            raise exc("simulated")
        monkeypatch.setattr(topology, "fu_extract", failing)

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
    # all predecessors of the top, as a club family, plus the top: a maximal
    # node, so the one-point set and its cone are the same set, which
    # accumulates at no split point
    A = ClubFamily((word("0", W1),), (Word((0,), Param()),))
    for B in (Explicit(((word("0", W1),),)), ConeSet((word("0", W1),))):
        v = disjoint_closures(BINARY_W1, A, B)
        assert v.kind == "disjoint", B
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


# -- answers kept per description ------------------------------------------------

def _answer(fn, d):
    """``("ok", fn(d))``, or the class and message of any exception it
    raises: the views of some trees outside the domain cannot be built."""
    try:
        return "ok", fn(d)
    except Exception as e:
        return type(e), str(e)


def _kept_questions(d):
    return [_answer(lambda x: trees.view(x).chain_complete(), d),
            _answer(r_flags, d), _answer(validate, d)]


def test_kept_answers_equal_fresh_ones(monkeypatch):
    """A view's chain completeness and ``r_flags``, both kept per
    description, equal the answers of a cold view after ``view`` and
    ``r_flags`` are cleared; a repeated ``validate`` asks no view for
    ``bounded_supless``; and a tree outside the domain raises the same error
    on every call.  On valid trees, the trees ``validate`` rejects, and
    tilde(hat(.)) and hat(tilde(.)) of each."""
    asked = []
    for cls in [c for c in vars(trees).values()
                if isinstance(c, type) and "bounded_supless" in vars(c)]:
        monkeypatch.setattr(cls, "bounded_supless",
                            lambda self, _f=vars(cls)["bounded_supless"]:
                            asked.append(self) or _f(self))
    base = walk_trees() + valid_draws(11, 300) + [
        parse_desc(read_sexpr(t)) for t in OUTSIDE_THE_DOMAIN]
    outside = 0
    for d in base + [w(x) for x in base for w in (
            lambda x: TildeOf(HatOf(x)), lambda x: HatOf(TildeOf(x)))]:
        first = _kept_questions(d)
        assert _kept_questions(d) == first, d
        before = len(asked)
        assert _answer(validate, d) == first[2], d
        assert len(asked) == before, d
        trees.view.cache_clear()
        r_flags.cache_clear()
        assert _kept_questions(d) == first, d
        outside += first[2][0] != "ok"
    assert asked and outside >= 3 * len(OUTSIDE_THE_DOMAIN)


# -- normalization ---------------------------------------------------------------

def test_memoized_normalize_equals_the_plain_one():
    rng = random.Random(13)
    drawn = [random_description(rng) for _ in range(300)]  # valid or not
    for d in walk_trees() + drawn:
        got = outcome(normalize, d)
        assert got == outcome(normalize.__wrapped__, d), d
        if got[0] == "ok":
            assert normalize(d) is normalize(d), d


def test_normalize_rules():
    assert normalize(Full(1, o(W, 1))) == seg(W)
    assert normalize(graft(seg(2), (seg(3), 1))) == seg(6)
    assert normalize(Graft(seg(2), ())) == seg(2)
    assert normalize(TildeOf(HatOf(REMARK_TREE))) == REMARK_TREE
    assert normalize(TildeOf(seg(o(W1, 1)))) == seg(W1)
    assert normalize(HatOf(seg(o(W1, W)))) == seg(o(W1, W))


def _subterms(d):
    out = {d}
    if isinstance(d, Graft):
        out |= _subterms(d.base)
        for c, _ in d.children:
            out |= _subterms(c)
    elif isinstance(d, (HatOf, TildeOf)):
        out |= _subterms(d.inner)
    return out


def test_normalize_agrees_with_the_reference(monkeypatch):
    # normalize asks the views of the descriptions it was given, not those of
    # the normal forms it builds, and returns a normal argument itself; the
    # reference asks the normal forms and copies.  Every memo is dropped
    # before each input, so each answer is computed, and the views built
    # meanwhile are exactly the ones normalize asked for
    rng = random.Random(17)
    drawn = [random_description(rng) for _ in range(2000)]  # valid or not
    wraps = (HatOf, TildeOf, lambda x: TildeOf(HatOf(x)))
    built = []
    init = trees._View.__init__

    def counted(self, desc):
        built.append(desc)
        init(self, desc)

    monkeypatch.setattr(trees._View, "__init__", counted)
    for d in walk_trees() + drawn + [f(x) for x in drawn for f in wraps]:
        _clear_memos()
        built.clear()
        got = outcome(normalize, d)
        assert set(built) <= _subterms(d), d
        want = outcome(reference_normalize, d)
        assert got[0] is want[0], d
        if got[0] == "ok":
            assert got[1] == want[1], d
            assert got[1] is d or got[1] != d, d
    _clear_memos()
