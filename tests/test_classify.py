import random
from collections import Counter

import pytest

from wedgetree.errors import HeightTooLarge, PreconditionFailed, WedgeTreeError
from wedgetree.ordinals import (
    ONE, ZERO, Cofinality, add, cmp, fin_mul, nat, times_nat,
)
from wedgetree.trees import (
    CARD_OMEGA, CARD_OMEGA1, Below, Child, Graft, HatOf, TildeOf, ancestor_at,
    as_node, children, resolve, validate,
)
from wedgetree.topology import Branch, Explicit, UnionSpec, sample_members
from wedgetree.classify import (
    V3, build_separating_family, binary_obstruction, check_point_countable,
    check_t0, classify_report, gdelta_analysis, gdelta_class,
    has_omega1_chain, r_flags,
)
from wedgetree.constructions import hat, normalize, tilde
from wedgetree.corpus import random_description, sample_nodes
from wedgetree.dsl import parse_address, parse_desc, parse_set, read_sexpr
from wedgetree.records import replace

from helpers import (
    BINARY_W, BINARY_W1, FAN_OMEGA1, REMARK_TREE, W, W1, full, graft, o,
    separating_family_cases, seg, up, valid_draws, walk_trees, word,
)


# -- structural analyses ----------------------------------------------------------

def test_r_flags_examples():
    assert r_flags(BINARY_W1) == (True, True)
    assert r_flags(REMARK_TREE) == (False, False)
    assert r_flags(seg(o(W1, W))) == (True, True)
    assert r_flags(graft(seg(W1), (seg(0), 3))) == (True, False)


def test_has_omega1_chain():
    flag, _ = has_omega1_chain(BINARY_W)
    assert not flag
    flag, wit = has_omega1_chain(seg(W1))
    assert flag and resolve(seg(W1), wit).ht == W1
    assert not has_omega1_chain(graft(seg(W), (seg(W), CARD_OMEGA)))[0]


def test_binary_obstruction_examples():
    emb = binary_obstruction(BINARY_W1)
    assert emb is not None and emb.prefix == ()
    assert binary_obstruction(seg(times_nat(W1, 2))) is None
    emb2 = binary_obstruction(full("w", o(W1, 1)))
    assert emb2 is not None
    emb3 = binary_obstruction(graft(seg(3), (full(2, o(W1, 1)), 2)))
    assert emb3 is not None and emb3.offset == nat(4)
    assert binary_obstruction(REMARK_TREE) is None


def test_binary_obstruction_through_hat():
    d, _ = hat(BINARY_W1)
    emb = binary_obstruction(d)
    assert emb is not None
    assert binary_obstruction(TildeOf(d)) == binary_obstruction(BINARY_W1)


def test_report_on_graft_over_hat_base():
    # the embedding is searched for in d itself, so its root resolves in d
    d = graft(HatOf(seg(W1)), (full("w", o(times_nat(W1, 2), 1)), CARD_OMEGA1))
    validate(d)
    wc = classify_report(d).to_json()["WeaklyCorson"]
    assert wc["verdict"] == "no" and wc["witness"]["kind"] == "binary-embedding"
    root = resolve(d, parse_address(read_sexpr(wc["witness"]["root"])))
    assert root.ht == o(W1, 2)


def _hats(d, k):
    for _ in range(k):
        d = HatOf(d)
    return d


# seven paths of the binary copy, from its root: its children, a node two
# levels up, nodes at w+1 and 4, and the leftmost node at level w1
_PROBES = ((), (Child(0),), (Child(1),), (Child(1), Child(0)),
           (word("0", W), Child(1)), (word("1", 3), Child(0)), (word("0", W1),))


def _steps_height(steps):
    total = ZERO
    for s in steps:
        total = add(total, ONE if isinstance(s, Child)
                    else fin_mul(len(s.letters), s.count))
    return total


def _probe_mismatches(d):
    """The probes that disagree with ``binary_obstruction(d)``.  Each probe
    is resolved from the region root and, while it sits above its height,
    descended one ``Below()`` step at a time with no budget: it must land at
    ``offset`` plus its step height, branch at least twice below level w1,
    and descend only at level w1, exactly to ``top``."""
    emb = binary_obstruction(d)
    bad = []
    for steps in _PROBES:
        rel = _steps_height(steps)
        want = add(emb.offset, rel)
        addr = emb.prefix + steps
        node = resolve(d, addr)
        while cmp(node.ht, want) > 0:
            addr += (Below(),)
            node = resolve(d, addr)
        landed = emb.top if rel == W1 else emb.prefix + steps
        if cmp(node.ht, want) != 0 or addr != landed or (
                cmp(rel, W1) < 0 and node.ims.is_finite and node.ims.n < 2):
            bad.append((d, steps, addr, node))
    return bad


def _hat_ladder():
    """(full 2 (+ w1 1)) under 0 to 12 hats, bare, under tilde(hat(.)) and
    grafted onto (seg 3)."""
    out = []
    for k in range(13):
        d = _hats(BINARY_W1, k)
        out += [d, TildeOf(HatOf(d)), graft(seg(3), (d, 2))]
    return out


def test_binary_embedding_agrees_with_its_probes():
    rng = random.Random(11)
    trees = walk_trees() + _hat_ladder()
    while len(trees) < 800:
        d = random_description(rng)
        try:
            validate(d)
        except WedgeTreeError:
            continue
        trees.append(d)
    obstructed = [d for d in trees if binary_obstruction(d) is not None]
    assert len(obstructed) > 100
    bad = [m for d in obstructed for m in _probe_mismatches(d)]
    assert not bad, bad[:3]


@pytest.mark.parametrize("hats", [9, 12])
def test_binary_obstruction_under_many_hats(hats):
    d = _hats(BINARY_W1, hats)
    validate(d)
    wc = classify_report(d).props["WeaklyCorson"]
    assert wc.verdict is V3.NO and wc.rule == "R4"
    assert "Example 4.5" in wc.citation
    assert binary_obstruction(d).top == (word("0", W1),) + (Below(),) * hats


def test_binary_offset_is_the_root_height_under_hats_over_a_graft():
    d = parse_desc(read_sexpr(
        "(hat (hat (graft (seg (+ w1 1)) (((full 3 (+ w1 w 1)) 3)))))"))
    emb = binary_obstruction(d)
    assert emb.offset == resolve(d, emb.prefix).ht == o(W1, 4)


# -- G-delta ------------------------------------------------------------------------

def test_gdelta_point_classes():
    assert gdelta_class(resolve(BINARY_W1, [Child(0)])) == "isolated"
    assert gdelta_class(resolve(BINARY_W1, [word("0", W)])) == "gdelta"
    assert gdelta_class(resolve(BINARY_W1, [word("0", W1)])) == "not-gdelta"
    assert gdelta_class(resolve(FAN_OMEGA1, [])) == "not-gdelta"


def test_gdelta_analysis_dense():
    rep = gdelta_analysis(BINARY_W1, [Child(0)])
    assert rep.point == "isolated"
    rep2 = gdelta_analysis(FAN_OMEGA1, [])
    assert rep2.point == "not-gdelta"


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
        return ancestor_at(d, x, add(best, ONE))
    if not x.ims.le_omega:
        taken = set()
        for _, F in sample_bases:
            for f in F:
                if f.parts and f.parts[-1][0] == "copy":
                    taken.add(f.parts[-1][2])
        idx = 0
        while idx in taken:
            idx += 1
        return children(d, x, idx + 1)[idx]
    raise PreconditionFailed("the point has a countable local base")


def test_gdelta_oracle_uncountable_cofinality():
    d = BINARY_W1
    x = resolve(d, [word("0", W1)])
    bases = []
    for h in [nat(3), nat(9), add(W, ONE)]:
        bases.append((ancestor_at(d, x, h), []))
    y = gdelta_intersection_oracle(d, x, bases)
    assert y.parts != x.parts
    for u, _ in bases:
        from wedgetree.trees import leq
        assert leq(d, u, y)


def test_gdelta_oracle_wide_root():
    d = FAN_OMEGA1
    root = resolve(d, [])
    kids = children(d, root, 3)
    y = gdelta_intersection_oracle(d, root, [(root, [kids[0]]), (root, [kids[1]])])
    assert y.parts not in {k.parts for k in kids[:2]}


def _fan(n):
    """F0 = (seg 0), F(n+1) = (graft (seg 0) ((Fn w1))): n nested w1-fans."""
    d = seg(0)
    for _ in range(n):
        d = graft(seg(0), (d, CARD_OMEGA1))
    return d


def _fan_trees():
    out = []
    for n in range(1, 9):
        f = _fan(n)
        out += [f, HatOf(f), TildeOf(HatOf(f)), graft(seg(W1), (f, 1))]
    return out


def test_nested_uncountable_fans_have_dense_gdelta_points():
    for d in _fan_trees():
        rep = classify_report(d)  # no RuleConflict
        assert rep.verdict("DenseGdelta") is V3.YES, d
        assert rep.props["DenseGdelta"].rule == "R8", d
    rep = classify_report(graft(seg(times_nat(W1, 2)), (_fan(5), 1)))
    assert rep.verdict("DenseGdelta") is V3.YES
    assert rep.verdict("WeaklyCorson") is not V3.NO


def _grafts(d):
    """The number of ``Graft`` subterms of d."""
    if isinstance(d, Graft):
        return 1 + _grafts(d.base) + sum(_grafts(c) for c, _ in d.children)
    if isinstance(d, (HatOf, TildeOf)):
        return _grafts(d.inner)
    return 0


def _climb(d, node):
    """Steps from a cofinality-0 node up first children, while the node has
    w1 immediate successors, to a G-delta point; None past the bound."""
    for steps in range(_grafts(d) + 1):
        if gdelta_class(node) != "not-gdelta":
            return steps
        assert node.ims == CARD_OMEGA1, (d, node.address())
        node = children(d, node, 1)[0]
    return None


def test_a_gdelta_point_lies_within_the_graft_count_above_every_successor_point():
    # the lemma behind R8 (see ``gdelta_analysis``), checked by the climb
    rng = random.Random(13)
    trees = walk_trees() + _fan_trees()
    while len(trees) < 400:
        d = random_description(rng)
        try:
            validate(d)
        except WedgeTreeError:
            continue
        trees.append(d)
    climbs = worst = 0
    for d in trees:
        for node in sample_nodes(d, rng, 12):
            if node.cof is not Cofinality.ZERO:
                continue
            steps = _climb(d, node)
            assert steps is not None, (d, node.address())
            climbs += 1
            worst = max(worst, steps)
    assert climbs > 1000
    assert worst == 8  # the root of F8


# -- separating families -----------------------------------------------------------

def test_family_branch_has_empty_leftover():
    fam = build_separating_family(BINARY_W1, Branch((word("0", W1),)))
    assert fam.singletons == ()


def test_family_with_top_point_isolates_it():
    S = Explicit(((word("0", W1),), (Child(1),)))
    fam = build_separating_family(BINARY_W1, S)
    assert len(fam.singletons) == 1
    s, ts = next(iter(fam.markers.values()))
    assert s.ht == W1
    # the marker is the first node past every meet with the rest of S
    assert ts.parts == resolve(BINARY_W1, (Child(0),)).parts
    assert ts.in_I
    pair = (resolve(BINARY_W1, (word("0", W1),)), resolve(BINARY_W1, (Child(1),)))
    assert check_t0(BINARY_W1, S, fam, [pair])
    # identity pairs are vacuously separated
    x = resolve(BINARY_W1, (Child(1),))
    assert check_t0(BINARY_W1, S, fam, [(x, x)])


def test_family_marker_clears_a_member_in_the_cone():
    """Member 30 of ``(child n) (child 1)`` lies above ``(child 30)``, so the
    marker of the top point must sit past it for the family to exist."""
    d = parse_desc(read_sexpr("(full w (+ w1 1))"))
    S = parse_set(read_sexpr('(union (explicit (addr (child 30) (word "0" w1)))'
                             ' (omega-family (addr (child n) (child 1))))'))
    fam = build_separating_family(d, S)
    (s, ts), = fam.markers.values()
    assert ts.parts == resolve(d, (Child(30), Child(0))).parts
    assert fam.verify()


def test_family_height_gate():
    with pytest.raises(HeightTooLarge):
        build_separating_family(seg(times_nat(W1, 2)), Branch((up(W1),)))


def test_family_point_countable():
    fam = build_separating_family(BINARY_W1, Branch((word("0", W1),)))
    pts = [(word("0", W),), (word("0", 4),), ()]
    assert check_point_countable(BINARY_W1, fam, pts)


def test_family_mutants_fail_verification():
    """Each marker dropped, each marker moved down to height 1, and each
    marker dropped with its singleton: the re-derived family disagrees."""
    total = 0
    for d, S in separating_family_cases():
        fam = build_separating_family(d, S)
        assert fam.verify(), (d, S)
        for key, (s, ts) in fam.markers.items():
            rest = {k: v for k, v in fam.markers.items() if k != key}
            mutants = [replace(fam, markers=rest),
                       replace(fam, markers=rest, singletons=tuple(
                           x for x in fam.singletons if x.parts != key))]
            low = ancestor_at(d, s, ONE)
            if low.parts != ts.parts:
                mutants.append(replace(fam, markers={**fam.markers, key: (s, low)}))
            for mutant in mutants:
                assert not mutant.verify(), (d, S, mutant.markers)
                total += 1
    assert total == 30  # 13 markers dropped, 4 moved down, 13 dropped with their singleton


def _family_pool(d, S, fam):
    """Sampled points of S, the family's singletons and their ancestors at
    heights 0, 1, 2 and w."""
    pool = {x.parts: x for x in list(sample_members(d, S, 8)) + list(fam.singletons)}
    for x in list(pool.values()):
        for h in (ZERO, ONE, nat(2), W):
            if cmp(h, x.ht) <= 0:
                a = ancestor_at(d, x, h)
                pool[a.parts] = a
    return list(pool.values())


def _marker_mutants(d, fam):
    """The mutants of ``test_family_mutants_fail_verification``."""
    out = []
    for key, (s, ts) in fam.markers.items():
        rest = {k: v for k, v in fam.markers.items() if k != key}
        out += [replace(fam, markers=rest),
                replace(fam, markers=rest, singletons=tuple(
                    x for x in fam.singletons if x.parts != key))]
        low = ancestor_at(d, s, ONE)
        if low.parts != ts.parts:
            out.append(replace(fam, markers={**fam.markers, key: (s, low)}))
    return out


def test_family_checks_keep_their_verdict_on_repeats():
    """A pair or point list, that list with every entry tripled and its
    entries one at a time get the same verdict, for each family and each
    marker mutant."""
    verdicts = set()
    for d, S in separating_family_cases():
        fam = build_separating_family(d, S)
        pool = _family_pool(d, S, fam)
        pairs = [(x, y) for x in pool for y in pool]
        for f in [fam] + _marker_mutants(d, fam):
            for chunk in (pairs, pairs[::-1], pairs[:5]):
                want = all(check_t0(d, S, f, [p]) for p in chunk)
                assert check_t0(d, S, f, chunk) is want
                assert check_t0(d, S, f, [p for p in chunk for _ in range(3)]) is want
                verdicts.add(("t0", want))
            for chunk in (pool, pool[::-1], pool[1:]):
                want = all(check_point_countable(d, f, [x]) for x in chunk)
                assert check_point_countable(d, f, chunk) is want
                assert check_point_countable(
                    d, f, [x for x in chunk for _ in range(3)]) is want
                verdicts.add(("pc", want))
    assert len(verdicts) == 4  # each check both passes and fails


def test_marker_mutants_fail_check_t0_after_repeats():
    """A mutant's failing pair is still found when passing pairs, each
    asked three times, come before it."""
    failing = 0
    for d, S in separating_family_cases():
        fam = build_separating_family(d, S)
        pool = _family_pool(d, S, fam)
        pairs = [(x, y) for x in pool for y in pool]
        for mutant in _marker_mutants(d, fam):
            good = [p for p in pairs if check_t0(d, S, mutant, [p])]
            bad = [p for p in pairs if p not in good]
            if not bad:
                continue
            repeated = [p for p in good for _ in range(3)]
            assert check_t0(d, S, mutant, repeated)
            assert not check_t0(d, S, mutant, repeated + bad[-1:] + repeated)
            failing += 1
    assert failing == 12  # 8 markers dropped, with or without singleton, 4 moved down


def test_check_t0_asks_each_distinct_pair_once(monkeypatch):
    import wedgetree.classify as classify

    real = classify.FamilyU.separator_for
    asked = Counter()

    def counted(self, x, y):
        asked[x.parts, y.parts] += 1
        return real(self, x, y)

    monkeypatch.setattr(classify.FamilyU, "separator_for", counted)
    distinct = 0
    for d, S in separating_family_cases():
        fam = build_separating_family(d, S)
        pool = {x.parts: x for x in sample_members(d, S, 8)}.values()
        pairs = [(x, y) for x in pool for y in pool] * 3
        asked.clear()
        assert check_t0(d, S, fam, pairs), (d, S)
        want = {(x.parts, y.parts) for x, y in pairs if x.parts != y.parts}
        assert set(asked) == want and set(asked.values()) <= {1}, (d, S)
        distinct += len(want)
    assert distinct == 186


def test_family_checks_on_random_pairs():
    d = BINARY_W1
    S = UnionSpec((Branch((word("0", W1),)), Explicit(((Child(1),),))))
    fam = build_separating_family(d, S)
    rng = random.Random(11)
    branch_pts = [(word("0", n),) for n in (0, 1, 2, 5, 9)] + [(word("0", W),)]
    pts = branch_pts + [(Child(1),), (word("0", W1),)]
    pairs = []
    for _ in range(60):
        a, b = rng.sample(pts, 2)
        pairs.append((a, b))
    assert check_t0(d, S, fam, pairs)
    # point countability holds on the dense part S1 + (D cap S), not at the
    # uncountable-cofinality point itself
    assert check_point_countable(d, fam, branch_pts + [(Child(1),)])
    assert not check_point_countable(d, fam, [(word("0", W1),)])


# -- reports ------------------------------------------------------------------------

def test_report_binary_w1():
    rep = classify_report(BINARY_W1)
    assert rep.verdict("HereditarilyValdivia") is V3.YES
    assert rep.verdict("Valdivia") is V3.YES
    assert rep.verdict("WeaklyCorson") is V3.NO
    assert rep.props["WeaklyCorson"].rule == "R4"
    assert "Example 4.5" in rep.props["WeaklyCorson"].citation
    assert "Prop 2.4" in rep.props["HereditarilyValdivia"].citation
    assert rep.verdict("DenseGdelta") is V3.YES
    assert rep.verdict("Corson") is V3.NO
    assert rep.verdict("RTree") is V3.YES and rep.verdict("R1Tree") is V3.YES
    assert any("hereditarily weakly Valdivia" in n for n in rep.notes)


def test_report_remark_tree():
    rep = classify_report(REMARK_TREE)
    assert rep.verdict("WeaklyCorson") is V3.YES
    assert "Remark after Thm 4.2" in rep.props["WeaklyCorson"].citation
    assert rep.verdict("Valdivia") is V3.NO
    assert rep.verdict("RTree") is V3.NO
    assert rep.verdict("WeaklyValdivia") is V3.YES
    assert rep.verdict("HereditarilyValdivia") is V3.NO


def test_report_segment_w1():
    rep = classify_report(seg(W1))
    assert rep.verdict("Valdivia") is V3.YES
    assert rep.verdict("Corson") is V3.NO
    assert rep.verdict("WeaklyCorson") is V3.YES


def test_report_countable_binary():
    rep = classify_report(BINARY_W)
    assert rep.verdict("Corson") is V3.YES
    for prop in ("Valdivia", "HereditarilyValdivia", "WeaklyCorson",
                 "WeaklyValdivia", "DenseGdelta", "RTree"):
        assert rep.verdict(prop) is V3.YES, prop


def test_report_long_segment_keeps_unknowns_honest():
    rep = classify_report(seg(times_nat(W1, 2)))
    assert rep.verdict("WeaklyCorson") is V3.YES  # ordinal segment rule
    assert rep.verdict("Valdivia") is V3.YES
    assert rep.verdict("HereditarilyValdivia") is V3.UNKNOWN
    assert rep.props["HereditarilyValdivia"].tried


def test_report_consistency_on_random_corpus():
    rng = random.Random(2024)
    seen = 0
    while seen < 120:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        rep = classify_report(d)
        _assert_closure(rep)
        seen += 1


def _assert_closure(rep):
    v = {p: rep.verdict(p) for p in rep.props}
    implications = [
        ("Corson", "Valdivia"), ("Valdivia", "WeaklyValdivia"),
        ("WeaklyCorson", "WeaklyValdivia"), ("WeaklyCorson", "DenseGdelta"),
        ("Valdivia", "RTree"), ("HereditarilyValdivia", "Valdivia"),
        ("Corson", "WeaklyCorson"),
    ]
    for a, b in implications:
        if v[a] is V3.YES:
            assert v[b] is V3.YES, (a, b, v)
        if v[b] is V3.NO:
            assert v[a] is V3.NO, (a, b, v)


def test_hat_reports_r1_on_corpus():
    rng = random.Random(77)
    seen = 0
    while seen < 20:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        h, _ = hat(d)
        rep = classify_report(h)
        assert rep.verdict("R1Tree") is V3.YES
        seen += 1


def test_verdicts_are_invariant_under_normalize_and_tilde_of_hat():
    # the metamorphic law: d, its normal form and tilde(hat(d)) denote
    # isomorphic trees, so every property gets the same verdict on all three
    for d in walk_trees() + valid_draws(11, 800):
        want = _verdicts(d)
        assert _verdicts(normalize(d)) == want, d
        assert _verdicts(tilde(hat(d)[0])) == want, d


def _verdicts(d):
    return {p: rep.verdict for p, rep in classify_report(d).props.items()}
