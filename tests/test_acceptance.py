"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact (verdict equality, 100% witness verification); the
material is symbolic, so there is nothing to approximate.
"""

import itertools
import random

from wedgetree import ordinals as o
from wedgetree.errors import NotClosed
from wedgetree.ordinals import (
    OMEGA, ONE, ZERO, Cofinality, Ordinal, add, cmp, nat, times_nat,
)
from wedgetree.trees import (
    Below, CARD_OMEGA1, Child, HatOf, Seg, TildeOf, Up, leq, resolve,
    unc_sites, validate,
)
from wedgetree.topology import (
    ALREADY_SIGMA_OPEN, CDiff, Cone, ConeComplement, Explicit,
    MaximalityWitness, OmegaFamily, Param, SeqSpec, Topology,
    UnionSpec, Verdict, Wedge, club_accumulation, cluster_or_limit, contains,
    countably_closed_witness, fu_extract, maximality_witness, member,
    sample_members,
)
from wedgetree.constructions import (
    disjoint_closures, hat, is_r1_tree, roundtrip_check,
)
from wedgetree.classify import (
    V3, build_separating_family, check_point_countable, check_t0,
    classify_report,
)
from wedgetree.corpus import random_description

from helpers import (
    BINARY_W, BINARY_W1, REMARK_TREE, W, W0n, W1, W2, club_cases,
    disjoint_closure_cases, full, fu_cases, graft, o as osum, output_digest,
    separating_family_cases, seg, up, word, witness_digest,
)


def _report(criterion, ok, detail=""):
    print("%s criterion %s%s" % ("PASS" if ok else "FAIL", criterion,
                                 " (%s)" % detail if detail else ""))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


# -- criterion 1: paper-example classification exactness ---------------------------

def test_criterion_1_classification_exactness():
    checks = []

    rep = classify_report(BINARY_W1)
    checks.append(rep.verdict("HereditarilyValdivia") is V3.YES)
    checks.append(rep.verdict("WeaklyCorson") is V3.NO)
    checks.append(rep.verdict("DenseGdelta") is V3.YES)
    checks.append(rep.verdict("Corson") is V3.NO)
    checks.append("Example 4.5" in rep.props["WeaklyCorson"].citation)
    checks.append("Prop 2.4" in rep.props["HereditarilyValdivia"].citation)
    checks.append("Prop 5.2" in rep.props["DenseGdelta"].citation or
                  "§5" in rep.props["DenseGdelta"].citation)

    rep = classify_report(REMARK_TREE)
    checks.append(rep.verdict("WeaklyCorson") is V3.YES)
    checks.append(rep.verdict("Valdivia") is V3.NO)
    checks.append(rep.verdict("RTree") is V3.NO)
    checks.append("Remark after Thm 4.2" in rep.props["WeaklyCorson"].citation)

    rep = classify_report(seg(W1))
    checks.append(rep.verdict("Valdivia") is V3.YES)
    checks.append(rep.verdict("Corson") is V3.NO)

    rep = classify_report(BINARY_W)
    checks.append(rep.verdict("Corson") is V3.YES)

    _report(1, all(checks), "%d/%d verdict checks" % (sum(checks), len(checks)))


# -- criterion 2: ordinal oracle equivalence ----------------------------------------

def test_criterion_2_ordinal_oracle():
    small = []
    for c1 in range(5):
        for c0 in range(5):
            terms = []
            if c1:
                terms.append((ONE, c1))
            if c0:
                terms.append((ZERO, c0))
            small.append(Ordinal(0, tuple(terms)))
    total = bad = 0
    for a, b in itertools.product(small, repeat=2):
        ta, tb = o.oracle_encode(a).boundary, o.oracle_encode(b).boundary
        want = -1 if ta < tb else (0 if ta == tb else 1)
        total += 1
        bad += o.cmp(a, b) != want
        word_sum = o.oracle_encode(a).blocks() + o.oracle_encode(b).blocks()
        total += 1
        bad += o.oracle_encode(o.add(a, b)).boundary != o.measure_blocks(word_sum)
        for n in (1, 2, 5):
            total += 1
            scaled = o.blocks_fin_mul(n, o.oracle_encode(a).blocks())
            bad += o.oracle_encode(o.fin_mul(n, a)).boundary != o.measure_blocks(scaled)
    rng = random.Random(2)
    for _ in range(500):
        def rnd():
            terms = []
            c2, c1, c0 = rng.randrange(4), rng.randrange(5), rng.randrange(5)
            if c2:
                terms.append((nat(2), c2))
            if c1:
                terms.append((ONE, c1))
            if c0:
                terms.append((ZERO, c0))
            return Ordinal(0, tuple(terms))
        a, b = rnd(), rnd()
        ta, tb = o.oracle_encode(a).boundary, o.oracle_encode(b).boundary
        want = -1 if ta < tb else (0 if ta == tb else 1)
        total += 2
        bad += o.cmp(a, b) != want
        word_sum = o.oracle_encode(a).blocks() + o.oracle_encode(b).blocks()
        bad += o.oracle_encode(o.add(a, b)).boundary != o.measure_blocks(word_sum)
    _report(2, bad == 0, "%d checks, %d mismatches" % (total, bad))


# -- criterion 3: round-trip laws ----------------------------------------------------

def _roundtrip_corpus():
    fixed = [
        seg(0), seg(5), seg(W), seg(osum(W, 3)), seg(W1), seg(osum(W1, 1)),
        seg(osum(W1, W)), seg(times_nat(W1, 2)),
        BINARY_W, BINARY_W1, full(3, osum(W1, 1)), full(1, osum(W, 1)),
        full("w", osum(W, 1)), full("w", osum(W1, 1)), full(2, osum(W1, W, 1)),
        REMARK_TREE, graft(seg(W1), (seg(0), CARD_OMEGA1)),
        graft(seg(2), (seg(W), 2)), graft(seg(W1), (seg(W), 1)),
        graft(seg(4), (full(2, osum(W1, 1)), 2)),
        HatOf(seg(W1)), HatOf(BINARY_W1), TildeOf(seg(osum(W1, 1))),
        TildeOf(HatOf(BINARY_W1)), HatOf(REMARK_TREE),
    ]
    rng = random.Random(31)
    while len(fixed) < 30:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        fixed.append(d)
    return fixed


def test_criterion_3_roundtrips():
    corpus = _roundtrip_corpus()
    assert len(corpus) >= 20
    kinds = {type(d).__name__ for d in corpus}
    assert kinds >= {"Seg", "Full", "Graft", "HatOf", "TildeOf"}
    bad = []
    r1_count = 0
    for d in corpus:
        rt = roundtrip_check(d)
        if not rt.tilde_hat_ok:
            bad.append(("tilde-hat", d))
        if rt.hat_tilde_ok != rt.is_r1:
            bad.append(("hat-tilde-vs-r1", d))
        r1_count += rt.is_r1
        h, _ = hat(d)
        if not is_r1_tree(h):
            bad.append(("hat-not-r1", d))
    detail = "%d descriptions, %d r1, %d failures" % (len(corpus), r1_count, len(bad))
    _report(3, not bad and 0 < r1_count < len(corpus), detail)


# -- criterion 4: countably-closed witness suite --------------------------------------

def _unc_point(d):
    for s in unc_sites(d):
        from wedgetree.trees import node_at
        n = node_at(d, s.parts)
        return n
    return None


def test_criterion_4_countably_closed_witnesses():
    rng = random.Random(41)
    trees = [
        (seg(W1), lambda: (up(W1),)),
        (seg(osum(W1, W)), lambda: (up(W1),)),
        (seg(osum(times_nat(W1, 2), 3)), lambda: (up(times_nat(W1, 2)),)),
        (BINARY_W1, lambda: (word("0", W1),)),
        (full(3, osum(W1, 1)), lambda: (word("1", W1),)),
        (full("w", osum(W1, 1)), lambda: (word("2", W1),)),
        (REMARK_TREE, lambda: (up(W1),)),
        (HatOf(BINARY_W1), lambda: (word("0", W1), Below())),
    ]
    total = good = 0
    while total < 100:
        d, taddr = trees[rng.randrange(len(trees))]
        t = resolve(d, taddr())
        shape = rng.randrange(3)
        base = rng.choice([ZERO, nat(3), OMEGA, osum(W, 2)])
        if isinstance(d, Seg) or d == REMARK_TREE:
            S = OmegaFamily((Up(Param(add(base, ONE), ONE)),))
        elif shape == 0:
            S = OmegaFamily((W0n(base), Child(1)))
        elif shape == 1:
            S = UnionSpec((OmegaFamily((W0n(base), Child(1))),
                           Explicit(((Child(1),),))))
        else:
            S = Explicit(((Child(1),), (word("0", 2), Child(1)),
                          (word("0", W), Child(1))))
        if isinstance(d, (Seg,)) or d == REMARK_TREE:
            pass
        total += 1
        wit = countably_closed_witness(d, t, S)
        ok = wit.verified and wit.p.in_I and leq(d, wit.p, t)
        good += ok
    _report(4, good == total, "%d/%d witnesses verified" % (good, total))


# -- criterion 5: club accumulation suite ----------------------------------------------

def test_criterion_5_club_accumulation():
    rng = random.Random(51)
    total = good = 0
    cases = club_cases()
    while total < 50:
        d, taddr, S = cases[rng.randrange(len(cases))]
        t = resolve(d, taddr)
        wit = club_accumulation(d, t, S)
        total += 1
        ok = wit.verified
        ok = ok and all(cmp(a.ht, b.ht) < 0
                        for (a, _), (b, _) in zip(wit.pairs, wit.pairs[1:]))
        ok = ok and cmp(wit.r.ht, t.ht) < 0
        ok = ok and wit.verdict is not Verdict.NEITHER
        from wedgetree.trees import meet
        for (rj, sj), (rk, _) in zip(wit.pairs, wit.pairs[1:]):
            ok = ok and meet(d, sj, t).parts == rk.parts
        good += ok
    _report(5, good == total, "%d/%d constructions verified" % (good, total))


# -- criterion 6: Frechet-Urysohn extraction suite ---------------------------------------

SEQ_CORPUS = []


def test_criterion_6_fu_extraction():
    rng = random.Random(61)
    cases = fu_cases()
    seen_kinds = set()
    total = good = 0
    while total < 100:
        kind, d, taddr, A = cases[rng.randrange(len(cases))]
        seen_kinds.add(kind)
        t = resolve(d, taddr)
        seq = fu_extract(d, A, t)
        total += 1
        tail = seq.tail
        verdict = cluster_or_limit(d, SeqSpec(tail=tail), t, Topology.SIGMA_CW)
        ok = verdict is Verdict.CONVERGES
        first = resolve(d, seq.head[0]) if seq.head else None
        ok = ok and (first is None or contains(d, A, first))
        SEQ_CORPUS.append((d, SeqSpec(tail=tail), t))
        good += ok
    assert seen_kinds == {"cf!=w", "cf=w-inf", "cf=w-fin"}
    # refinement monotonicity across the collected sequence corpus
    mono = all(
        cluster_or_limit(d, s, x, Topology.CW) is Verdict.CONVERGES
        for d, s, x in SEQ_CORPUS
        if cluster_or_limit(d, s, x, Topology.SIGMA_CW) is Verdict.CONVERGES)
    _report(6, good == total and mono,
            "%d/%d extractions converge, monotone=%s" % (good, total, mono))


# -- criterion 7: maximality witnesses ----------------------------------------------------

def test_criterion_7_maximality():
    expect_witness = [
        (seg(osum(W, 1)), [CDiff((up(W),), ((up(osum(W, 1)),),))]),
        (seg(osum(W, 5)), [CDiff((up(W),), ((up(osum(W, 1)),),))]),
        (seg(W2), [CDiff((up(osum(W, 1) if False else W),), ())]),
        (seg(W2), [CDiff((up(times_nat(W, 2)),), ())]),
        (seg(W2), [Cone((up(W2),))]),
        (BINARY_W, [CDiff((word("0", W),), ())]),
        (BINARY_W1, [CDiff((word("0", W),), ())]),
        (full(3, osum(W, 2)), [CDiff((word("1", W),), ()), Cone((Child(0),))]),
        (seg(osum(W1, W)), [CDiff((up(osum(W1, W)),), ())]),
        (full(2, osum(W, 2)), [Wedge((word("0", W),), ((word("0", W), Child(0)),))]),
    ]
    expect_open = [
        (seg(osum(W, 1)), [Cone((up(3),))]),
        (seg(osum(W, 1)), [CDiff((up(2),), ((up(5),),))]),
        (BINARY_W1, [Wedge((word("0", W1),), ())]),
        (BINARY_W1, [Cone((Child(1),))]),
        (seg(W1), [Cone((up(W1),))]),
        (REMARK_TREE, [Cone((up(W1),)), Cone((Child(0),) if False else (up(2),))]),
        (BINARY_W, [ConeComplement((Child(0),))]),
        (full(3, osum(W, 1)), [Wedge((), ((Child(0),),))]),
        (seg(osum(W1, 1)), [Cone((up(osum(W1, 1)),))]),
        (BINARY_W1, [Cone((word("0", 5),)), Cone((Child(1),))]),
    ]
    total = good = 0
    for d, opens in expect_witness:
        total += 1
        wit = maximality_witness(d, opens)
        ok = isinstance(wit, MaximalityWitness) and wit.verified
        ok = ok and wit.t.cof is Cofinality.OMEGA
        if ok:
            nodes = [resolve(d, s) for s in wit.seq.head]
            ok = all(n.in_I and not any(member(d, n, U) for U in opens)
                     for n in nodes)
            ok = ok and all(cmp(a.ht, b.ht) < 0 for a, b in zip(nodes, nodes[1:]))
        good += ok
    for d, opens in expect_open:
        total += 1
        good += maximality_witness(d, opens) is ALREADY_SIGMA_OPEN
    _report(7, good == total == 20, "%d/%d verdicts correct" % (good, total))


# -- criterion 8: separating-family suite ---------------------------------------------------

def _sample_S_points(d, S, rng, count):
    pts = []
    for x in sample_members(d, S, 8):
        pts.append(x)
    uniq = {}
    for x in pts:
        uniq[x.parts] = x
    pts = list(uniq.values())
    while len(pts) < count:
        pts.append(rng.choice(pts))
    return pts[:count]


def test_criterion_8_separating_families():
    rng = random.Random(81)
    total = good = 0
    saw_empty = saw_nonempty = False
    for d, S in separating_family_cases():
        fam = build_separating_family(d, S)
        saw_empty = saw_empty or not fam.singletons
        saw_nonempty = saw_nonempty or bool(fam.singletons)
        pts = _sample_S_points(d, S, rng, 25)
        pairs = []
        for _ in range(100):
            a, b = rng.choice(pts), rng.choice(pts)
            pairs.append((a, b))
        dense_pts = [x for x in pts if x.ht.is_countable] + list(fam.singletons)
        points = [dense_pts[rng.randrange(len(dense_pts))] for _ in range(100)]
        total += 1
        good += check_t0(d, S, fam, pairs) and check_point_countable(d, fam, points)
    _report(8, good == total == 20 and saw_empty and saw_nonempty,
            "%d/%d families pass their checks" % (good, total))


# -- criterion 9: disjoint closures suite ------------------------------------------------------

def test_criterion_9_disjoint_closures():
    total = good = flagged = 0
    for dd, A, B, expect_not_closed in disjoint_closure_cases():
        total += 1
        if not expect_not_closed:
            good += disjoint_closures(dd, A, B).kind == "disjoint"
            continue
        try:
            disjoint_closures(dd, A, B)
        except NotClosed as e:
            seq, limit = e.witness
            x = resolve(dd, limit)
            verdict = cluster_or_limit(dd, SeqSpec(tail=seq.tail), x, Topology.SIGMA_CW)
            ok = verdict is Verdict.CONVERGES and not contains(dd, A if e.which == "A" else B, x)
            flagged += ok
            good += ok
    _report(9, good == total == 30 and flagged == 10,
            "%d/%d instances, %d escapes verified" % (good, total, flagged))


# -- criterion 10: report consistency over a random corpus --------------------------------------

def test_criterion_10_report_consistency():
    rng = random.Random(101)
    implications = [
        ("Corson", "Valdivia"), ("Valdivia", "WeaklyValdivia"),
        ("WeaklyCorson", "WeaklyValdivia"), ("WeaklyCorson", "DenseGdelta"),
        ("Valdivia", "RTree"), ("HereditarilyValdivia", "Valdivia"),
        ("Corson", "WeaklyCorson"), ("Corson", "HereditarilyValdivia"),
    ]
    total = bad = 0
    while total < 200:
        desc = random_description(rng)
        try:
            validate(desc)
        except Exception:
            continue
        total += 1
        rep = classify_report(desc)  # raises RuleConflict on contradictory rules
        for a, b in implications:
            if rep.verdict(a) is V3.YES and rep.verdict(b) is not V3.YES:
                bad += 1
            if rep.verdict(b) is V3.NO and rep.verdict(a) is not V3.NO:
                bad += 1
    _report(10, bad == 0, "%d reports, %d closure violations" % (total, bad))


# -- the committed output digest ------------------------------------------------------

def test_output_digest():
    # a change that moves an answer on the digest corpus moves this value;
    # CHANGES.md records each move and the keys it changed
    assert output_digest() == "068827c93a7f1ee498356e41a84f55a6"


def test_witness_digest():
    # the witness half: every construction over the helpers case tables
    assert witness_digest() == "f7ea72613e1d68f5e9897782f8e5068b"
