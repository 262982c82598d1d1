import functools
import random

import pytest

from wedgetree import topology
from wedgetree.constructions import _spot_nodes, disjoint_closures
from wedgetree.errors import (
    IllegalWedge, NotAccumulating, NotInClosure, PreconditionFailed,
    UndecidableTailPattern, WedgeTreeError,
)
from wedgetree.ordinals import (
    OMEGA, ONE, ZERO, Cofinality, Ordinal, add, cmp, nat, omega_power, times_nat,
)
from wedgetree.series import cached_series
from wedgetree.trees import (
    Below, Child, Copy, HatOf, Up, Word, ancestor_at, children, leq,
    meet, resolve, validate,
)
from wedgetree.topology import (
    ALREADY_SIGMA_OPEN, Branch, CDiff, ClubFamily, Cone, ConeComplement,
    ConeSet, EventuallyConstant, Explicit, Indexed, MaximalityWitness,
    OmegaFamily, Param, SeqSpec, Topology, UnionSpec, Verdict, Wedge,
    club_accumulation, cluster_or_limit, contains, countably_closed_witness,
    fu_extract, is_subbasic, limit_at, maximality_witness, meet_height, member,
    named_nodes, reaches, series_of, spec_parts,
)

from helpers import (
    BINARY_W, BINARY_W1, FAN_OMEGA, REMARK_TREE, W, W1, W2, club_cases,
    disjoint_closure_cases, fu_cases, fu_triples, full, o, seg,
    separating_family_cases, up, word,
)


ZERO_ONE_BRANCH = [word("0", W1)]          # 0^(w1) in the binary tree
LEFT_OMEGA = [word("0", W)]                # 0^w


def Word0n(base=ZERO, scale=ONE):
    return Word((0,), Param(base, scale))


def tpl_0n1():
    """s_n = 0^n 1."""
    return (Word0n(), Child(1))


def seq_0n1():
    return SeqSpec(tail=Indexed(tpl_0n1()))


# -- member / is_subbasic ----------------------------------------------------------

def test_member_examples():
    assert member(BINARY_W1, [word("0", W1)], Cone((word("0", W),)))
    assert not member(BINARY_W1, [Child(1)], Wedge((), ((Child(1),),)))
    t = [word("0", 3)]
    assert member(BINARY_W1, t, Cone(tuple(t)))
    assert member(BINARY_W1, [Child(1)], ConeComplement((Child(0),)))


def test_wedge_legality():
    with pytest.raises(IllegalWedge):
        member(BINARY_W, [Child(0)], Wedge((), ((Child(0),), (word("0", 2),))))
    # sigma-cw style wedge: base strictly below the parent of the exclusions
    tall = full(2, o(W, 2))
    assert member(tall, [word("0", 2)],
                  Wedge((Child(0),), ((word("0", W), Child(0)),)))


def test_is_subbasic_examples():
    five = [word("0", 5)]
    assert is_subbasic(BINARY_W1, five, Topology.CW)
    assert is_subbasic(BINARY_W1, five, Topology.SIGMA_CW)
    assert not is_subbasic(BINARY_W1, LEFT_OMEGA, Topology.SIGMA_CW)
    assert not is_subbasic(BINARY_W1, LEFT_OMEGA, Topology.CW)
    assert is_subbasic(BINARY_W1, ZERO_ONE_BRANCH, Topology.SIGMA_CW)
    assert not is_subbasic(BINARY_W1, ZERO_ONE_BRANCH, Topology.CW)


# -- cluster_or_limit ---------------------------------------------------------------

def test_increasing_run_converges_to_its_supremum():
    seq = SeqSpec(tail=Indexed((Word0n(),)))  # s_n = 0^n
    x = resolve(BINARY_W, LEFT_OMEGA)
    assert cluster_or_limit(BINARY_W, seq, x, Topology.CW) is Verdict.CONVERGES
    assert cluster_or_limit(BINARY_W, seq, x, Topology.SIGMA_CW) is Verdict.CONVERGES


def test_side_steps_converge_at_countable_limit_in_sigma():
    x = resolve(BINARY_W1, LEFT_OMEGA)
    assert cluster_or_limit(BINARY_W1, seq_0n1(), x, Topology.SIGMA_CW) is Verdict.CONVERGES
    assert cluster_or_limit(BINARY_W1, seq_0n1(), x, Topology.CW) is Verdict.CONVERGES


def test_side_steps_miss_uncountable_top():
    # the meets with the top are bounded by 0^w, far below level w1
    x = resolve(BINARY_W1, ZERO_ONE_BRANCH)
    assert cluster_or_limit(BINARY_W1, seq_0n1(), x, Topology.SIGMA_CW) is Verdict.NEITHER
    assert cluster_or_limit(BINARY_W1, seq_0n1(), x, Topology.CW) is Verdict.NEITHER


def test_children_converge_to_parent():
    seq = SeqSpec(tail=Indexed((Copy(0, Param()),)))
    root = resolve(FAN_OMEGA, ())
    assert cluster_or_limit(FAN_OMEGA, seq, root, Topology.SIGMA_CW) is Verdict.CONVERGES
    assert cluster_or_limit(FAN_OMEGA, seq, root, Topology.CW) is Verdict.CONVERGES


def test_sequence_trapped_in_one_child_cone_misses_x():
    # s_n = 0 1^n stays inside the cone of child 0 of the root
    tpl = (Child(0), Word((1,), Param(ZERO, ONE)))
    seq = SeqSpec(tail=Indexed(tpl))
    root = resolve(BINARY_W, ())
    assert cluster_or_limit(BINARY_W, seq, root, Topology.SIGMA_CW) is Verdict.NEITHER


def test_sequence_passing_through_x_does_not_converge_there():
    # 0^n 1 marches through 0^20 on its way to 0^w: the wedge excluding the
    # continuation child 0^21 is eventually missed
    x = resolve(BINARY_W1, [word("0", 20)])
    assert cluster_or_limit(BINARY_W1, seq_0n1(), x, Topology.SIGMA_CW) is Verdict.NEITHER
    assert cluster_or_limit(BINARY_W1, seq_0n1(), x, Topology.CW) is Verdict.NEITHER


def test_eventually_constant_sequences():
    x = resolve(BINARY_W, [Child(1)])
    seq = SeqSpec(head=((Child(0),),), tail=EventuallyConstant((Child(1),)))
    assert cluster_or_limit(BINARY_W, seq, x, Topology.SIGMA_CW) is Verdict.CONVERGES
    y = resolve(BINARY_W, [Child(0)])
    assert cluster_or_limit(BINARY_W, seq, y, Topology.SIGMA_CW) is Verdict.NEITHER


def test_cw_and_sigma_agree_at_countable_cofinality():
    # at points of cofinality <= omega the two local bases coincide
    x = resolve(BINARY_W1, LEFT_OMEGA)
    for seq in [seq_0n1(), SeqSpec(tail=Indexed((Word0n(),)))]:
        assert cluster_or_limit(BINARY_W1, seq, x, Topology.CW) is \
            cluster_or_limit(BINARY_W1, seq, x, Topology.SIGMA_CW)


def test_convergence_in_sigma_implies_convergence_in_cw():
    cases = [
        (BINARY_W1, seq_0n1(), LEFT_OMEGA),
        (BINARY_W, SeqSpec(tail=Indexed((Word0n(),))), LEFT_OMEGA),
        (FAN_OMEGA, SeqSpec(tail=Indexed((Copy(0, Param()),))), ()),
    ]
    for d, seq, xaddr in cases:
        x = resolve(d, xaddr)
        if cluster_or_limit(d, seq, x, Topology.SIGMA_CW) is Verdict.CONVERGES:
            assert cluster_or_limit(d, seq, x, Topology.CW) is Verdict.CONVERGES


# -- countably closed witness (Fact-2.1-style) ----------------------------------------

def test_countably_closed_witness_binary():
    t = resolve(BINARY_W1, ZERO_ONE_BRANCH)
    S = OmegaFamily(tpl_0n1())
    wit = countably_closed_witness(BINARY_W1, t, S)
    assert wit.verified
    assert wit.p.ht == o(W, 1)
    assert wit.p.in_I
    assert leq(BINARY_W1, wit.p, t)


def test_countably_closed_witness_segment():
    d = seg(W1)
    t = resolve(d, [up(W1)])
    S = OmegaFamily((Up(Param(ONE, ONE)),))  # the nodes at finite heights >= 1
    wit = countably_closed_witness(d, t, S)
    assert wit.verified and wit.p.ht == o(W, 1)


def test_countably_closed_witness_preconditions():
    x = resolve(BINARY_W1, LEFT_OMEGA)
    with pytest.raises(PreconditionFailed):
        countably_closed_witness(BINARY_W1, x, OmegaFamily(tpl_0n1()))
    t = resolve(BINARY_W1, ZERO_ONE_BRANCH)
    with pytest.raises(PreconditionFailed):
        # an w1-indexed family is not countable
        countably_closed_witness(
            BINARY_W1, t,
            ClubFamily(ZERO_ONE_BRANCH, (Word0n(), Child(1))))
    with pytest.raises(PreconditionFailed):
        # an element inside the cone of t
        countably_closed_witness(
            BINARY_W1, t, Explicit(((word("0", W1),),)))


# -- club accumulation (Lemma-2.3-style) ------------------------------------------------

def test_club_accumulation_unit_steps():
    t = resolve(BINARY_W1, ZERO_ONE_BRANCH)
    S = ClubFamily(ZERO_ONE_BRANCH, (Word0n(), Child(1)))
    wit = club_accumulation(BINARY_W1, t, S)
    assert wit.verified
    assert wit.r.ht == W
    assert [r.ht for r, _ in wit.pairs[:4]] == [nat(0), nat(1), nat(2), nat(3)]
    assert wit.verdict is not Verdict.NEITHER


def test_club_accumulation_omega_steps():
    t = resolve(BINARY_W1, ZERO_ONE_BRANCH)
    S = OmegaFamily((Word0n(ZERO, W), Child(1)))  # 0^(w*j) 1
    wit = club_accumulation(BINARY_W1, t, S)
    assert wit.verified
    assert wit.r.ht == W2
    assert wit.pairs[1][0].ht == W


@pytest.mark.parametrize("h", [W1, o(W1, W)])
def test_club_accumulation_on_a_segment_converges(h):
    # the members (up n) converge to (up w), which the picked members show
    # once their up slot is fitted
    d = seg(h)
    t = resolve(d, (up(W1),))
    wit = club_accumulation(d, t, ClubFamily((up(W1),), (Up(Param(ZERO, ONE)),)))
    assert wit.verified and wit.r.ht == W
    assert wit.verdict is Verdict.CONVERGES


def test_club_accumulation_rejects_far_sets():
    t = resolve(BINARY_W1, ZERO_ONE_BRANCH)
    with pytest.raises(NotAccumulating):
        club_accumulation(BINARY_W1, t, Explicit(((Child(1),),)))


# -- Frechet-Urysohn extraction ----------------------------------------------------------

def test_fu_extract_side_steps():
    x = resolve(BINARY_W1, LEFT_OMEGA)
    A = OmegaFamily(tpl_0n1())
    seq = fu_extract(BINARY_W1, A, x)
    assert cluster_or_limit(BINARY_W1, SeqSpec(tail=seq.tail), x,
                            Topology.SIGMA_CW) is Verdict.CONVERGES
    first = resolve(BINARY_W1, seq.head[0])
    assert contains(BINARY_W1, A, first)


def test_fu_extract_children_case():
    root = resolve(FAN_OMEGA, ())
    A = OmegaFamily((Copy(0, Param()),))
    seq = fu_extract(FAN_OMEGA, A, root)
    assert cluster_or_limit(FAN_OMEGA, SeqSpec(tail=seq.tail), root,
                            Topology.SIGMA_CW) is Verdict.CONVERGES


def test_fu_extract_not_in_closure():
    x = resolve(BINARY_W1, [word("0", 5)])
    with pytest.raises(NotInClosure):
        fu_extract(BINARY_W1, OmegaFamily(tpl_0n1()), x)


def test_fu_extract_uncountable_target_with_omega_children():
    # case cf(t) != omega with infinitely many meeting child cones
    t = resolve(REMARK_TREE, [up(W1)])
    A = OmegaFamily((up(W1), Copy(0, Param())))
    seq = fu_extract(REMARK_TREE, A, t)
    assert cluster_or_limit(REMARK_TREE, SeqSpec(tail=seq.tail), t,
                            Topology.SIGMA_CW) is Verdict.CONVERGES


def test_fu_extract_finite_fringe_case():
    # cf(t) = omega, one meeting child cone: members must avoid it
    d = full(2, o(W, 2))
    t = resolve(d, LEFT_OMEGA)
    A = UnionSpec((OmegaFamily(tpl_0n1()),
                   Explicit(((word("0", W), Child(0)),))))
    seq = fu_extract(d, A, t)
    assert cluster_or_limit(d, SeqSpec(tail=seq.tail), t,
                            Topology.SIGMA_CW) is Verdict.CONVERGES


# -- maximality of the sigma topology -----------------------------------------------------

def test_maximality_witness_segment():
    d = seg(o(W, 1))
    U = [CDiff((up(W),), ((up(o(W, 1)),),))]  # the singleton {node at w}
    wit = maximality_witness(d, U)
    assert isinstance(wit, MaximalityWitness)
    assert wit.t.ht == W
    assert wit.verified
    hts = [resolve(d, s).ht for s in wit.seq.head]
    assert all(cmp(a, b) < 0 for a, b in zip(hts, hts[1:]))


def test_maximality_already_open():
    d = seg(o(W, 1))
    assert maximality_witness(d, [Cone((up(3),))]) is ALREADY_SIGMA_OPEN
    wit = maximality_witness(BINARY_W1, [Wedge(ZERO_ONE_BRANCH, ())])
    assert wit is ALREADY_SIGMA_OPEN


def test_maximality_mixed_union():
    d = seg(o(W, 1))
    U = [Cone((up(3),)), CDiff((up(W),), ())]
    # the minimal element of the union is the node at height 3: cf = 0
    assert maximality_witness(d, U) is ALREADY_SIGMA_OPEN


# -- refinement invariant -------------------------------------------------------------------

def test_cw_subbasic_implies_sigma_subbasic():
    rng = random.Random(5)
    from wedgetree.corpus import random_description, sample_nodes
    checked = 0
    while checked < 1000:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        for n in sample_nodes(d, rng, 6):
            if is_subbasic(d, n, Topology.CW):
                assert is_subbasic(d, n, Topology.SIGMA_CW)
            checked += 1


def _brute_eventually_inside(d, seq, wedge, upto=40):
    """Direct membership computation: the decider's oracle."""
    last_out = -1
    for n in range(upto):
        if not member(d, seq.term(d, n), wedge):
            last_out = n
    return last_out < upto - 10


def test_cluster_decisions_match_direct_membership():
    d = BINARY_W1
    x = resolve(d, LEFT_OMEGA)
    seq = seq_0n1()
    assert cluster_or_limit(d, seq, x, Topology.SIGMA_CW) is Verdict.CONVERGES
    for m in (1, 3, 7):
        base = [word("0", m)]
        for excluded in ((), ((word("0", W), Child(0)),), ((word("0", W), Child(1)),)):
            wedge = Wedge(tuple(base), excluded)
            assert _brute_eventually_inside(d, seq, wedge)
    # and at the uncountable top the wedge from the countably-closed witness
    # excludes the whole sequence
    top = resolve(d, ZERO_ONE_BRANCH)
    wit = countably_closed_witness(d, top, OmegaFamily(tpl_0n1()))
    for n in range(30):
        assert not member(d, seq.term(d, n), Cone(wit.p.address()))


# -- budgets decide nothing ------------------------------------------------------------------

# the named search budgets of ``topology``
BUDGETS = ("_FU_PICKS", "_CLUB_STEPS", "_MAXIMALITY_HEAD")


def _acceptance_runs():
    """Every club, fu-extract and disjoint-closures case of the acceptance
    suites."""
    runs = [lambda d=d, t=t, S=S: club_accumulation(d, resolve(d, t), S)
            for d, t, S in club_cases()]
    runs += [lambda d=d, t=t, A=A: fu_extract(d, A, resolve(d, t))
             for _, d, t, A in fu_cases()]
    runs += [lambda d=d, A=A, B=B: disjoint_closures(d, A, B)
             for d, A, B, _ in disjoint_closure_cases()]
    return runs


def _triple_runs():
    """fu_extract on every generated triple."""
    return [lambda d=d, t=t, A=A: fu_extract(d, A, resolve(d, t))
            for d, A, t in fu_triples()]


def _outcomes(runs):
    """The outcome kind of every run: the result's type (with a disjoint
    verdict's kind), or the class of the error it raised."""
    out = []
    for run in runs:
        try:
            result = run()
        except WedgeTreeError as e:
            out.append(type(e).__name__)
        else:
            out.append((type(result).__name__, getattr(result, "kind", None)))
    return out


@pytest.mark.parametrize("names", [("_FU_PICKS",), BUDGETS], ids=["fu-picks", "all"])
def test_budgets_decide_nothing(monkeypatch, names):
    """Raising search budgets fourfold changes no outcome.  The series memo
    is cleared first, so the raised budgets meet series built again, whose
    profile answers are computed again, not the ones kept from the first
    run."""
    named = {n for n, v in vars(topology).items()
             if n.startswith("_") and n.isupper() and type(v) is int}
    assert named == set(BUDGETS)
    before = _outcomes(_acceptance_runs())
    assert len(before) == 10 + 9 + 30
    cached_series.cache_clear()
    for name in names:
        monkeypatch.setattr(topology, name, 4 * getattr(topology, name))
    assert _outcomes(_acceptance_runs()) == before


def test_budgets_decide_nothing_on_generated_triples(monkeypatch):
    """The same law over the generated Frechet-Urysohn triples, every
    budget raised fourfold at once."""
    before = _outcomes(_triple_runs())
    assert len(before) == 300
    cached_series.cache_clear()
    for name in BUDGETS:
        monkeypatch.setattr(topology, name, 4 * getattr(topology, name))
    assert _outcomes(_triple_runs()) == before


def test_frechet_urysohn_law_on_generated_triples():
    """Where a fitted family converges to t in the countably coarse wedge
    topology, fu_extract gives a sequence that converges to t there, or
    raises UndecidableTailPattern, never NotInClosure; and convergence there
    implies convergence in the coarse wedge topology."""
    converged = 0
    for d, A, taddr in fu_triples():
        t = resolve(d, taddr)
        family = SeqSpec(tail=Indexed(A.template))
        if cluster_or_limit(d, family, t, Topology.SIGMA_CW) is not Verdict.CONVERGES:
            continue
        assert cluster_or_limit(d, family, t, Topology.CW) is Verdict.CONVERGES
        try:
            seq = fu_extract(d, A, t)
        except UndecidableTailPattern:
            continue
        tail = SeqSpec(tail=seq.tail)
        for topo in (Topology.SIGMA_CW, Topology.CW):
            assert cluster_or_limit(d, tail, t, topo) is Verdict.CONVERGES, (d, A, taddr)
        assert contains(d, A, seq.head[0])
        converged += 1
    assert converged >= 250


# -- what a part of a set spec answers, against its members ----------------------------

# heights past every countable offset the case tables use: a member set is
# cofinal below a point of cofinality w1 when it has members below it at
# each of these heights above the point's own w1-multiple
_LADDER = [omega_power(OMEGA, k) for k in (1, 2, 3)]
_CLUB_PARAMS = [times_nat(omega_power(OMEGA), 4)]  # a club's members meet past the ladder


def _part_cases():
    """(tree, part, extra query nodes) over the witness case tables, the
    generated Frechet-Urysohn triples, and explicit points and cone bases at
    uncountable heights."""
    specs = [(d, S, [t]) for d, t, S in club_cases()]
    specs += [(d, A, [t]) for _, d, t, A in fu_cases()]
    specs += [(d, S, []) for d, S in separating_family_cases()]
    specs += [(d, S, []) for d, A, B, _ in disjoint_closure_cases() for S in (A, B)]
    specs += [(d, A, [t]) for d, A, t in fu_triples(seed=7)]
    tall = seg(o(times_nat(W1, 2), 3))
    specs += [
        (BINARY_W1, Explicit(((word("0", W1),), (word("1", W1),), (Child(1),))), []),
        (BINARY_W1, ConeSet((word("1", W1),)), []),
        (tall, Explicit(((up(W1),), (up(times_nat(W1, 2)),), (up(3),))), []),
        (tall, ConeSet((up(W1),)), []),
        (tall, ConeSet((up(o(W1, 1)),)), []),
        (tall, Branch((up(times_nat(W1, 2)),)), []),
        (HatOf(BINARY_W1), ConeSet((word("0", W1), Below())), [(word("0", W1),)]),
    ]
    return [(d, part, [resolve(d, t) for t in ts])
            for d, S, ts in specs for part in spec_parts(S)]


def _pool(d, part, extra):
    """Query nodes: the extra ones, the nodes the part names, a family's
    first members and anchor, the tree's spot panel, each with its children
    and its ancestors at a few heights."""
    nodes = list(extra) + list(_spot_nodes(d))
    if isinstance(part, (OmegaFamily, ClubFamily)):
        nodes += [series_of(d, part).at(p) for p in range(3)]
        nodes += [resolve(d, part.anchor)] if isinstance(part, ClubFamily) else []
    else:
        nodes += named_nodes(d, part)
        nodes += [c for n in named_nodes(d, part) for c in children(d, n, 2)]
    out = {}
    for n in nodes:
        out[n.parts] = n
        for h in (ZERO, ONE, W, o(W, 1), W1, o(W1, 1)):
            if cmp(h, n.ht) < 0:
                a = ancestor_at(d, n, h)
                out[a.parts] = a
    return list(out.values())


def _ladder(d, q):
    """Ancestors of q, of cofinality w1, at the ``_LADDER`` heights above
    q's w1-multiple below it."""
    below = Ordinal(q.ht.omega1 - 1, ())
    return [ancestor_at(d, q, add(below, h)) for h in _LADDER]


def _named_member(d, part, x):
    """Is x a member of an explicit set, branch or cone set, read off the
    nodes it names: one of the points, below the top, above the base?"""
    named = named_nodes(d, part)
    if isinstance(part, Explicit):
        return any(x.parts == n.parts for n in named)
    if isinstance(part, Branch):
        return leq(d, x, named[0])
    return leq(d, named[0], x)


def _brute(d, part, q, pool):
    """(reaches, meet height, limit, meets increase) of part at q, read off
    members: a family's at parameters below 120 (and, for a club, past the
    ladder), the other kinds' among the nodes the part names, the pool, q
    and q's ladder, by the kind's membership."""
    if isinstance(part, (OmegaFamily, ClubFamily)):
        series = series_of(d, part)
        params = list(range(120))
        if isinstance(part, ClubFamily):
            params += [a for a in _CLUB_PARAMS if cmp(a, series.bound) < 0]
        members = [series.at(p) for p in params]
    else:
        cands = list(named_nodes(d, part)) + pool + [q]
        if q.cof is Cofinality.OMEGA1:
            cands += _ladder(d, q)
        members = [m for m in cands if _named_member(d, part, m)]
    heights = [meet(d, m, q).ht for m in members]
    best = max(heights, key=functools.cmp_to_key(cmp), default=ZERO)
    rising = len(heights) >= 120 and all(
        cmp(a, b) < 0 for a, b in zip(heights[100:120], heights[101:120]))
    limit = q.cof is Cofinality.OMEGA1 and all(
        any(cmp(rung.ht, h) < 0 and not leq(d, q, m) for m, h in zip(members, heights))
        for rung in _ladder(d, q)[:-1])
    return any(leq(d, q, m) for m in members), best, limit, rising


def test_part_answers_match_their_members():
    """``named_nodes``, ``reaches``, ``meet_height`` and ``limit_at`` agree
    with brute force over the members.  Where a family's meets with q still
    rise at parameter 119 and no member reaches their supremum, the meet
    height lies above all of them, at most at q's height."""
    asked = limits = rising = 0
    for d, part, extra in _part_cases():
        pool = _pool(d, part, extra)
        family = isinstance(part, (OmegaFamily, ClubFamily))
        named = named_nodes(d, part)
        assert all(contains(d, part, n) for n in named), (d, part)
        # a family names none, a branch or cone set one node
        assert len(named) == (0 if family else len(part.points)
                              if isinstance(part, Explicit) else 1)
        for q in pool:
            if not family:
                assert _named_member(d, part, q) is contains(d, part, q), (d, part, q)
            reach, best, limit, up_ = _brute(d, part, q, pool)
            assert reaches(d, part, q) is reach, (d, part, q)
            assert limit_at(d, part, q) is limit, (d, part, q)
            h = meet_height(d, part, q)
            if up_ and cmp(best, h) < 0:
                assert cmp(h, q.ht) <= 0, (d, part, q)
            else:
                assert cmp(h, best) == 0, (d, part, q, h, best)
            asked += 1
            limits += limit
            rising += up_
    # limits at 14 branch, 4 cone and 15 club queries; 1,007 family queries
    # still rising at parameter 119, where the answer is their supremum
    assert (asked, limits, rising) == (5517, 33, 1007)
