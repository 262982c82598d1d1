import random

import pytest

from wedgetree import topology
from wedgetree.constructions import disjoint_closures
from wedgetree.errors import (
    IllegalWedge, NotAccumulating, NotInClosure, PreconditionFailed,
    UndecidableTailPattern, WedgeTreeError,
)
from wedgetree.ordinals import ONE, ZERO, cmp, nat
from wedgetree.series import cached_series
from wedgetree.trees import (
    Child, Copy, Up, Word, leq, resolve, validate,
)
from wedgetree.topology import (
    ALREADY_SIGMA_OPEN, CDiff, ClubFamily, Cone, ConeComplement,
    EventuallyConstant, Explicit, Indexed, MaximalityWitness, OmegaFamily,
    Param, SeqSpec, Topology, UnionSpec, Verdict, Wedge, club_accumulation,
    cluster_or_limit, contains, countably_closed_witness, fu_extract,
    is_subbasic, maximality_witness, member,
)

from helpers import (
    BINARY_W, BINARY_W1, FAN_OMEGA, REMARK_TREE, W, W1, W2, club_cases,
    disjoint_closure_cases, fu_cases, fu_triples, full, o, seg, up, word,
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
    runs = [lambda d=d, t=t, S=S: club_accumulation(
                d, resolve(d, t), S, steps=topology._CLUB_STEPS)
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
