import functools
import gc
import random
import weakref
from pathlib import Path

import pytest

from wedgetree.corpus import sample_nodes
from wedgetree.errors import UndecidableTailPattern
from hypothesis import assume, given, settings, strategies as st

from wedgetree.ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, Ordinal, add, cmp, limit_of_affine, nat, omega_power,
    times_nat,
)
from wedgetree.trees import (
    OMEGA_BRANCH, Child, Copy, Full, Up, Word, ancestor_at, child_toward,
    children, cofinal_I_nodes, leq_parts, meet_parts, node_at, resolve,
)
from wedgetree.topology import (
    ClubFamily, OmegaFamily, contains, series_of, spec_parts,
)
from wedgetree import series as series_module
from wedgetree.series import (
    _NAT_PROBES, Param, Profile, SymbolicSeries, _Slot, _fit_affine, _ord_probes,
    cached_series, fit_template, instantiate, next_param,
)

from helpers import (
    BINARY_W, BINARY_W1, FAN_OMEGA, REMARK_TREE, W, club_cases, fu_cases,
    fu_triples, o, seg, up, word,
)

ROOT = Path(__file__).resolve().parent.parent

FULL_W = Full(OMEGA_BRANCH, o(W, 1))     # omega-branching tree of height w+1


def _members(d, template, params=range(2, 10)):
    return [resolve(d, instantiate(template, p)) for p in params]


@pytest.mark.parametrize("d, template", [
    (BINARY_W1, (Word((0,), Param()), Child(1))),      # run count slot
    (FAN_OMEGA, (Copy(0, Param()),)),                  # copy index slot
    (FULL_W, (Child(Param()),)),                       # child letter slot
    (seg(OMEGA1), (Up(Param()),)),                     # up position slot
])
def test_fit_template_reproduces_the_nodes(d, template):
    nodes = _members(d, template)
    fitted = fit_template(nodes)
    assert fitted is not None
    assert [resolve(d, instantiate(fitted, i)) for i in range(len(nodes))] == nodes


def test_fit_template_rejects_constant_lists():
    assert fit_template([resolve(BINARY_W1, (word("0", 3),))] * 8) is None


def test_fit_template_fits_a_tail_only_after_a_finite_scale():
    # the cofinal I-points below w*2 sit at w + j + 1, the template's
    # (up (lin (+ w 1) 1)); those below w^2 sit at w*j + 1, which no Param says
    d = seg(omega_power(nat(2)))
    below = {h: cofinal_I_nodes(d, resolve(d, (up(h),)), 8)
             for h in (times_nat(W, 2), omega_power(nat(2)))}
    assert fit_template(below[times_nat(W, 2)]) == (Up(Param(o(W, 1), ONE)),)
    nodes = below[omega_power(nat(2))]
    assert [n.ht for n in nodes[1:3]] == [o(W, 1), o(times_nat(W, 2), 1)]
    assert fit_template(nodes) is None


def _limits(d, spec):
    return [n.parts for n in series_of(d, spec).limit_nodes()]


def _at(d, *steps):
    return resolve(d, steps).parts


def test_limit_nodes_of_an_omega_count_family():
    spec = OmegaFamily((Word((0,), Param()), Child(1)))
    assert _limits(BINARY_W1, spec) == [_at(BINARY_W1, word("0", W))]


def test_limit_nodes_of_a_club_family():
    spec = ClubFamily((word("0", OMEGA1),), (Word((0,), Param()), Child(1)))
    assert _limits(BINARY_W1, spec) == [
        _at(BINARY_W1, word("0", W)), _at(BINARY_W1, word("0", times_nat(W, 2)))]


def test_limit_nodes_of_index_slot_families():
    assert _limits(FAN_OMEGA, OmegaFamily((Copy(0, Param()),))) == [_at(FAN_OMEGA)]
    spec = OmegaFamily((Child(0), Child(Param())))
    assert _limits(FULL_W, spec) == [_at(FULL_W, Child(0))]


# -- the series memo -----------------------------------------------------------------

def _count_run(base=ZERO, scale=ONE):
    return Word((0,), Param(base, scale))


# the families of tests/test_topology.py
TOPOLOGY_FAMILIES = [
    (BINARY_W1, OmegaFamily((_count_run(), Child(1)))),
    (BINARY_W1, OmegaFamily((_count_run(ZERO, W), Child(1)))),
    (BINARY_W1, ClubFamily((word("0", OMEGA1),), (_count_run(), Child(1)))),
    (BINARY_W, OmegaFamily((_count_run(),))),
    (BINARY_W, OmegaFamily((Child(0), Word((1,), Param())))),
    (FAN_OMEGA, OmegaFamily((Copy(0, Param()),))),
    (seg(OMEGA1), OmegaFamily((Up(Param(ONE, ONE)),))),
    (REMARK_TREE, OmegaFamily((up(OMEGA1), Copy(0, Param())))),
]

# slots whose base has a coefficient of 50 or more: (tree, family, base)
FAR_BASES = [
    (seg(OMEGA1), OmegaFamily((Up(Param(nat(60), ONE)),)), nat(60)),
    (seg(OMEGA1), OmegaFamily((Up(Param(nat(100), ONE)),)), nat(100)),
    (BINARY_W1, ClubFamily((word("0", OMEGA1),), (_count_run(nat(60)), Child(1))), nat(60)),
]


def test_series_of_returns_one_series_for_equal_specs():
    spec = OmegaFamily((_count_run(), Child(1)))
    twin = OmegaFamily((_count_run(), Child(1)))
    assert spec == twin and spec is not twin
    assert series_of(BINARY_W1, spec) is series_of(BINARY_W1, twin)


def test_unfittable_series_raises_on_every_call():
    spec = OmegaFamily((_count_run(), Word((1,), Param())))   # 0^n 1^n: two slots
    for _ in range(2):
        with pytest.raises(UndecidableTailPattern):
            series_of(BINARY_W1, spec)


def _fresh(d, spec):
    if isinstance(spec, ClubFamily):
        return SymbolicSeries(d, spec.template, True, resolve(d, spec.anchor).ht)
    return SymbolicSeries(d, spec.template)


def _answers(series, probes):
    return (series.parts,
            [n.parts for n in series.limit_nodes()],
            [(repr(series.le_profile(u)), repr(series.eq_profile(u))) for u in probes])


@pytest.mark.parametrize("d, spec", TOPOLOGY_FAMILIES + [(d, s) for d, s, _ in FAR_BASES])
def test_memoized_series_agrees_with_a_fresh_one(d, spec):
    memo = series_of(d, spec)
    probes = sample_nodes(d, random.Random(0), 8) + memo.limit_nodes() + \
        [memo.at(p) for p in memo.params_upto(6)]
    first = _answers(memo, probes)
    assert series_of(d, spec) is memo
    assert _answers(series_of(d, spec), probes) == first == _answers(_fresh(d, spec), probes)


@pytest.mark.parametrize("d, spec, base", FAR_BASES)
def test_far_bases_are_fitted(d, spec, base):
    assert series_of(d, spec).slot.base == base


# members of 0^a 0^2 1 over the club of 0^(w1): a + 2 must be cancelled on
# the right to find a
CLUB_00 = ClubFamily((word("0", OMEGA1),), (_count_run(), word("0", 2), Child(1)))


@pytest.mark.parametrize("p", [nat(0), nat(12), add(OMEGA, ONE), add(OMEGA, nat(40)),
                               add(OMEGA, nat(70)), add(times_nat(OMEGA, 2), nat(7))])
def test_club_family_contains_its_own_members(p):
    member = resolve(BINARY_W1, instantiate(CLUB_00.template, p))
    assert contains(BINARY_W1, CLUB_00, member)


@pytest.mark.parametrize("d, template", [
    (seg(OMEGA1), (Up(Param()), up(OMEGA))),                     # position slot
    (BINARY_W1, (_count_run(), word("0", OMEGA), Child(1))),     # count slot
])
def test_ordinal_slot_with_an_infinite_tail_is_undecidable(d, template):
    with pytest.raises(UndecidableTailPattern):
        SymbolicSeries(d, template, True, OMEGA1)


@pytest.mark.parametrize("d, template", [
    (REMARK_TREE, (up(OMEGA1), Copy(0, Param()))),     # copy index slot
    (FULL_W, (Child(Param()),)),                       # child letter slot
])
def test_ordinal_parameter_in_an_index_slot_is_undecidable(d, template):
    assert resolve(d, instantiate(template, nat(3))) == resolve(d, instantiate(template, 3))
    with pytest.raises(UndecidableTailPattern):
        instantiate(template, OMEGA)
    with pytest.raises(UndecidableTailPattern):
        SymbolicSeries(d, template, True, OMEGA1)


def test_ordinal_threshold_counts_the_finite_tail():
    """Member a of ``0^a 0^2`` is 0^(a+2): 0^5 lies below the members from 3
    on, member 3 being 0^5 itself, and in ``CLUB_00`` 0^(w+2) lies below the
    members from w on."""
    s = SymbolicSeries(BINARY_W1, (_count_run(), word("0", 2)), True, OMEGA1)
    t = resolve(BINARY_W1, (word("0", 5),))
    assert repr(s.le_profile(t)) == "Profile(from, Ordinal(3), +(), -())"
    assert repr(s.eq_profile(t)) == "Profile(only, (Ordinal(3),), +(), -())"
    club = series_of(BINARY_W1, CLUB_00)
    assert club.le_profile((word("0", add(OMEGA, nat(2))),)).data == OMEGA


_ORD_SEARCH = [add(b, nat(k)) for b in (ZERO, OMEGA, times_nat(OMEGA, 2), times_nat(OMEGA, 3))
               for k in range(20)]


def test_ordinal_slot_threshold_is_the_least_search():
    """``solve_ge`` on an ordinal slot base + a + n is the least a of the
    search that reaches c, and None when that a is not below the bound."""
    for base in (ZERO, nat(3), OMEGA, add(OMEGA, nat(2)), OMEGA1):
        for n in range(4):
            slot = _Slot("count", 0, 0, base, ONE, nat(n), True)
            for c in [nat(1)] + [add(base, q) for q in _ORD_SEARCH[::3]]:
                want = next(a for a in _ORD_SEARCH if cmp(slot.value(a), c) >= 0)
                assert slot.solve_ge(c, OMEGA1) == want, (base, n, c)
            assert slot.solve_ge(add(base, OMEGA), OMEGA) is None


# -- solving a natural-number slot ---------------------------------------------------

def test_threshold_profiles_far_past_small_parameters():
    series = SymbolicSeries(seg(OMEGA1), (Up(Param()),))
    for h in (4000, 5000, 10 ** 9):
        u = resolve(seg(OMEGA1), (up(h),))
        assert repr(series.le_profile(u)) == "Profile(from, %d, +(), -())" % h
        assert repr(series.eq_profile(u)) == "Profile(only, (%d,), +(), -())" % h


_LINEAR_CAP = 4096


def _linear_solve_ge(slot, c):
    """Reference for a moving slot: the parameter-by-parameter search."""
    if cmp(c, limit_of_affine(slot.base, slot.scale)) >= 0:
        return None
    for p in range(_LINEAR_CAP + 1):
        if cmp(slot.value(p), c) >= 0:
            return p
    raise UndecidableTailPattern("threshold search exceeded the cap")


def _linear_solve_eq(slot, c):
    if cmp(c, limit_of_affine(slot.base, slot.scale)) >= 0:
        return []
    sols = []
    for p in range(_LINEAR_CAP + 1):
        v = slot.value(p)
        if v == c:
            sols.append(p)
        if cmp(v, c) > 0:
            return sols
    raise UndecidableTailPattern("equality search exceeded the cap")


_EXPONENTS = [ZERO, ONE, nat(2), OMEGA]


@st.composite
def _ordinals(draw, omega1=True, min_terms=0, coeffs=st.integers(1, 4)):
    exps = sorted(draw(st.sets(st.sampled_from(range(len(_EXPONENTS))),
                               min_size=min_terms, max_size=3)), reverse=True)
    terms = tuple((_EXPONENTS[e], draw(coeffs)) for e in exps)
    return Ordinal(draw(st.integers(0, 2)) if omega1 else 0, terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ordinals(), _ordinals(omega1=False, min_terms=1), _ordinals(),
       st.integers(0, _LINEAR_CAP - 1), st.sampled_from(["at", "after", "free"]),
       _ordinals())
def test_slot_solutions_agree_with_the_linear_search(base, scale, tail, p, how, free):
    slot = _Slot("up", 0, None, base, scale, tail, False)
    c = {"at": slot.value(p), "after": add(slot.value(p), ONE), "free": free}[how]
    try:
        want_ge, want_eq = _linear_solve_ge(slot, c), _linear_solve_eq(slot, c)
    except UndecidableTailPattern:
        assume(False)  # threshold past the reference's reach
    assert slot.solve_ge(c) == want_ge
    assert slot.solve_eq(c) == want_eq


# -- fitting affine families exactly ---------------------------------------------------

_BIG = st.integers(51, 500)
_ORD_CHECKS = (ZERO, ONE, nat(12), add(OMEGA, ONE), times_nat(OMEGA, 3),
               add(times_nat(OMEGA, 2), nat(7)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ordinals(coeffs=_BIG), _ordinals(omega1=False, min_terms=1, coeffs=_BIG),
       _ordinals(omega1=False, coeffs=_BIG), st.booleans())
def test_fit_reproduces_affine_families_with_large_coefficients(base, scale, tail, ordinal):
    if ordinal:
        scale, probes, checks = ONE, _ord_probes(), _ORD_CHECKS
    else:
        probes, checks = _NAT_PROBES, (1, 12, 20, 1000)
    true = _Slot("up", 0, None, base, scale, tail, ordinal)
    values = [(p, true.value(p)) for p in probes]
    assume(len({v for _, v in values}) > 1)
    fit = _fit_affine(values, ordinal)
    assert fit is not None
    fitted = _Slot("up", 0, None, *fit, ordinal)
    for p in tuple(probes) + checks:
        assert fitted.value(p) == true.value(p)


# -- least parameters read off profiles ------------------------------------------------

_ORD_BASES = (ZERO, OMEGA, times_nat(OMEGA, 2), times_nat(OMEGA, 3))
# drawn points stop ten short of the end of each block of the range (200, or
# base + 40), and past a block's last drawn point every profile keeps its
# answer, so the least answer, if there is one, lies in the range
_NAT_RANGE = list(range(200))
_ORD_RANGE = [add(b, nat(n)) for b in _ORD_BASES for n in range(40)]


def _old_first(prof):
    """Reference: the body of ``Profile.first`` before it took other profiles."""
    candidates = [p for p in prof.extras]
    if prof.kind == "from":
        base = prof.data
        while base in prof.holes:
            base = next_param(base)
        candidates.append(base)
    else:
        candidates.extend(p for p in prof.data if p not in prof.holes)
    if not candidates:
        return None
    if any(isinstance(c, Ordinal) for c in candidates):
        candidates = [c if isinstance(c, Ordinal) else nat(c) for c in candidates]
        return sorted(candidates, key=functools.cmp_to_key(cmp))[0]
    return min(candidates)


@st.composite
def _profile(draw, ordinal, int_zero_tail=False):
    """A tail or a finite set, with finite extras and holes.  With
    ``int_zero_tail`` an ordinal profile may be ``Profile.always()``, whose
    tail starts at the int 0 while its patch points are ordinals."""
    if ordinal:
        point = st.builds(lambda b, n: add(b, nat(n)), st.sampled_from(_ORD_BASES),
                          st.integers(0, 29))
    else:
        point = st.integers(0, 149)
    points = st.lists(point, max_size=4, unique=True)
    if draw(st.booleans()):
        p0 = draw(point)
        if ordinal and int_zero_tail and draw(st.integers(0, 3)) == 0:
            p0 = 0
        prof = Profile.from_(p0)
    else:
        prof = Profile.only(draw(points))
    return prof.patched(draw(points), draw(points))


@st.composite
def _profile_sets(draw, int_zero_tail=False, max_others=3):
    ordinal = draw(st.booleans())
    prof = _profile(ordinal, int_zero_tail)
    return ordinal, draw(prof), draw(st.lists(prof, max_size=max_others))


def _as_param(p, ordinal):
    return nat(p) if ordinal and isinstance(p, int) else p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_profile_sets(int_zero_tail=True), _profile_sets(max_others=0))
def test_first_outside_other_profiles_is_the_least_search(drawn, typed):
    ordinal, prof, others = drawn
    want = next((p for p in (_ORD_RANGE if ordinal else _NAT_RANGE)
                 if prof.holds_at(p) and not any(b.holds_at(p) for b in others)), None)
    assert _as_param(prof.first(*others), ordinal) == want
    # with no other profiles it is the old least point, on profiles whose
    # points all have one type
    ordinal, prof, _ = typed
    assert _as_param(prof.first(), ordinal) == _as_param(_old_first(prof), ordinal)


def test_first_skips_an_ordinal_hole_of_an_int_tail():
    """``Profile.always()`` starts at the int 0; an ordinal series patches
    it with ordinal holes, which the old body did not see."""
    prof = Profile.always().patched((), (ZERO,))
    assert prof.first() == nat(1)
    assert _old_first(prof) == 0


# -- the profile memos ---------------------------------------------------------

PROFILE_QUESTIONS = ("le_profile", "eq_profile", "meet_profile_with")


def _witness_series(monkeypatch):
    """Every series that one round of the benchmark's witness case tables
    builds, with the series memo cleared first, so each is built in the
    round."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs
    import workloads
    built = []
    init = SymbolicSeries.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    cached_series.cache_clear()
    monkeypatch.setattr(SymbolicSeries, "__init__", record)
    rng = random.Random(0)
    for kind, cases in inputs.witness_cases().items():
        for case in cases:
            workloads.witness_request(kind, case, rng)
    monkeypatch.setattr(SymbolicSeries, "__init__", init)
    return built


def _question_nodes(series):
    """The series' sample members, their children, and their ancestors at
    omega, omega*2 and omega1."""
    d = series.d
    members = [series.at(p) for p in series.params_upto(6)]
    out = list(members)
    for x in members:
        out += children(d, x, 2)
        out += [ancestor_at(d, x, h) for h in (OMEGA, times_nat(OMEGA, 2), OMEGA1)
                if cmp(h, x.ht) <= 0]
    return list({x.parts: x for x in out}.values())


def _same_answer(a, b):
    if isinstance(a, Profile):
        return isinstance(b, Profile) and \
            (a.kind, a.data, a.extras, a.holes) == (b.kind, b.data, b.extras, b.holes)
    return a == b


def test_profile_memos_agree_with_fresh_series(monkeypatch):
    """Each witness series answers every profile question as an uncached
    series with the same arguments does; a second call returns the same
    object, and a question that raises raises again."""
    built = _witness_series(monkeypatch)
    assert len(built) > 50
    asked = raised = 0
    for series in built:
        fresh = SymbolicSeries(series.d, series.template, series.ordinal, series.bound)
        for u in _question_nodes(series):
            for name in PROFILE_QUESTIONS:
                uncached = getattr(SymbolicSeries, "_" + name).__wrapped__
                asked += 1
                try:
                    want = uncached(fresh, u)
                except UndecidableTailPattern:
                    raised += 1
                    for _ in range(2):
                        with pytest.raises(UndecidableTailPattern):
                            getattr(series, name)(u)
                    continue
                got = getattr(series, name)(u)
                assert _same_answer(got, want), (series.template, u, name, got, want)
                assert getattr(series, name)(u) is got
                assert getattr(series, name)(u.address()) is got
    assert asked > 1000 and raised < asked


def test_profile_answers_die_with_their_series():
    """A series' profile answers live on the series, so once ``cached_series``
    drops it nothing else keeps it alive."""
    d = seg(OMEGA1)
    cached_series.cache_clear()
    first = cached_series(d, (Up(Param(ZERO, ONE)),))
    for name in PROFILE_QUESTIONS:
        getattr(first, name)((up(OMEGA1),))
    assert len(first.answers) == len(PROFILE_QUESTIONS)
    gone = weakref.ref(first)
    del first
    for i in range(1, 201):
        cached_series(d, (Up(Param(nat(i), ONE)),)).le_profile((up(i + 3),))
    gc.collect()
    assert gone() is None


def test_profile_memo_keeps_its_named_bound(monkeypatch):
    """At ``PROFILE_CACHE_SIZE`` answers a series drops its oldest one, and
    the answers it still holds are the ones asked last."""
    monkeypatch.setattr(series_module, "PROFILE_CACHE_SIZE", 5)
    s = SymbolicSeries(seg(OMEGA1), (Up(Param(ZERO, ONE)),))
    asked = [resolve(s.d, (up(i),)) for i in range(12)]
    answers = [s.le_profile(u) for u in asked]
    assert len(s.answers) == 5
    assert list(s.answers) == [("_le_profile", u) for u in asked[-5:]]
    assert s.le_profile(asked[-1]) is answers[-1]


def test_meet_profile_of_a_family_that_stays_in_the_cone():
    """All but finitely many members of ``(up n)`` lie above ``(up 3)``, so
    their meets with it are ``(up 3)`` itself: a constant height, although
    members 0, 1 and 2 meet it lower."""
    s = SymbolicSeries(seg(OMEGA1), (Up(Param()),))
    t = resolve(s.d, (up(3),))
    assert s.le_profile(t).kind == "from" and s.le_profile(t).data == 3
    assert s.meet_profile_with(t) == ("const", nat(3))


def test_meet_profile_sees_the_member_at_t():
    """Member 30 of ``(child n)`` is t = ``(child 30)`` itself, so the meets
    reach height 1 once, though every other member meets t at the root."""
    s = SymbolicSeries(FULL_W, (Child(Param()),))
    t = resolve(FULL_W, (Child(30),))
    assert repr(s.le_profile(t)) == "Profile(only, (30,), +(), -())"
    assert s.meet_profile_with(t) == ("const", ONE)


def test_meet_profile_sees_the_members_past_t():
    """The members 0^(2n) 1 with n >= 3 pass t = 0^5 1 in the slot and meet
    it at 0^5, a height that no member with value 5 reaches: there is none."""
    s = SymbolicSeries(BINARY_W1, (Word((0,), Param(ZERO, nat(2))), Child(1)))
    assert s.meet_profile_with((word("0", 5), Child(1))) == ("const", nat(5))


# -- the child cones a family enters ------------------------------------------------

@functools.lru_cache(maxsize=None)
def _child_families():
    """Corpus-fitted families (with their limit point), the families of the
    Frechet-Urysohn and club suites, the club (ordinal) families among them,
    and a child-letter family whose member 1 merges with the run before it."""
    out = [(cached_series(d, A.template), resolve(d, t))
           for d, A, t in fu_triples(count=120)]
    merged = cached_series(FULL_W, (Child(1), Child(Param())))
    assert merged.at(1).parts != merged._predict(1)
    out.append((merged, resolve(FULL_W, (Child(1),))))
    for d, t, S in [(d, t, A) for _, d, t, A in fu_cases()] + club_cases():
        for part in spec_parts(S):
            if isinstance(part, (OmegaFamily, ClubFamily)):
                out.append((series_of(d, part), resolve(d, t)))
    return tuple(out)


def test_children_profile_matches_the_entered_children():
    """The answer against ``child_toward(t, s_p)`` for the members p < 60
    (and omega, omega+1, omega*2 in a club family) above t: a finite answer
    lists the children they enter and no child no member enters, each with
    its ``le_profile``; an injective one puts every member above t and each
    member from p0 on in its own child, with the ones below p0 listed."""
    families = _child_families()
    assert any(s.ordinal for s, _ in families)
    kinds = set()
    for series, limit in families:
        d = series.d
        params = series.params_upto(60)
        members = [series.at(p) for p in params]
        for t in [limit] + _question_nodes(series) + series.limit_nodes():
            entered = {p: child_toward(d, t, m).parts for p, m in zip(params, members)
                       if leq_parts(t.parts, m.parts) and m.parts != t.parts}
            kids, p0 = series.children_profile(t)
            assert series.children_profile(t) is series.children_profile(t.address())
            listed = {c.parts: prof for c, prof in kids}
            case = (series.template, t)
            if p0 is None:
                kinds.add("finite")
                in_range = {c for c, prof in listed.items()
                            if any(prof.holds_at(p) for p in params)}
                assert in_range == set(entered.values()), case
                assert all(prof.ever for prof in listed.values()), case
                for c, prof in listed.items():
                    for p, m in zip(params, members):
                        assert prof.holds_at(p) == leq_parts(c, m.parts), (case, c, p)
            else:
                kinds.add("injective")
                assert list(entered) == params, case
                late = [entered[p] for p in params if p >= p0]
                assert len(set(late)) == len(late) and not set(late) & set(listed), case
                assert set(listed) == {entered[p] for p in params if p < p0}, case
                assert all(m.parts == series._predict(p)
                           for p, m in zip(params, members) if p >= p0), case
    assert kinds == {"finite", "injective"}


# -- profiles against the members ----------------------------------------------------

def _sample_params(series):
    """The parameters p < 90, and in a club family also omega*k and
    omega*k + 1 (k <= 5), omega^2 and omega^2 + 1 below its bound, in
    increasing order."""
    if not series.ordinal:
        return list(range(90))
    limits = [times_nat(OMEGA, k) for k in range(1, 6)] + [omega_power(nat(2))]
    return [nat(p) for p in range(90)] + [q for lam in limits for q in (lam, add(lam, ONE))
                                          if cmp(q, series.bound) < 0]


def test_profiles_match_the_members():
    """Order, equality and meet profiles against the members themselves,
    over every node the child-cone test asks about, in the omega and club
    families of that test and ``CLUB_00``.  A ``"const"`` meet answer is
    the largest meet height and the heights end constant; an
    ``"increasing"`` one ends strictly increasing, bounds every height and
    lies at or below ``t.ht``.  No question raises."""
    club = series_of(BINARY_W1, CLUB_00)
    families = _child_families() + ((club, resolve(BINARY_W1, CLUB_00.anchor)),)
    kinds = set()
    for series, limit in families:
        d = series.d
        params = _sample_params(series)
        members = [series.at(p) for p in params]
        asked = [limit] + _question_nodes(series) + series.limit_nodes()
        for t in {t.parts: t for t in asked}.values():
            case = (series.template, t)
            le, eq = series.le_profile(t), series.eq_profile(t)
            for p, m in zip(params, members):
                assert le.holds_at(p) == leq_parts(t.parts, m.parts), (case, p)
                assert eq.holds_at(p) == (t.parts == m.parts), (case, p)
            meets = [meet_parts(m.parts, t.parts) for m in members]
            height = {m: node_at(d, m).ht for m in set(meets)}
            heights = [height[m] for m in meets]
            top = max(height.values())
            kind, h = series.meet_profile_with(t)
            kinds.add((kind, series.ordinal))
            tail = heights[-4:]
            if kind == "const":
                assert h == top and len(set(tail)) == 1, case
            else:
                assert kind == "increasing", case
                assert all(cmp(a, b) < 0 for a, b in zip(tail, tail[1:])), case
                assert cmp(top, h) <= 0 and cmp(h, t.ht) <= 0, case
    assert kinds == {("const", False), ("increasing", False),
                     ("const", True), ("increasing", True)}
