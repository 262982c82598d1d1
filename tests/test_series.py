import functools
import random

import pytest

from wedgetree.corpus import sample_nodes
from wedgetree.errors import UndecidableTailPattern
from hypothesis import assume, given, settings, strategies as st

from wedgetree.ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, Ordinal, add, cmp, limit_of_affine, nat, times_nat,
)
from wedgetree.trees import OMEGA_BRANCH, Child, Copy, Full, Up, Word, resolve
from wedgetree.topology import ClubFamily, OmegaFamily, contains, series_of
from wedgetree.series import (
    _NAT_PROBES, Param, Profile, SymbolicSeries, _Slot, _fit_affine, _ord_probes,
    fit_template, instantiate, next_param,
)

from helpers import BINARY_W, BINARY_W1, FAN_OMEGA, REMARK_TREE, W, o, seg, up, word

FULL_W = Full(OMEGA_BRANCH, o(W, 1))     # omega-branching tree of height w+1


def _members(d, template, params=range(2, 10)):
    return [resolve(d, instantiate(template, p)) for p in params]


@pytest.mark.parametrize("d, template", [
    (BINARY_W1, (Word((0,), Param()), Child(1))),      # run count slot
    (FAN_OMEGA, (Copy(0, Param()),)),                  # copy index slot
    (FULL_W, (Child(Param()),)),                       # child letter slot
])
def test_fit_template_reproduces_the_nodes(d, template):
    nodes = _members(d, template)
    fitted = fit_template(nodes)
    assert fitted is not None
    assert [resolve(d, instantiate(fitted, i)) for i in range(len(nodes))] == nodes


def test_fit_template_rejects_up_slots_and_constant_lists():
    assert fit_template(_members(seg(OMEGA1), (Up(Param()),))) is None
    assert fit_template([resolve(BINARY_W1, (word("0", 3),))] * 8) is None


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
