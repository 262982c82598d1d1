import random

import pytest

from wedgetree.corpus import sample_nodes
from wedgetree.errors import UndecidableTailPattern
from wedgetree.ordinals import OMEGA1, ONE, ZERO, times_nat
from wedgetree.trees import OMEGA_BRANCH, Child, Copy, Full, Up, Word, resolve
from wedgetree.topology import ClubFamily, OmegaFamily, series_of
from wedgetree.series import Param, SymbolicSeries, fit_template, instantiate

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


@pytest.mark.parametrize("d, spec", TOPOLOGY_FAMILIES)
def test_memoized_series_agrees_with_a_fresh_one(d, spec):
    memo = series_of(d, spec)
    probes = sample_nodes(d, random.Random(0), 8) + memo.limit_nodes() + \
        [memo.at(p) for p in memo.params_upto(6)]
    first = _answers(memo, probes)
    assert series_of(d, spec) is memo
    assert _answers(series_of(d, spec), probes) == first == _answers(_fresh(d, spec), probes)
