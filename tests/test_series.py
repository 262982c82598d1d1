import pytest

from wedgetree.ordinals import OMEGA1, times_nat
from wedgetree.trees import OMEGA_BRANCH, Child, Copy, Full, Up, Word, resolve
from wedgetree.topology import ClubFamily, OmegaFamily, series_of
from wedgetree.series import Param, fit_template, instantiate

from helpers import BINARY_W1, FAN_OMEGA, W, o, seg, word

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
