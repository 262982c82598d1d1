import random

import pytest

from wedgetree.errors import ParseError
from wedgetree.ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, Ordinal, add, nat, omega_power, times_nat,
)
from wedgetree.trees import Below, Child, Copy, Up, Word, resolve
from wedgetree.topology import Param, UnionSpec
from wedgetree import dsl
from wedgetree.corpus import random_description

from helpers import BINARY_W1, REMARK_TREE, W, W1, full, o, seg


def rt_ordinal(text):
    return dsl.parse_ordinal(dsl.read_sexpr(text))


def test_parse_ordinals():
    assert rt_ordinal("0") == ZERO
    assert rt_ordinal("w") == OMEGA
    assert rt_ordinal("w1") == OMEGA1
    assert rt_ordinal("(+ w1 1)") == add(OMEGA1, ONE)
    assert rt_ordinal("(* 2 w1)") == times_nat(OMEGA1, 2)
    assert rt_ordinal("(^ w 2)") == omega_power(nat(2))
    assert rt_ordinal("(+ (* 2 w1) (* 3 (^ w 2)) 5)") == \
        add(add(times_nat(OMEGA1, 2), omega_power(nat(2), 3)), nat(5))


def test_parse_ordinal_large_products():
    assert rt_ordinal("(* 1000000000 w1)") == Ordinal(10**9, ())
    assert rt_ordinal("(* 1000000000 (+ w 1))") == add(omega_power(ONE, 10**9), ONE)


def test_parse_ordinal_errors():
    with pytest.raises(ParseError):
        rt_ordinal("(^ 2 w)")
    with pytest.raises(ParseError):
        rt_ordinal("(still (open")
    with pytest.raises(ParseError):
        rt_ordinal("q")


def test_parse_descriptions():
    assert dsl.parse_desc(dsl.read_sexpr("(full 2 (+ w1 1))")) == BINARY_W1
    assert dsl.parse_desc(dsl.read_sexpr("(graft (seg w1) (((seg 0) w)))")) == REMARK_TREE
    assert dsl.parse_desc(dsl.read_sexpr("(hat (seg w1))")).inner == seg(W1)
    assert dsl.parse_desc(dsl.read_sexpr("(full w (+ w 1))")) == full("w", o(W, 1))


def test_full_branching_must_be_positive():
    for text in ("(full 0 3)", "(full 00 (+ w1 1))", "(full x 3)"):
        with pytest.raises(ParseError):
            dsl.parse_desc(dsl.read_sexpr(text))


def test_parse_addresses():
    addr = dsl.parse_address(dsl.read_sexpr('(addr (up w) (copy 0 3) (word "01" 2) (below))'))
    assert addr == (Up(OMEGA), Copy(0, 3), Word((0, 1), nat(2)), Below())
    tpl = dsl.parse_address(dsl.read_sexpr('(addr (word "0" n) (child 1))'),
                            allow_param=True)
    assert tpl == (Word((0,), Param(ZERO, ONE)), Child(1))
    tpl2 = dsl.parse_address(dsl.read_sexpr('(addr (word "0" (lin w 1)))'),
                             allow_param=True)
    assert tpl2[0].count == Param(OMEGA, ONE)


def test_index_slots_take_ordinal_forms():
    """A child letter and a copy index read a NAT, an ordinal form worth one
    or, in a template, the parameter, and print as a NAT or the parameter."""
    cases = [  # (text, allow_param values, step, printed)
        ("(addr (child (+ 1 1)))", (False, True), Child(2), "(addr (child 2))"),
        ("(addr (copy 0 (+ 1 1)))", (False, True), Copy(0, 2), "(addr (copy 0 2))"),
        ("(addr (child (+ 1 n)))", (True,), Child(Param(ONE, ONE)),
         "(addr (child (lin 1 1)))"),
        ("(addr (copy 0 n))", (True,), Copy(0, Param(ZERO, ONE)), "(addr (copy 0 n))"),
    ]
    for text, allows, step, printed in cases:
        for allow in allows:
            got, = dsl.parse_address(dsl.read_sexpr(text), allow_param=allow)
            index = got.i if isinstance(got, Child) else got.idx
            assert got == step and type(index) in (int, Param), (text, allow, got)
            assert dsl.print_address((got,)) == printed
            assert dsl.parse_address(dsl.read_sexpr(printed), allow_param=allow) == (step,)
    for text, allow in [("(addr (child w))", True), ("(addr (copy 0 (+ w 1)))", True),
                        ("(addr (child (+ 1 n)))", False), ("(addr (copy 0 n))", False)]:
        with pytest.raises(ParseError):
            dsl.parse_address(dsl.read_sexpr(text), allow_param=allow)


def test_parse_sets_and_seqs():
    s = dsl.parse_set(dsl.read_sexpr(
        '(union (branch (addr (word "0" w1))) (explicit (addr (child 1))))'))
    assert isinstance(s, UnionSpec)
    q = dsl.parse_seq(dsl.read_sexpr(
        '(seq (head (addr (child 0))) (tail (addr (word "0" n) (child 1))))'))
    assert q.head and q.tail


def test_sequence_clauses_need_their_address():
    # no command reads a sequence, so the CLI test of malformed forms cannot
    # reach these
    for text in ("(seq (tail))", "(seq (const))"):
        with pytest.raises(ParseError):
            dsl.parse_seq(dsl.read_sexpr(text))


def test_print_parse_roundtrip_corpus():
    rng = random.Random(99)
    count = 0
    while count < 1000:
        d = random_description(rng)
        text = dsl.print_desc(d)
        again = dsl.parse_desc(dsl.read_sexpr(text))
        assert again == d, text
        count += 1


def test_address_roundtrip():
    rng = random.Random(5)
    from wedgetree.corpus import sample_nodes
    from wedgetree.trees import validate
    seen = 0
    while seen < 500:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        for n in sample_nodes(d, rng, 4):
            text = dsl.print_address(n.address())
            again = dsl.parse_address(dsl.read_sexpr(text))
            assert resolve(d, again).parts == n.parts
            seen += 1


def test_ordinal_print_roundtrip():
    from wedgetree.corpus import SAMPLE_ORDINALS
    for a in SAMPLE_ORDINALS:
        assert rt_ordinal(dsl.print_ordinal(a)) == a


def test_set_print_roundtrip():
    specs = [
        '(explicit (addr (child 1)) (addr (word "0" w1)))',
        '(omega-family (addr (word "0" n) (child 1)))',
        '(club (addr (word "0" w1)) (addr (word "0" (lin 1 1))))',
        '(branch (addr (word "0" w1)))',
        '(cone-set (addr (up w)))',
        '(union (branch (addr (word "0" w1))) (explicit (addr (child 1))))',
    ]
    for text in specs:
        s = dsl.parse_set(dsl.read_sexpr(text))
        assert dsl.parse_set(dsl.read_sexpr(dsl.print_set(s))) == s


def test_templates_require_parameter():
    with pytest.raises(ParseError):
        dsl.parse_set(dsl.read_sexpr('(omega-family (addr (child 1)))'))
