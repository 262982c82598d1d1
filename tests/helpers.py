"""Shared shorthand for the test suite."""

import random

from wedgetree.corpus import random_description
from wedgetree.ordinals import OMEGA, OMEGA1, ZERO, Ordinal, add, nat, omega_power
from wedgetree.topology import Branch, ConeSet, Explicit, UnionSpec
from wedgetree.trees import (
    CARD_OMEGA, CARD_OMEGA1, Card, Child, Copy, Full, Graft, HatOf, Seg,
    TildeOf, Up, Word, validate,
)

W = OMEGA
W1 = OMEGA1
W2 = omega_power(nat(2))


def o(*parts):
    """Ordinal sum of ints and Ordinals, left to right."""
    out = ZERO
    for p in parts:
        out = add(out, nat(p) if isinstance(p, int) else p)
    return out


def seg(x):
    return Seg(x if isinstance(x, Ordinal) else nat(x))


def full(k, h):
    return Full(k, h if isinstance(h, Ordinal) else nat(h))


def graft(base, *children):
    cs = []
    for d, mult in children:
        if isinstance(mult, int):
            mult = Card.fin(mult)
        cs.append((d, mult))
    return Graft(base, tuple(cs))


def word(letters, count):
    if isinstance(letters, str):
        letters = tuple(int(c) for c in letters)
    return Word(tuple(letters), count if isinstance(count, Ordinal) else nat(count))


def up(x):
    return Up(x if isinstance(x, Ordinal) else nat(x))


BINARY_W1 = full(2, o(W1, 1))        # full binary tree of height w1+1
REMARK_TREE = graft(seg(W1), (seg(0), CARD_OMEGA))  # w1-chain with omega points on top
BINARY_W = full(2, o(W, 1))
FAN_OMEGA = graft(seg(0), (seg(0), CARD_OMEGA))
FAN_OMEGA1 = graft(seg(0), (seg(0), CARD_OMEGA1))


def separating_family_cases():
    """(tree, S) for the separating-family suite of acceptance criterion 8."""
    tall = graft(seg(4), (full(2, o(W1, 1)), 2))
    return [
        (BINARY_W1, Branch((word("0", W1),))),                        # S1 empty
        (BINARY_W1, Explicit(((word("0", W1),), (Child(1),)))),       # S1 = {top}
        (BINARY_W1, UnionSpec((Branch((word("0", W1),)),
                               Explicit(((Child(1),),))))),
        (BINARY_W1, Explicit(((word("0", W1),), (word("1", W1),)))),  # two tops
        (BINARY_W1, ConeSet((word("0", W1),))),                       # singleton cone
        (BINARY_W1, ConeSet((word("0", 2),))),
        (BINARY_W1, UnionSpec((Branch((word("0", W1),)),
                               Branch((word("1", W1),))))),
        (seg(W1), Branch((up(W1),))),
        (seg(W1), Explicit(((up(W1),), (up(3),)))),
        (seg(W1), ConeSet((up(W),))),
        (full(3, o(W1, 1)), Explicit(((word("0", W1),), (word("2", W1),)))),
        (full(3, o(W1, 1)), Branch((word("2", W1),))),
        (full("w", o(W1, 1)), Explicit(((word("3", W1),), (Child(1),)))),
        (tall, Branch((up(4), Copy(0, 0), word("0", W1)))),
        (tall, Explicit(((up(4), Copy(0, 0), word("0", W1)),
                         (up(4), Copy(0, 1), word("1", 2))))),
        (BINARY_W1, UnionSpec((ConeSet((word("0", W1),)),
                               Explicit(((word("0", 3), Child(1)),))))),
        (BINARY_W1, Explicit(((word("0", W1),),))),
        (seg(W1), UnionSpec((Branch((up(W),)), Explicit(((up(W1),),))))),
        (BINARY_W1, UnionSpec((Branch((word("0", W1),)),
                               ConeSet((Child(1), Child(1)))))),
        (full(2, o(W1, 1)), Explicit(((Child(1), word("0", W1)),))),
    ]


def fact_trees():
    """Nested hat/tilde trees and valid random descriptions (seed 12)."""
    trees = [
        HatOf(TildeOf(BINARY_W1)),
        TildeOf(HatOf(BINARY_W1)),
        graft(HatOf(seg(W1)), (seg(2), 2)),               # grafts over hat bases
        graft(HatOf(BINARY_W1), (seg(1), 2)),
        graft(seg(W1), (HatOf(BINARY_W1), 2), (TildeOf(HatOf(seg(o(W1, 3)))), 1)),
    ]
    rng = random.Random(12)
    while len(trees) < 60:
        d = random_description(rng)
        try:
            validate(d)
        except Exception:
            continue
        trees.append(d)
    return trees


def walk_trees():
    """``fact_trees`` plus trees that nest hat and tilde under graft."""
    captop = HatOf(TildeOf(BINARY_W1))
    nested = [
        graft(seg(W1), (captop, 2), (TildeOf(HatOf(BINARY_W1)), CARD_OMEGA)),
        graft(HatOf(TildeOf(seg(o(W1, 2)))), (TildeOf(HatOf(seg(o(W1, 1)))), 2)),
        TildeOf(HatOf(graft(seg(W1), (TildeOf(HatOf(BINARY_W1)), 1)))),
        HatOf(HatOf(TildeOf(graft(seg(W1), (captop, 1))))),
        TildeOf(HatOf(graft(HatOf(seg(W1)), (captop, 2)))),
        graft(TildeOf(HatOf(seg(o(W1, 1)))),
              (HatOf(TildeOf(graft(seg(W1), (BINARY_W1, 1)))), 1)),
    ]
    for d in nested:
        validate(d)
    return fact_trees() + nested
