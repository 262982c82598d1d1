"""Shared shorthand for the test suite."""

import random

from wedgetree.corpus import random_description
from wedgetree.ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, Ordinal, add, nat, omega_power, times_nat,
)
from wedgetree.topology import (
    Branch, ClubFamily, ConeSet, Explicit, OmegaFamily, Param, UnionSpec,
)
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


def W0n(base=ZERO, scale=ONE):
    return Word((0,), Param(base, scale))


BINARY_W1 = full(2, o(W1, 1))        # full binary tree of height w1+1
REMARK_TREE = graft(seg(W1), (seg(0), CARD_OMEGA))  # w1-chain with omega points on top
BINARY_W = full(2, o(W, 1))
FAN_OMEGA = graft(seg(0), (seg(0), CARD_OMEGA))
FAN_OMEGA1 = graft(seg(0), (seg(0), CARD_OMEGA1))


def club_cases():
    """(tree, t, S) for the club accumulation suite of acceptance criterion 5."""
    cases = []
    for base in [ZERO, nat(2), OMEGA]:
        cases.append((BINARY_W1, (word("0", W1),),
                      ClubFamily((word("0", W1),), (W0n(base), Child(1)))))
        cases.append((full(3, o(W1, 1)), (word("0", W1),),
                      ClubFamily((word("0", W1),), (W0n(base), Child(2)))))
    cases.append((BINARY_W1, (word("0", W1),),
                  OmegaFamily((W0n(ZERO, W), Child(1)))))
    cases.append((BINARY_W1, (word("0", W1),),
                  OmegaFamily((W0n(ZERO, W2), Child(1)))))
    cases.append((seg(W1), (up(W1),),
                  ClubFamily((up(W1),), (Up(Param(ZERO, ONE)),))))
    cases.append((seg(o(W1, W)), (up(W1),),
                  ClubFamily((up(W1),), (Up(Param(ZERO, ONE)),))))
    return cases


def fu_cases():
    """(case kind, tree, t, A) for the Frechet-Urysohn suite of acceptance
    criterion 6."""
    cases = []
    # case: cf(t) != omega with countably many meeting child cones
    cases.append(("cf!=w", FAN_OMEGA, (), OmegaFamily((Copy(0, Param()),))))
    cases.append(("cf!=w", graft(seg(3), (seg(2), CARD_OMEGA)), (up(3),),
                  OmegaFamily((Up(nat(3)), Copy(0, Param())))))
    cases.append(("cf!=w", REMARK_TREE, (up(W1),),
                  OmegaFamily((up(W1), Copy(0, Param())))))
    cases.append(("cf!=w", graft(seg(0), (seg(0), CARD_OMEGA1)), (),
                  OmegaFamily((Copy(0, Param()),))))
    # case: cf(t) = omega, infinitely many meeting child cones
    cases.append(("cf=w-inf", full("w", o(W, 2)), (word("0", W),),
                  OmegaFamily((Word((0,), OMEGA), Child(Param(ZERO, ONE))))))
    cases.append(("cf=w-inf", full("w", o(W, 2)), (word("1", W),),
                  OmegaFamily((Word((1,), OMEGA), Child(Param(nat(2), ONE))))))
    # case: cf(t) = omega, finitely many meeting cones (F nonempty and empty)
    cases.append(("cf=w-fin", BINARY_W1, (word("0", W),),
                  OmegaFamily((W0n(), Child(1)))))
    cases.append(("cf=w-fin", full(2, o(W, 2)), (word("0", W),),
                  UnionSpec((OmegaFamily((W0n(), Child(1))),
                             Explicit(((word("0", W), Child(0)),))))))
    cases.append(("cf=w-fin", full(3, o(W, 1)), (word("2", W),),
                  OmegaFamily((Word((2,), Param()), Child(0)))))
    return cases


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


def disjoint_closure_cases():
    """(tree, A, B, expects NotClosed) for the disjoint closures suite of
    acceptance criterion 9."""
    d = BINARY_W1
    tpl01 = (W0n(), Child(1))
    disjoint_pairs = [
        (Explicit(((Child(0), Child(1)),)), Explicit(((Child(1), Child(0)),))),
        (Explicit(((word("0", 3),), (word("0", 5),))),
         Explicit(((Child(1),), (Child(1), Child(0))))),
        (UnionSpec((OmegaFamily(tpl01), Explicit(((word("0", W),),)))),
         Explicit(((Child(1), Child(0)),))),
        (UnionSpec((OmegaFamily(tpl01), Explicit(((word("0", W),),)))),
         UnionSpec((OmegaFamily((W0n(add(W, ONE)), Child(1))),
                    Explicit(((word("0", times_nat(W, 2)),),))))),
        (Branch((word("0", W1),)), Explicit(((Child(1),), (Child(1), Child(1))))),
        (ClubFamily((word("0", W1),), (W0n(),)), Explicit(((word("0", W1),),))),
        (ClubFamily((word("0", W1),), (W0n(),)),
         Explicit(((Child(1), word("0", W)),))),
        (Explicit(((word("0", W1),),)), Explicit(((word("1", W1),),))),
        (UnionSpec((OmegaFamily((Child(1), W0n())), Explicit(((Child(1), word("0", W)),)))),
         Explicit(((Child(0),),))),
        (UnionSpec((OmegaFamily((W0n(ONE, nat(2)), Child(1))),
                    Explicit(((word("0", W),),)))),
         Explicit(((Child(1),),))),
    ]
    # a second tree for variety
    d2 = full(3, o(W1, 1))
    pairs2 = [
        (Branch((word("0", W1),)), Explicit(((Child(2),), (Child(1),)))),
        (Explicit(((word("2", W1),),)), Explicit(((word("1", W1),),))),
        (UnionSpec((OmegaFamily((Word((1,), Param(ONE, ONE)), Child(0))),
                    Explicit(((word("1", W),),)))),
         Explicit(((Child(0),),))),
        (ClubFamily((word("1", W1),), (Word((1,), Param()),)),
         Explicit(((word("1", W1),),))),
        (Explicit(((word("0", 4),),)), Branch((word("2", W1),))),
        (UnionSpec((OmegaFamily((Word((2,), Param(ONE, ONE)), Child(1))),
                    Explicit(((word("2", W),),)))),
         UnionSpec((OmegaFamily((Word((0,), Param(ONE, ONE)), Child(1))),
                    Explicit(((word("0", W),),))))),
        (Branch((word("1", W1),)), Explicit(((Child(0), Child(2)),))),
        (Explicit(((Child(0),), (Child(1),))), Explicit(((Child(2),),))),
        (UnionSpec((OmegaFamily((Word((0,), Param(OMEGA, ONE)), Child(2))),
                    Explicit(((word("0", times_nat(W, 2)),),)))),
         Explicit(((word("0", W),),))),
        (ClubFamily((word("0", W1),), (W0n(ONE),)),
         ClubFamily((word("1", W1),), (Word((1,), Param(ONE, ONE)),))),
    ]
    not_closed = [
        (d, OmegaFamily(tpl01), Explicit(((Child(1),),))),
        (d, OmegaFamily((W0n(add(W, ONE)), Child(1))), Explicit(((Child(1),),))),
        (d, ClubFamily((word("0", W1),), tpl01), Explicit(((Child(1),),))),
        (d, UnionSpec((OmegaFamily(tpl01),)), Explicit(((Child(1),),))),
        (d, Explicit(((Child(1),),)), OmegaFamily(tpl01)),
        (d2, OmegaFamily((Word((1,), Param()), Child(0))), Explicit(((Child(2),),))),
        (d2, ClubFamily((word("2", W1),), (Word((2,), Param()), Child(1))),
         Explicit(((Child(0),),))),
        (d, OmegaFamily((W0n(ZERO, W), Child(1))), Explicit(((Child(1),),))),
        (d2, Explicit(((Child(0),),)), OmegaFamily((Word((2,), Param()), Child(0)))),
        (d, OmegaFamily((W0n(ZERO, W2), Child(1))), Explicit(((Child(1),),))),
    ]
    return ([(d, A, B, False) for A, B in disjoint_pairs]
            + [(d2, A, B, False) for A, B in pairs2]
            + [(dd, A, B, True) for dd, A, B in not_closed])


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
