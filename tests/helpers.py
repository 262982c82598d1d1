"""Shared shorthand for the test suite."""

from wedgetree.ordinals import OMEGA, OMEGA1, ZERO, Ordinal, add, nat, omega_power
from wedgetree.trees import CARD_OMEGA, CARD_OMEGA1, Card, Full, Graft, Seg, Up, Word

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
