"""The benchmark's own inputs: a seeded tree generator and a copy of the
acceptance witness case tables.

Nothing here imports ``wedgetree.corpus`` or the test helpers, so a rewrite
of either leaves the benchmark's inputs unchanged.  Only the description,
address and set constructors of the library are used.
"""

from __future__ import annotations

from wedgetree.ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, Cofinality, Ordinal, add, nat, omega_power,
)
from wedgetree.topology import (
    Branch, CDiff, ClubFamily, Cone, ConeComplement, ConeSet, Explicit,
    OmegaFamily, Param, UnionSpec, Wedge,
)
from wedgetree.trees import (
    CARD_OMEGA, CARD_OMEGA1, Below, Card, Child, Copy, Full, Graft, HatOf,
    OMEGA_BRANCH, Seg, TildeOf, Up, Word,
)

from seeds import repeat_share

W, W1 = OMEGA, OMEGA1
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


def graft(base, *kids):
    return Graft(base, tuple((d, Card.fin(m) if isinstance(m, int) else m)
                             for d, m in kids))


def word(letters, count):
    return Word(tuple(int(c) for c in letters),
                count if isinstance(count, Ordinal) else nat(count))


def up(x):
    return Up(x if isinstance(x, Ordinal) else nat(x))


def w0n(base=ZERO, scale=ONE):
    return Word((0,), Param(base, scale))


W1x2 = o(W1, W1)

# -- paper examples (acceptance criterion 1) ---------------------------------

BINARY_W1 = full(2, o(W1, 1))
REMARK_TREE = graft(seg(W1), (seg(0), CARD_OMEGA))
BINARY_W = full(2, o(W, 1))
SEG_W1 = seg(W1)

# (tree, property, expected verdict value, citation fragment or None)
PAPER_VERDICTS = [
    (BINARY_W1, "HereditarilyValdivia", "yes", "Prop 2.4"),
    (BINARY_W1, "WeaklyCorson", "no", "Example 4.5"),
    (BINARY_W1, "DenseGdelta", "yes", None),
    (BINARY_W1, "Corson", "no", None),
    (REMARK_TREE, "WeaklyCorson", "yes", "Remark after Thm 4.2"),
    (REMARK_TREE, "Valdivia", "no", None),
    (REMARK_TREE, "RTree", "no", None),
    (SEG_W1, "Valdivia", "yes", None),
    (SEG_W1, "Corson", "no", None),
    (BINARY_W, "Corson", "yes", None),
]

# left YES forces right YES; right NO forces left NO (acceptance criterion 10)
IMPLICATIONS = [
    ("Corson", "Valdivia"), ("Valdivia", "WeaklyValdivia"),
    ("WeaklyCorson", "WeaklyValdivia"), ("WeaklyCorson", "DenseGdelta"),
    ("Valdivia", "RTree"), ("HereditarilyValdivia", "Valdivia"),
    ("Corson", "WeaklyCorson"), ("Corson", "HereditarilyValdivia"),
]

# -- the corpus generator ------------------------------------------------------

ORDINALS = [
    o(0), o(1), o(2), o(5), W, o(W, 1), o(W, 3), o(W, W), W2, o(W2, W, 2),
    W1, o(W1, 1), o(W1, W), o(W1, W, 4), W1x2, o(W1x2, 1),
]
COUNTABLE = [a for a in ORDINALS if a.is_countable]
# a segment whose top has uncountable cofinality loses its top under tilde
TILDE_SEG_TOPS = [a for a in ORDINALS if a.cof() is not Cofinality.OMEGA1]
BRANCHING = [1, 2, 3, OMEGA_BRANCH]
MULTIPLICITIES = [Card.fin(1), Card.fin(2), Card.fin(3), CARD_OMEGA, CARD_OMEGA1]
TREE_DEPTH = 3


def _leaf(rng):
    if rng.random() < 0.5:
        return Seg(rng.choice(ORDINALS))
    return Full(rng.choice(BRANCHING), add(rng.choice(ORDINALS), ONE))


def _tree(rng, depth):
    """A chain-complete description.  Graft children and wrapper bodies
    recurse, so hat and tilde appear under graft.  Graft bases are leaves, as
    in the library's own corpora: ``classify_report`` raises InvalidAddress
    on some valid trees whose graft base is a hat, e.g.
    ``(graft (hat (seg w1)) (((full w (+ (* 2 w1) 1)) w1)))``."""
    kind = "leaf" if depth == 0 else rng.choice(
        ["leaf", "graft", "graft", "hat", "tilde"])
    if kind == "leaf":
        return _leaf(rng)
    if kind == "graft":
        kids = tuple((_tree(rng, depth - 1), rng.choice(MULTIPLICITIES))
                     for _ in range(rng.randint(1, 2)))
        return Graft(_leaf(rng), kids)
    if kind == "hat":
        return HatOf(_tree(rng, depth - 1))
    # tilde keeps chain completeness over a hat (tilde(hat(d)) = d), over a
    # segment whose top is not of uncountable cofinality, and over a tree of
    # countable height (no level is removed)
    pick = rng.randrange(3)
    if pick == 0:
        return TildeOf(HatOf(_tree(rng, depth - 1)))
    if pick == 1:
        return TildeOf(Seg(rng.choice(TILDE_SEG_TOPS)))
    return TildeOf(Full(rng.choice(BRANCHING), add(rng.choice(COUNTABLE), ONE)))


def distinct_trees(rng, exclude):
    """Yield valid descriptions never yielded before and not in ``exclude``;
    the set grows with every tree yielded.  The top level is never a bare
    leaf, which keeps the space of distinct trees large."""
    while True:
        d = _tree(rng, TREE_DEPTH)
        if isinstance(d, (Seg, Full)) or d in exclude:
            continue
        exclude.add(d)
        yield d


def tree_fingerprint(trees):
    """Constructor counts over every node, the share of trees that carry a
    hat or tilde below the top, and the share of repeated inputs."""
    counts = {"Seg": 0, "Full": 0, "Graft": 0, "HatOf": 0, "TildeOf": 0}
    nested = 0

    def walk(d, top):
        counts[type(d).__name__] += 1
        below = False
        if isinstance(d, (HatOf, TildeOf)):
            below = not top
            below = walk(d.inner, False) or below
        elif isinstance(d, Graft):
            below = walk(d.base, False)
            for kid, _ in d.children:
                below = walk(kid, False) or below
        return below

    for d in trees:
        nested += walk(d, True)
    n = max(len(trees), 1)
    return {"inputs": len(trees), "constructors": counts,
            "nested_wrapper_share": nested / n,
            "repeat_share": repeat_share(trees)}


# -- witness case tables (copied from acceptance criteria 4-9) -----------------

def _countably_closed_cases():
    trees = [
        (seg(W1), (up(W1),)),
        (seg(o(W1, W)), (up(W1),)),
        (seg(o(W1x2, 3)), (up(W1x2),)),
        (BINARY_W1, (word("0", W1),)),
        (full(3, o(W1, 1)), (word("1", W1),)),
        (full("w", o(W1, 1)), (word("2", W1),)),
        (REMARK_TREE, (up(W1),)),
        (HatOf(BINARY_W1), (word("0", W1), Below())),
    ]
    cases = []
    for d, t in trees:
        for base in (ZERO, nat(3), OMEGA, o(W, 2)):
            if isinstance(d, Seg) or d == REMARK_TREE:
                cases.append((d, t, OmegaFamily((Up(Param(add(base, ONE), ONE)),))))
                continue
            cases.append((d, t, OmegaFamily((w0n(base), Child(1)))))
            cases.append((d, t, UnionSpec((OmegaFamily((w0n(base), Child(1))),
                                           Explicit(((Child(1),),))))))
        if not (isinstance(d, Seg) or d == REMARK_TREE):
            cases.append((d, t, Explicit(((Child(1),), (word("0", 2), Child(1)),
                                          (word("0", W), Child(1))))))
    return cases


def _club_cases():
    cases = []
    for base in (ZERO, nat(2), OMEGA):
        cases.append((BINARY_W1, (word("0", W1),),
                      ClubFamily((word("0", W1),), (w0n(base), Child(1)))))
        cases.append((full(3, o(W1, 1)), (word("0", W1),),
                      ClubFamily((word("0", W1),), (w0n(base), Child(2)))))
    cases.append((BINARY_W1, (word("0", W1),), OmegaFamily((w0n(ZERO, W), Child(1)))))
    cases.append((BINARY_W1, (word("0", W1),), OmegaFamily((w0n(ZERO, W2), Child(1)))))
    cases.append((seg(W1), (up(W1),), ClubFamily((up(W1),), (Up(Param(ZERO, ONE)),))))
    cases.append((seg(o(W1, W)), (up(W1),),
                  ClubFamily((up(W1),), (Up(Param(ZERO, ONE)),))))
    return cases


def _fu_cases():
    fan = graft(seg(0), (seg(0), CARD_OMEGA))
    return [
        (fan, (), OmegaFamily((Copy(0, Param()),))),
        (graft(seg(3), (seg(2), CARD_OMEGA)), (up(3),),
         OmegaFamily((Up(nat(3)), Copy(0, Param())))),
        (REMARK_TREE, (up(W1),), OmegaFamily((up(W1), Copy(0, Param())))),
        (graft(seg(0), (seg(0), CARD_OMEGA1)), (), OmegaFamily((Copy(0, Param()),))),
        (full("w", o(W, 2)), (word("0", W),),
         OmegaFamily((Word((0,), OMEGA), Child(Param(ZERO, ONE))))),
        (full("w", o(W, 2)), (word("1", W),),
         OmegaFamily((Word((1,), OMEGA), Child(Param(nat(2), ONE))))),
        (BINARY_W1, (word("0", W),), OmegaFamily((w0n(), Child(1)))),
        (full(2, o(W, 2)), (word("0", W),),
         UnionSpec((OmegaFamily((w0n(), Child(1))),
                    Explicit(((word("0", W), Child(0)),))))),
        (full(3, o(W, 1)), (word("2", W),), OmegaFamily((Word((2,), Param()), Child(0)))),
    ]


def _maximality_cases():
    """(tree, opens, expects a witness)."""
    witness = [
        (seg(o(W, 1)), [CDiff((up(W),), ((up(o(W, 1)),),))]),
        (seg(o(W, 5)), [CDiff((up(W),), ((up(o(W, 1)),),))]),
        (seg(W2), [CDiff((up(W),), ())]),
        (seg(W2), [CDiff((up(o(W, W)),), ())]),
        (seg(W2), [Cone((up(W2),))]),
        (BINARY_W, [CDiff((word("0", W),), ())]),
        (BINARY_W1, [CDiff((word("0", W),), ())]),
        (full(3, o(W, 2)), [CDiff((word("1", W),), ()), Cone((Child(0),))]),
        (seg(o(W1, W)), [CDiff((up(o(W1, W)),), ())]),
        (full(2, o(W, 2)), [Wedge((word("0", W),), ((word("0", W), Child(0)),))]),
    ]
    already_open = [
        (seg(o(W, 1)), [Cone((up(3),))]),
        (seg(o(W, 1)), [CDiff((up(2),), ((up(5),),))]),
        (BINARY_W1, [Wedge((word("0", W1),), ())]),
        (BINARY_W1, [Cone((Child(1),))]),
        (seg(W1), [Cone((up(W1),))]),
        (REMARK_TREE, [Cone((up(W1),)), Cone((up(2),))]),
        (BINARY_W, [ConeComplement((Child(0),))]),
        (full(3, o(W, 1)), [Wedge((), ((Child(0),),))]),
        (seg(o(W1, 1)), [Cone((up(o(W1, 1)),))]),
        (BINARY_W1, [Cone((word("0", 5),)), Cone((Child(1),))]),
    ]
    return ([(d, opens, True) for d, opens in witness]
            + [(d, opens, False) for d, opens in already_open])


def _separating_family_cases():
    tall = graft(seg(4), (full(2, o(W1, 1)), 2))
    return [
        (BINARY_W1, Branch((word("0", W1),))),
        (BINARY_W1, Explicit(((word("0", W1),), (Child(1),)))),
        (BINARY_W1, UnionSpec((Branch((word("0", W1),)), Explicit(((Child(1),),))))),
        (BINARY_W1, Explicit(((word("0", W1),), (word("1", W1),)))),
        (BINARY_W1, ConeSet((word("0", W1),))),
        (BINARY_W1, ConeSet((word("0", 2),))),
        (BINARY_W1, UnionSpec((Branch((word("0", W1),)), Branch((word("1", W1),))))),
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


def _disjoint_closure_cases():
    """(tree, A, B, expects NotClosed)."""
    d, d2 = BINARY_W1, full(3, o(W1, 1))
    tpl01 = (w0n(), Child(1))
    disjoint = [
        (d, Explicit(((Child(0), Child(1)),)), Explicit(((Child(1), Child(0)),))),
        (d, Explicit(((word("0", 3),), (word("0", 5),))),
         Explicit(((Child(1),), (Child(1), Child(0))))),
        (d, UnionSpec((OmegaFamily(tpl01), Explicit(((word("0", W),),)))),
         Explicit(((Child(1), Child(0)),))),
        (d, UnionSpec((OmegaFamily(tpl01), Explicit(((word("0", W),),)))),
         UnionSpec((OmegaFamily((w0n(add(W, ONE)), Child(1))),
                    Explicit(((word("0", o(W, W)),),))))),
        (d, Branch((word("0", W1),)), Explicit(((Child(1),), (Child(1), Child(1))))),
        (d, ClubFamily((word("0", W1),), (w0n(),)), Explicit(((word("0", W1),),))),
        (d, ClubFamily((word("0", W1),), (w0n(),)), Explicit(((Child(1), word("0", W)),))),
        (d, Explicit(((word("0", W1),),)), Explicit(((word("1", W1),),))),
        (d, UnionSpec((OmegaFamily((Child(1), w0n())),
                       Explicit(((Child(1), word("0", W)),)))),
         Explicit(((Child(0),),))),
        (d, UnionSpec((OmegaFamily((w0n(ONE, nat(2)), Child(1))),
                       Explicit(((word("0", W),),)))),
         Explicit(((Child(1),),))),
        (d2, Branch((word("0", W1),)), Explicit(((Child(2),), (Child(1),)))),
        (d2, Explicit(((word("2", W1),),)), Explicit(((word("1", W1),),))),
        (d2, UnionSpec((OmegaFamily((Word((1,), Param(ONE, ONE)), Child(0))),
                        Explicit(((word("1", W),),)))),
         Explicit(((Child(0),),))),
        (d2, ClubFamily((word("1", W1),), (Word((1,), Param()),)),
         Explicit(((word("1", W1),),))),
        (d2, Explicit(((word("0", 4),),)), Branch((word("2", W1),))),
        (d2, UnionSpec((OmegaFamily((Word((2,), Param(ONE, ONE)), Child(1))),
                        Explicit(((word("2", W),),)))),
         UnionSpec((OmegaFamily((Word((0,), Param(ONE, ONE)), Child(1))),
                    Explicit(((word("0", W),),))))),
        (d2, Branch((word("1", W1),)), Explicit(((Child(0), Child(2)),))),
        (d2, Explicit(((Child(0),), (Child(1),))), Explicit(((Child(2),),))),
        (d2, UnionSpec((OmegaFamily((Word((0,), Param(OMEGA, ONE)), Child(2))),
                        Explicit(((word("0", o(W, W)),),)))),
         Explicit(((word("0", W),),))),
        (d2, ClubFamily((word("0", W1),), (w0n(ONE),)),
         ClubFamily((word("1", W1),), (Word((1,), Param(ONE, ONE)),))),
    ]
    not_closed = [
        (d, OmegaFamily(tpl01), Explicit(((Child(1),),))),
        (d, OmegaFamily((w0n(add(W, ONE)), Child(1))), Explicit(((Child(1),),))),
        (d, ClubFamily((word("0", W1),), tpl01), Explicit(((Child(1),),))),
        (d, UnionSpec((OmegaFamily(tpl01),)), Explicit(((Child(1),),))),
        (d, Explicit(((Child(1),),)), OmegaFamily(tpl01)),
        (d2, OmegaFamily((Word((1,), Param()), Child(0))), Explicit(((Child(2),),))),
        (d2, ClubFamily((word("2", W1),), (Word((2,), Param()), Child(1))),
         Explicit(((Child(0),),))),
        (d, OmegaFamily((w0n(ZERO, W), Child(1))), Explicit(((Child(1),),))),
        (d2, Explicit(((Child(0),),)), OmegaFamily((Word((2,), Param()), Child(0)))),
        (d, OmegaFamily((w0n(ZERO, W2), Child(1))), Explicit(((Child(1),),))),
    ]
    return ([case + (False,) for case in disjoint]
            + [case + (True,) for case in not_closed])


WITNESS_KINDS = ("countably-closed", "club", "fu-extract", "maximality",
                 "separating-family", "disjoint-closures")


def witness_cases():
    """Case table per witness kind, in WITNESS_KINDS order."""
    return {
        "countably-closed": _countably_closed_cases(),
        "club": _club_cases(),
        "fu-extract": _fu_cases(),
        "maximality": _maximality_cases(),
        "separating-family": _separating_family_cases(),
        "disjoint-closures": _disjoint_closure_cases(),
    }


def witness_draws(rng, cases):
    """Endless (kind, case index) draws in rounds; each round is a seeded
    shuffle of every case, so every seed runs the same mix and only the
    order differs."""
    keys = [(kind, i) for kind in WITNESS_KINDS for i in range(len(cases[kind]))]
    while True:
        rng.shuffle(keys)
        yield from keys