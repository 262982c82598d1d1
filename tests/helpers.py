"""Shared shorthand for the test suite."""

import hashlib
import json
import random

from wedgetree.classify import (
    IMPLICATIONS, V3, PropVerdict, RuleConflict, build_separating_family,
    classify_report,
)
from wedgetree.constructions import (
    RoundTrip, _hat_tilde_spot_iso, _panel, _spot_iso, _spot_nodes,
    disjoint_closures, iso_check, normalize, r_flags, roundtrip_check,
)
from wedgetree.corpus import random_description
from wedgetree.dsl import print_desc, print_seq
from wedgetree.errors import WedgeTreeError
from wedgetree.ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, Cofinality, Ordinal, add, cmp, nat, omega_power,
    pred, times_nat,
)
from wedgetree.series import fit_template
from wedgetree.topology import (
    Branch, ClubFamily, ConeSet, Explicit, OmegaFamily, Param, UnionSpec,
    club_accumulation, fu_extract,
)
from wedgetree.trees import (
    CARD_OMEGA, CARD_OMEGA1, Card, Child, Copy, Full, Graft, HatOf, Seg,
    TildeOf, Up, Word, ancestor_at, children, cofinal_I_nodes, hat_shift,
    leaf_view, resolve, structure_ok, tilde_shift, unc_sites, validate, view,
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


def cold_caches():
    """Drop every kept answer about descriptions: the ``view`` and
    ``leaf_view`` caches, so each view is built again with an empty memo,
    and the answers of ``structure_ok``, ``normalize`` and ``r_flags``."""
    for cache in (view, leaf_view, structure_ok, normalize, r_flags):
        cache.cache_clear()


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


def fu_triples(seed=7, count=300):
    """``count`` seeded (tree, A, address of t) triples for the
    Frechet-Urysohn laws.
    Each t is a spot-panel node of a valid random description or its
    ancestor at omega, omega*2 or omega^2; A is the omega-family fitted to
    eight cofinal I-points below t when cf(t) = omega, or to eight children
    of t when t has infinitely many.  Points no template fits, and templates
    with an up slot, are skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_description(rng)
        try:
            validate(d)
        except WedgeTreeError:
            continue
        points = {}
        for x in _spot_nodes(d):
            points[x.parts] = x
            for h in (W, times_nat(W, 2), W2):
                if cmp(h, x.ht) < 0:
                    a = ancestor_at(d, x, h)
                    points[a.parts] = a
        for t in points.values():
            if t.cof is Cofinality.OMEGA:
                tpl = fit_template(cofinal_I_nodes(d, t, 8))
            elif not t.ims.is_finite:
                tpl = fit_template(children(d, t, 8))
            else:
                continue
            # families with an up slot are left out: the laws' counts and the
            # differentials built on these triples were set on the stream
            # without them (the laws hold with them too)
            if tpl is not None and not any(
                    isinstance(s, Up) and isinstance(s.delta, Param) for s in tpl):
                out.append((d, OmegaFamily(tpl), t.address()))
    return out[:count]


# trees that ``validate`` rejects, as the DSL writes them: three are not chain
# complete below a tilde, one has a graft base of limit height, and four are
# full trees of limit height, whose views cannot even be built
OUTSIDE_THE_DOMAIN = [
    "(tilde (seg w1))", "(tilde (graft (seg w1) (((seg w1) 2))))",
    "(graft (seg 1) (((tilde (seg w1)) 2)))", "(graft (tilde (seg w1)) (((seg 1) 1)))",
    "(full 2 w)", "(full 2 (+ w1 w))", "(full 3 w1)", "(tilde (full 2 (* 2 w1)))",
]


def valid_draws(seed, count):
    """The first ``count`` valid ``random_description(Random(seed))`` trees."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_description(rng)
        try:
            validate(d)
        except WedgeTreeError:
            continue
        out.append(d)
    return out


def outcome(fn, d):
    """``("ok", fn(d))``, or the class and message of the library error
    ``fn(d)`` raises."""
    try:
        return "ok", fn(d)
    except WedgeTreeError as e:
        return type(e), str(e)


def reference_cmp(a, b):
    """The CNF order term by term, a reference for the tuple order of
    ``Ordinal``: the w1 coefficients first, then the (exponent, coefficient)
    terms from the top, exponents compared recursively; a proper prefix is
    smaller."""
    if a.omega1 != b.omega1:
        return -1 if a.omega1 < b.omega1 else 1
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = reference_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def reference_roundtrip(d):
    """``roundtrip_check`` as three spot panels, a reference for the
    library's: the panel of tilde(hat(d)) resolved on d, d's panel resolved
    on tilde(hat(d)), and d's panel translated onto hat(tilde(d)).  The
    library matches the first two panels by parts and resolves only d's."""
    structure_ok(d)
    th = TildeOf(HatOf(d))
    _, r1 = r_flags(d)
    panel = _panel(d)
    tilde_hat_ok = iso_check(th, d) and \
        _spot_iso(d, _panel(th).values()) and _spot_iso(th, panel.values())
    hat_tilde_ok = _hat_tilde_spot_iso(d, HatOf(TildeOf(d)), panel)
    return RoundTrip(tilde_hat_ok, hat_tilde_ok, r1)


def reference_close(props):
    """The closure pass of ``classify`` as a fixpoint over the verdicts
    themselves, a reference for the library's table of derivations: it
    applies ``IMPLICATIONS`` in order to ``props`` (property ->
    ``PropVerdict``, an UNKNOWN one holding no rule) until nothing changes,
    and raises ``RuleConflict`` on a Yes above a No."""
    changed = True
    while changed:
        changed = False
        for a, b, rule, cite in IMPLICATIONS:
            if props[a].verdict is V3.YES and props[b].verdict is V3.UNKNOWN:
                props[b] = PropVerdict(V3.YES, rule, cite)
                changed = True
            if props[b].verdict is V3.NO and props[a].verdict is V3.UNKNOWN:
                props[a] = PropVerdict(V3.NO, rule + "*", cite + " (contrapositive)")
                changed = True
            if props[a].verdict is V3.YES and props[b].verdict is V3.NO:
                raise RuleConflict("closure violated between %s and %s" % (a, b))
    return props


def reference_normalize(d):
    """``constructions.normalize`` as it was before it asked the views of
    the descriptions it was given, a reference for the library's: each
    wrapper asks the sites and gaps of the normal form it has just built,
    and a description already in normal form comes back as an equal copy.
    It keeps no answers."""
    if isinstance(d, Seg):
        return d
    if isinstance(d, Full):
        if d.k == 1:
            return Seg(pred(d.h))
        return d
    if isinstance(d, Graft):
        base = reference_normalize(d.base)
        children_ = tuple((reference_normalize(c), m) for c, m in d.children)
        if not children_:
            return base
        if (len(children_) == 1 and isinstance(base, Seg)
                and isinstance(children_[0][0], Seg)
                and children_[0][1] == Card.fin(1)):
            return Seg(add(add(base.eta, ONE), children_[0][0].eta))
        return Graft(base, children_)
    if isinstance(d, TildeOf):
        inner = reference_normalize(d.inner)
        if isinstance(inner, HatOf):
            return reference_normalize(inner.inner)
        if not unc_sites(inner):
            return inner
        if isinstance(inner, Seg) and inner.eta.cof() is not Cofinality.OMEGA1:
            return Seg(tilde_shift(inner.eta))
        return TildeOf(inner)
    if isinstance(d, HatOf):
        inner = reference_normalize(d.inner)
        if not unc_sites(inner) and not view(inner).gaps():
            return inner
        if isinstance(inner, Seg):
            return Seg(hat_shift(inner.eta))
        return HatOf(inner)
    return d


def output_digest(seed=21, count=300):
    """md5 of the sorted-key JSON of each tree's printed description,
    ``classify_report`` JSON and three ``roundtrip_check`` flags, over the
    named corpus ``(seed, count)``: that many valid descriptions drawn from
    ``random_description(Random(seed))``, every second one grafted as a hat,
    ``tilde(hat(.))``, double hat or tilde child onto a random base.  Two
    versions of the library that give the same digest give the same
    answers on this corpus."""
    wraps = (HatOf, lambda x: TildeOf(HatOf(x)), lambda x: HatOf(HatOf(x)),
             TildeOf)
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        d = random_description(rng)
        if len(rows) % 2:
            d = Graft(random_description(rng, 0, False),
                      ((rng.choice(wraps)(d), rng.choice(
                          [Card.fin(1), Card.fin(2), CARD_OMEGA])),))
        try:
            validate(d)
        except WedgeTreeError:
            continue
        rt = roundtrip_check(d)
        rows.append({"desc": print_desc(d),
                     "report": classify_report(d).to_json(),
                     "roundtrip": [rt.tilde_hat_ok, rt.hat_tilde_ok, rt.is_r1]})
    return hashlib.md5(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def witness_digest():
    """md5 of the sorted-key JSON of every witness construction over the case
    tables above, in table order: its ``to_json()`` (a Frechet-Urysohn
    extraction, which has none, printed with ``print_seq``), or the error it
    raises as its class, message and the ``repr`` of its witness.  It is the
    witness half of the output digest, next to ``output_digest``."""
    rows = []

    def row(kind, build, *args):
        try:
            out = build(*args)
            out = print_seq(out) if kind == "fu-extract" else out.to_json()
        except WedgeTreeError as e:
            out = [type(e).__name__, str(e), repr(getattr(e, "witness", None))]
        rows.append([kind, out])

    for d, t, S in club_cases():
        row("club", club_accumulation, d, resolve(d, t), S)
    for _, d, t, A in fu_cases():
        row("fu-extract", fu_extract, d, A, resolve(d, t))
    for d, S in separating_family_cases():
        row("separating-family", build_separating_family, d, S)
    for d, A, B, _ in disjoint_closure_cases():
        row("disjoint-closures", disjoint_closures, d, A, B)
    return hashlib.md5(json.dumps(rows, sort_keys=True).encode()).hexdigest()
