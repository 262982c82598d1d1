"""Finite descriptions of chain-complete rooted trees and node addressing.

A description denotes a tree:

*  ``Seg(eta)``      the ordinal segment [0, eta], a chain of height eta+1;
*  ``Full(k, h)``    the full k-ary chain-complete tree of height h
                     (k a positive integer or the symbol "w"); h must be a
                     successor, otherwise a cofinal branch has no supremum;
*  ``Graft(b, cs)``  multiplicity-many order-isomorphic copies of each child
                     description attached above every maximal node of b;
*  ``HatOf(d)``      insert one point s(t) directly below every node t whose
                     height has uncountable cofinality, and give every
                     upper-bound-less chain of uncountable cofinality the
                     supremum it is missing;
*  ``TildeOf(d)``    remove every level whose index has uncountable
                     cofinality.

Individual nodes at uncountable limit levels are functions on w1 and cannot
all be named; addresses cover the finitely-presentable fragment (finite lists
of letter runs with ordinal repeat counts), which is dense and contains every
node the witness constructions need.  Node equality is canonical-address
equality.  Each level w1*j is summarised by its sites, one representative Node
per structural region.  A view states its sites once, per level
(``sites_at_height``); ``unc_sites``, the sites of every level lowest first,
is derived from them on the base view class.  So is the height of a hat or
tilde view: one past its highest maximal height, or its highest gap.
Functions that take a node also take its address; ``as_node`` resolves either
to a Node.

Descriptions and address steps are frozen, slotted dataclasses that compute
their hash on first use and keep it.  ``view(desc)`` caches the view of the
``VIEW_CACHE_SIZE`` most recently used descriptions, and each view keeps one
``memo`` dict of its answers.  It computes its nullary facts (``height``,
``unc_sites``, ``maximal_heights``, ``gaps``, ``leftmost_top``) and its sites
at each height once: later calls return the same ordinal, node, tuple or
frozenset, which no caller can change.  It also walks each ``(steps, i)``
once, lists the children of each ``(parts, count)`` once and finds the
ancestor of each ``(parts, h)`` once, so ``resolve`` and ``ancestor_at`` on a
graft, hat or tilde view reach into its inner views at an address only the
first time.  Calls that raise are not kept.  Resolved nodes and ancestors
are shared between callers, so no code outside ``Node.__init__`` sets a
node's attributes; ``children`` returns a new list on every call.  The tree
order on parts, ``leq_parts``, keeps its answer for the ``ORDER_CACHE_SIZE``
most recently asked pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache, wraps

from .errors import (
    BadBranching, BadGraftBase, GapAddress, InvalidAddress, NotChainComplete,
    UnsupportedAddress,
)
from .ordinals import (
    ONE, ZERO, Cofinality, Ordinal, add, cmp, drop_leading_unit, fundamental,
    left_sub, pred,
)

_EXPAND_CAP = 10000

# Views kept by the ``view`` cache; least recently used go first.  Each cached
# view keeps its memo of facts, walks, children and ancestors, so an entry
# holds many nodes.  At 128 entries the benchmark's corpus workload kept them
# long enough to push them into the older GC generations: against this bound
# its peak RSS rose by 0.7-1.0 MB and its p99 latency from 5.4 to 7.2-7.7 ms.
# One corpus request touches at most 27 views (p99 23, over 2,000 trees) and
# one round of the witness cases 25, so 32 holds a request's views.  The
# series memo has its own bound, ``series.SERIES_CACHE_SIZE``.
VIEW_CACHE_SIZE = 32

# Pairs kept by the ``leq_parts`` memo.  Keys are two immutable parts tuples
# and the value a bool, so an entry is small.  The re-checks of the witness
# constructions ask the same few questions again and again: 3,000 witness
# draws touch 927 distinct pairs, and this bound kept 99.6% of their calls
# as hits.  The corpus workload never calls ``leq_parts``.
ORDER_CACHE_SIZE = 4096

OMEGA_BRANCH = "w"


# -- cardinal classes ---------------------------------------------------------

class Card:
    """Cardinality class: an exact finite number, omega, or omega1-or-more."""

    __slots__ = ("kind", "n")

    def __init__(self, kind, n=0):
        if kind not in ("fin", "omega", "omega1"):
            raise ValueError(kind)
        self.kind = kind
        self.n = n if kind == "fin" else 0

    @classmethod
    def fin(cls, n):
        return cls("fin", n)

    @property
    def is_finite(self):
        return self.kind == "fin"

    @property
    def is_zero(self):
        return self.kind == "fin" and self.n == 0

    @property
    def le_omega(self):
        return self.kind != "omega1"

    def plus(self, other):
        if "omega1" in (self.kind, other.kind):
            return CARD_OMEGA1
        if "omega" in (self.kind, other.kind):
            return CARD_OMEGA
        return Card.fin(self.n + other.n)

    def __eq__(self, other):
        return isinstance(other, Card) and (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __str__(self):
        return str(self.n) if self.kind == "fin" else ("w" if self.kind == "omega" else "w1")

    __repr__ = __str__


CARD_OMEGA = Card("omega")
CARD_OMEGA1 = Card("omega1")


def card_of_branching(k):
    return CARD_OMEGA if k == OMEGA_BRANCH else Card.fin(k)


# -- descriptions -------------------------------------------------------------

def _hash_once(cls):
    """Make ``cls`` a frozen, slotted dataclass that hashes itself once.

    Views and memos look descriptions up over and over, and the generated
    dataclass hash walks the whole nested value on every lookup.  Here that
    generated hash runs on the first ``__hash__`` only; its value is kept in
    the extra ``_h`` field, which takes no part in ``__init__``, equality or
    ``repr``.  Copies and pickles are rebuilt from the init fields alone, so
    ``_h`` starts empty again: a hash is only valid in the process (and under
    the hash seed) that computed it."""
    cls.__annotations__["_h"] = "int"
    cls._h = field(default=None, init=False, compare=False, repr=False)
    cls = dataclass(frozen=True, slots=True)(cls)
    field_hash = cls.__hash__
    init_fields = tuple(f.name for f in fields(cls) if f.init)

    def __hash__(self):
        h = self._h
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_h", h)
        return h

    def __reduce__(self):
        return (type(self), tuple(getattr(self, n) for n in init_fields))

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


@_hash_once
class Seg:
    eta: Ordinal


@_hash_once
class Full:
    k: object  # positive int or OMEGA_BRANCH
    h: Ordinal


@_hash_once
class Graft:
    base: object
    children: tuple  # of (desc, Card) pairs


@_hash_once
class HatOf:
    inner: object


@_hash_once
class TildeOf:
    inner: object


# -- address steps ------------------------------------------------------------

@_hash_once
class Up:
    delta: Ordinal


@_hash_once
class Child:
    i: int


@_hash_once
class Word:
    letters: tuple  # of ints
    count: Ordinal


@_hash_once
class Copy:
    slot: int
    idx: int


@dataclass(frozen=True, slots=True)
class Below:
    pass


# -- height transforms --------------------------------------------------------

def hat_shift(h):
    """Height of the image of a height-h node after the insertions below it.

    Only the insertion at the last w1-block survives; all deeper ones are
    absorbed by the following uncountable segment.
    """
    if h.omega1 >= 1 and h.countable.is_finite:
        return add(h, ONE)
    return h


def hat_unshift(h):
    """Inverse of the hat height map; returns ("spoint"|"image", inner height)."""
    if h.cof() is Cofinality.OMEGA1:
        return ("spoint", h)
    if h.omega1 >= 1 and h.countable.is_finite:
        k = h.countable.to_int()
        return ("image", Ordinal(h.omega1, ((ZERO, k - 1),) if k > 1 else ()))
    return ("image", h)


def tilde_shift(h):
    """Height of a surviving node after the uncountable-cofinality levels
    below it are removed (one point per w1-block boundary)."""
    if h.omega1 == 0:
        return h
    gamma = h.countable
    if gamma.is_zero:
        raise ValueError("node at a removed level has no shifted height")
    return Ordinal(h.omega1, drop_leading_unit(gamma).terms)


def tilde_unshift(h):
    if h.omega1 == 0:
        return h
    return Ordinal(h.omega1, add(ONE, h.countable).terms)


# -- nodes ---------------------------------------------------------------------

class Node:
    """A resolved node: canonical parts plus the order-theoretic summary."""

    __slots__ = ("desc", "parts", "ht", "cof", "ims", "maximal", "tag", "inner")

    def __init__(self, desc, parts, ht, cof, ims, maximal, tag="plain", inner=None):
        self.desc = desc
        self.parts = parts
        self.ht = ht
        self.cof = cof
        self.ims = ims
        self.maximal = maximal
        self.tag = tag
        self.inner = inner

    @property
    def in_I(self):
        return self.cof is Cofinality.ZERO

    @property
    def is_root(self):
        return self.parts == ()

    def address(self):
        """Canonical address (user steps) for the node."""
        steps = []
        for part in self.parts:
            if part[0] == "up":
                steps.append(Up(part[1]))
            elif part[0] == "runs":
                for letter, count in part[1]:
                    if count == ONE:
                        steps.append(Child(letter))
                    else:
                        steps.append(Word((letter,), count))
            elif part[0] == "copy":
                steps.append(Copy(part[1], part[2]))
            elif part[0] == "below":
                steps.append(Below())
        return tuple(steps)

    def __eq__(self, other):
        return isinstance(other, Node) and self.parts == other.parts and self.desc == other.desc

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "<node %s ht=%s cf=%s ims=%s%s>" % (
            _parts_str(self.parts), self.ht, self.cof, self.ims,
            " max" if self.maximal else "")


def _parts_str(parts):
    out = []
    for p in parts:
        if p[0] == "up":
            out.append("up:%s" % p[1])
        elif p[0] == "runs":
            out.append(".".join("%d^%s" % (l, c) for l, c in p[1]))
        elif p[0] == "copy":
            out.append("copy:%d.%d" % (p[1], p[2]))
        else:
            out.append("below")
    return "/".join(out) or "root"


# -- canonical-parts order ----------------------------------------------------

def _split_below(parts):
    n = 0
    while n < len(parts) and parts[len(parts) - 1 - n][0] == "below":
        n += 1
    return parts[:len(parts) - n], n


def _runs_strict_prefix(r1, r2):
    i = 0
    while i < len(r1) and i < len(r2) and r1[i] == r2[i]:
        i += 1
    if i == len(r1):
        return i < len(r2)
    if i == len(r2):
        return False
    (l1, c1), (l2, c2) = r1[i], r2[i]
    return l1 == l2 and cmp(c1, c2) < 0 and i == len(r1) - 1


def _core_strict_prefix(x, y):
    i = 0
    while i < len(x) and i < len(y) and x[i] == y[i]:
        i += 1
    if i == len(x):
        return i < len(y)
    if i == len(y):
        return False
    if x[i][0] != y[i][0] or i != len(x) - 1:
        return False
    if x[i][0] == "up":
        return cmp(x[i][1], y[i][1]) < 0
    if x[i][0] == "runs":
        return _runs_strict_prefix(x[i][1], y[i][1])
    return False


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def leq_parts(a, b):
    """Tree order on canonical parts (below-markers sit just under their node)."""
    xa, na = _split_below(a)
    xb, nb = _split_below(b)
    if xa == xb:
        return na >= nb
    return _core_strict_prefix(xa, xb)


def _runs_meet(r1, r2):
    out = []
    i = 0
    while i < len(r1) and i < len(r2) and r1[i] == r2[i]:
        out.append(r1[i])
        i += 1
    if i < len(r1) and i < len(r2):
        (l1, c1), (l2, c2) = r1[i], r2[i]
        if l1 == l2:
            out.append((l1, c1 if cmp(c1, c2) <= 0 else c2))
    return tuple(out)


def meet_parts(a, b):
    xa, na = _split_below(a)
    xb, nb = _split_below(b)
    if xa == xb:
        return xa + (("below",),) * max(na, nb)
    if _core_strict_prefix(xa, xb):
        return a
    if _core_strict_prefix(xb, xa):
        return b
    out = []
    i = 0
    while i < len(xa) and i < len(xb) and xa[i] == xb[i]:
        out.append(xa[i])
        i += 1
    if i < len(xa) and i < len(xb) and xa[i][0] == xb[i][0]:
        if xa[i][0] == "up":
            low = xa[i][1] if cmp(xa[i][1], xb[i][1]) <= 0 else xb[i][1]
            if not low.is_zero:
                out.append(("up", low))
        elif xa[i][0] == "runs":
            runs = _runs_meet(xa[i][1], xb[i][1])
            if runs:
                out.append(("runs", runs))
    return tuple(out)


# -- views ---------------------------------------------------------------------

def _memo(key=None):
    """Keep a view method's answers in its view's one ``memo`` dict.

    An answer is filed under the method name and ``key(*args)``, or the
    arguments themselves when ``key`` is None.  A view belongs to one
    immutable description, so each answer is computed once per view and the
    same ordinal, node, tuple or frozenset is returned on every later call; a
    call that raises is not kept and raises again next time."""
    def memoize(method):
        name = method.__name__

        @wraps(method)
        def once(self, *args):
            k = (name, *(args if key is None else key(*args)))
            try:
                return self.memo[k]
            except KeyError:
                out = self.memo[k] = method(self, *args)
                return out

        return once

    return memoize


def _on_parts(node, x):
    return node.parts, x


class _View:
    def __init__(self, desc):
        self.desc = desc
        self.memo = {}  # (method name, *key) -> answer, filled by ``_memo``

    @_memo()
    def walk(self, steps, i):
        """The node that ``steps[i:]`` leads to, and the index of the first
        step it could not take, from ``_walk``.  The graft, hat and tilde
        walks catch ``GapAddress`` and ``InvalidAddress`` from their inner
        views, which raise again on every call.  Callers share the ``Node``."""
        return self._walk(steps, i)

    @_memo(_on_parts)
    def _kids(self, node, count):
        return tuple(self._children(node, count))

    def children(self, node, count):
        """Up to ``count`` immediate successors of ``node``, from
        ``_children`` once per view, parts and count, as a new list."""
        return list(self._kids(node, count))

    @_memo(_on_parts)
    def ancestor_at(self, node, h):
        """The ancestor of ``node`` at height ``h`` (at most ``node.ht``),
        from ``_ancestor_at``.  Callers share the returned ``Node``."""
        return self._ancestor_at(node, h)

    @_memo()
    def height(self):
        """The least height above every node: one past each maximal height,
        and a gap's own height, where a branch with no supremum ends."""
        best = ONE  # at least the root level exists
        for h in [add(mh, ONE) for mh in self.maximal_heights()] + \
                [g.ht for g in self.gaps()]:
            if cmp(h, best) > 0:
                best = h
        return best

    @_memo()
    def unc_sites(self):
        """The sites of every level w1*j, lowest level first."""
        return tuple(s for j in range(1, self.height().omega1 + 1)
                     for s in self.sites_at_height(Ordinal(j, ())))

    # gap/completeness defaults for the core region views
    def gaps(self):
        return ()

    def bounded_supless(self):
        return False

    def chain_complete(self):
        return not self.gaps() and not self.bounded_supless()

    def root(self):
        node, _ = self.walk((), 0)
        return node

    def branch_node(self, payload, h):
        raise InvalidAddress("no unbounded branches here")


class _SegView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.eta = desc.eta

    @_memo()
    def height(self):
        return add(self.eta, ONE)

    @_memo()
    def maximal_heights(self):
        return frozenset((self.eta,))

    def _node(self, pos):
        maximal = pos == self.eta
        return Node(self.desc, (("up", pos),) if not pos.is_zero else (),
                    pos, pos.cof(), Card.fin(0 if maximal else 1), maximal)

    def _walk(self, steps, i):
        pos = ZERO
        while i < len(steps):
            s = steps[i]
            if isinstance(s, Up):
                nxt = add(pos, s.delta)
            elif isinstance(s, Child) and s.i == 0:
                nxt = add(pos, ONE)
            elif isinstance(s, Child):
                raise InvalidAddress("a chain node has a unique immediate successor")
            else:
                break
            if cmp(nxt, self.eta) > 0:
                raise InvalidAddress("ascent past the top of the segment")
            pos = nxt
            i += 1
        return self._node(pos), i

    def _ancestor_at(self, node, h):
        return self._node(h)

    def _children(self, node, count):
        if node.maximal:
            return []
        return [self._node(add(node.ht, ONE))][:count]

    @_memo()
    def leftmost_top(self):
        return self._node(self.eta)

    @_memo()
    def sites_at_height(self, h):
        if cmp(h, self.eta) <= 0:
            return (self._node(h),)
        return ()


class _FullView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.k = desc.k
        self.top = pred(desc.h)

    def height(self):
        return self.desc.h

    @_memo()
    def maximal_heights(self):
        return frozenset((self.top,))

    def _branching(self):
        return card_of_branching(self.k)

    def _letter_ok(self, letter):
        if letter < 0:
            return False
        return self.k == OMEGA_BRANCH or letter < self.k

    def _node(self, runs):
        ht = ZERO
        for _, count in runs:
            ht = add(ht, count)
        maximal = ht == self.top
        return Node(self.desc, (("runs", tuple(runs)),) if runs else (),
                    ht, ht.cof(), Card.fin(0) if maximal else self._branching(), maximal)

    def _append(self, runs, ht, letter, count):
        if count.is_zero:
            return ht
        if not self._letter_ok(letter):
            raise InvalidAddress("branch letter %d out of range" % letter)
        nxt = add(ht, count)
        if cmp(nxt, self.top) > 0:
            raise InvalidAddress("path exceeds the tree height")
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, add(runs[-1][1], count))
        else:
            runs.append((letter, count))
        return nxt

    def _walk(self, steps, i):
        runs, ht = [], ZERO
        while i < len(steps):
            s = steps[i]
            if isinstance(s, Child):
                ht = self._append(runs, ht, s.i, ONE)
            elif isinstance(s, Word):
                if len(s.letters) == 1:
                    ht = self._append(runs, ht, s.letters[0], s.count)
                else:
                    if not s.count.is_finite:
                        raise UnsupportedAddress(
                            "multi-letter words admit finite repeats only")
                    reps = s.count.to_int()
                    if reps * len(s.letters) > _EXPAND_CAP:
                        raise UnsupportedAddress("word expansion too large")
                    for _ in range(reps):
                        for letter in s.letters:
                            ht = self._append(runs, ht, letter, ONE)
            elif isinstance(s, Up) and self.k == 1:
                ht = self._append(runs, ht, 0, s.delta)
            else:
                break
            i += 1
        return self._node(runs), i

    def _ancestor_at(self, node, h):
        runs = node.parts[0][1] if node.parts else ()
        out, acc = [], ZERO
        for letter, count in runs:
            nxt = add(acc, count)
            if cmp(nxt, h) <= 0:
                out.append((letter, count))
                acc = nxt
                if cmp(acc, h) == 0:
                    break
            else:
                part = left_sub(acc, h)
                if not part.is_zero:
                    out.append((letter, part))
                break
        return self._node(out)

    def _children(self, node, count):
        if node.maximal:
            return []
        runs = list(node.parts[0][1]) if node.parts else []
        out = []
        n = count if self.k == OMEGA_BRANCH else min(count, self.k)
        for letter in range(n):
            ext = list(runs)
            if ext and ext[-1][0] == letter:
                ext[-1] = (letter, add(ext[-1][1], ONE))
            else:
                ext.append((letter, ONE))
            out.append(self._node(ext))
        return out

    @_memo()
    def leftmost_top(self):
        if self.top.is_zero:
            return self._node(())
        return self._node([(0, self.top)])

    @_memo()
    def sites_at_height(self, h):
        if cmp(h, self.top) <= 0:
            return (self._node([(0, h)] if not h.is_zero else []),)
        return ()


class _GraftView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.base = view(desc.base)
        self.slots = [(view(d), mult) for d, mult in desc.children]
        self.offset = self.base.height()  # children roots live at this level

    @_memo()
    def height(self):
        if not self.slots:
            return self.base.height()
        best = None
        for child, _ in self.slots:
            h = child.height()
            if best is None or cmp(h, best) > 0:
                best = h
        return add(self.base.height(), best)

    @_memo()
    def maximal_heights(self):
        if not self.slots:
            return self.base.maximal_heights()
        return frozenset(add(self.offset, mh)
                         for child, _ in self.slots for mh in child.maximal_heights())

    def _sum_mult(self):
        total = Card.fin(0)
        for _, mult in self.slots:
            total = total.plus(mult)
        return total

    def _wrap_base(self, bnode):
        if bnode.maximal and self.slots:
            return Node(self.desc, bnode.parts, bnode.ht, bnode.cof,
                        self._sum_mult(), False, "plain", ("base", bnode))
        return Node(self.desc, bnode.parts, bnode.ht, bnode.cof,
                    bnode.ims, bnode.maximal, "plain", ("base", bnode))

    def _wrap_child(self, bnode, slot, idx, cnode):
        start = add(bnode.ht, ONE)
        ht = add(start, cnode.ht)
        parts = bnode.parts + (("copy", slot, idx),) + cnode.parts
        return Node(self.desc, parts, ht, ht.cof(), cnode.ims, cnode.maximal,
                    "plain", ("child", bnode, slot, idx, cnode))

    def _walk(self, steps, i):
        try:
            bnode, i = self.base.walk(steps, i)
        except GapAddress as g:
            raise GapAddress(
                str(g), node=g.node, consumed=g.details.get("consumed"),
                payload=("base", g.details.get("payload"))) from None
        if i < len(steps) and isinstance(steps[i], Copy) and self.slots:
            if not bnode.maximal:
                raise InvalidAddress("copies attach above maximal nodes only")
            s = steps[i]
            if not 0 <= s.slot < len(self.slots):
                raise InvalidAddress("graft slot %d out of range" % s.slot)
            child, mult = self.slots[s.slot]
            if mult.is_finite and s.idx >= mult.n:
                raise InvalidAddress("copy index %d out of range" % s.idx)
            if s.idx < 0:
                raise InvalidAddress("negative copy index")
            try:
                cnode, j = child.walk(steps, i + 1)
            except GapAddress as g:
                raise GapAddress(
                    "unbounded branch inside a grafted copy",
                    node=self._wrap_child(bnode, s.slot, s.idx, g.node),
                    consumed=g.details.get("consumed"),
                    payload=("child", bnode, s.slot, s.idx, g.details.get("payload")),
                ) from None
            return self._wrap_child(bnode, s.slot, s.idx, cnode), j
        return self._wrap_base(bnode), i

    def _ancestor_at(self, node, h):
        kind = node.inner[0]
        if kind == "child":
            _, bnode, slot, idx, cnode = node.inner
            start = add(bnode.ht, ONE)
            if cmp(h, start) >= 0:
                child, _ = self.slots[slot]
                canc = child.ancestor_at(cnode, left_sub(start, h))
                return self._wrap_child(bnode, slot, idx, canc)
            return self._wrap_base(self.base.ancestor_at(bnode, h))
        return self._wrap_base(self.base.ancestor_at(node.inner[1], h))

    def branch_node(self, payload, h):
        kind = payload[0]
        if kind == "child":
            _, bnode, slot, idx, inner_payload = payload
            start = add(bnode.ht, ONE)
            if cmp(h, start) >= 0:
                child, _ = self.slots[slot]
                cnode = child.branch_node(inner_payload, left_sub(start, h))
                return self._wrap_child(bnode, slot, idx, cnode)
            return self._wrap_base(self.base.ancestor_at(bnode, h))
        if kind == "base":
            return self._wrap_base(self.base.branch_node(payload[1], h))
        raise InvalidAddress("unknown branch payload")

    def _children(self, node, count):
        kind = node.inner[0]
        if kind == "child":
            _, bnode, slot, idx, cnode = node.inner
            child, _ = self.slots[slot]
            return [self._wrap_child(bnode, slot, idx, c)
                    for c in child.children(cnode, count)]
        bnode = node.inner[1]
        if bnode.maximal and self.slots:
            out = []
            for slot, (child, mult) in enumerate(self.slots):
                croot = child.root()
                n = mult.n if mult.is_finite else count
                for idx in range(n):
                    out.append(self._wrap_child(bnode, slot, idx, croot))
                    if len(out) >= count:
                        return out
            return out
        return [self._wrap_base(c) for c in self.base.children(bnode, count)]

    @_memo()
    def leftmost_top(self):
        bnode = self.base.leftmost_top()
        if not self.slots:
            return self._wrap_base(bnode)
        child, _ = self.slots[0]
        return self._wrap_child(bnode, 0, 0, child.leftmost_top())

    @_memo()
    def gaps(self):
        out = list(self.base.gaps())
        if self.slots:
            bparts = self.base.leftmost_top().parts
            for slot, (child, _) in enumerate(self.slots):
                for g in child.gaps():
                    parts = bparts + (("copy", slot, 0),) + g.parts
                    out.append(GapSite(parts, add(self.offset, g.ht)))
        return tuple(out)

    def bounded_supless(self):
        if self.base.bounded_supless():
            return True
        return any(child.bounded_supless() for child, _ in self.slots)

    @_memo()
    def sites_at_height(self, h):
        out = [self._wrap_base(s) for s in self.base.sites_at_height(h)]
        if self.slots and cmp(h, self.offset) >= 0:
            rel = left_sub(self.offset, h)
            bnode = self.base.leftmost_top()
            for slot, (child, _) in enumerate(self.slots):
                out.extend(self._wrap_child(bnode, slot, 0, s)
                           for s in child.sites_at_height(rel))
        return tuple(out)


class _HatView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.inner = view(desc.inner)

    @_memo()
    def maximal_heights(self):
        return frozenset([hat_shift(mh) for mh in self.inner.maximal_heights()]
                         + [g.ht for g in self.inner.gaps()])

    def bounded_supless(self):
        return self.inner.bounded_supless()

    def _image(self, n):
        ht = hat_shift(n.ht)
        return Node(self.desc, n.parts, ht, ht.cof(), n.ims, n.maximal, "plain", n)

    def _spoint(self, n):
        return Node(self.desc, n.parts + (("below",),), n.ht, Cofinality.OMEGA1,
                    Card.fin(1), False, "spoint", n)

    def _captop(self, node, payload):
        return Node(self.desc, node.parts, node.ht, Cofinality.OMEGA1,
                    Card.fin(0), True, "captop", (node, payload))

    def _walk(self, steps, i):
        try:
            n, i = self.inner.walk(steps, i)
        except GapAddress as g:
            return self._captop(g.node, g.details.get("payload")), g.details.get("consumed")
        except InvalidAddress:
            # a trailing below-marker may belong to this layer even when the
            # inner tree rejects it (its own split points can be deleted by a
            # level removal in between)
            if not (len(steps) > i and isinstance(steps[-1], Below)):
                raise
            prefix = tuple(steps[i:len(steps) - 1])
            n2, j2 = self.walk(prefix, 0)
            if j2 != len(prefix) or n2.tag != "plain" or \
                    n2.inner.cof is not Cofinality.OMEGA1:
                raise
            return self._spoint(n2.inner), len(steps)
        if i < len(steps) and isinstance(steps[i], Below):
            if n.cof is not Cofinality.OMEGA1:
                raise InvalidAddress(
                    "inserted points sit below uncountable-cofinality nodes only")
            return self._spoint(n), i + 1
        return self._image(n), i

    def _ancestor_at(self, node, h):
        if cmp(h, node.ht) == 0:
            return node
        if node.tag == "spoint":
            return self.ancestor_at(self._image(node.inner), h)
        if node.tag == "captop":
            base, payload = node.inner
            kind, hi = hat_unshift(h)
            anc = self.inner.branch_node(payload, hi if kind == "image" else h)
            return self._spoint(anc) if kind == "spoint" else self._image(anc)
        kind, hi = hat_unshift(h)
        anc = self.inner.ancestor_at(node.inner, hi if kind == "image" else h)
        return self._spoint(anc) if kind == "spoint" else self._image(anc)

    def _children(self, node, count):
        if node.tag == "spoint":
            return [self._image(node.inner)]
        if node.tag == "captop":
            return []
        return [self._image(c) for c in self.inner.children(node.inner, count)]

    @_memo()
    def leftmost_top(self):
        return self._image(self.inner.leftmost_top())

    @_memo()
    def sites_at_height(self, h):
        kind, hi = hat_unshift(h)
        if kind == "spoint":
            out = [self._spoint(s) for s in self.inner.sites_at_height(h)
                   if s.ht.cof() is Cofinality.OMEGA1]
            out.extend(self.walk(parts_to_steps(g.parts), 0)[0]  # the captop filling g
                       for g in self.inner.gaps() if cmp(g.ht, h) == 0)
            return tuple(out)
        return tuple(self._image(s) for s in self.inner.sites_at_height(hi))


class _TildeView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.inner = view(desc.inner)

    def _survives(self, n):
        return n.cof is not Cofinality.OMEGA1

    def _remap(self, n):
        ht = tilde_shift(n.ht)
        return Node(self.desc, n.parts, ht, ht.cof(), n.ims, n.maximal, "plain", n)

    def _walk(self, steps, i):
        try:
            n, i = self.inner.walk(steps, i)
        except GapAddress as g:
            raise GapAddress(str(g), node=g.node,
                             consumed=g.details.get("consumed"),
                             payload=("inner", g.details.get("payload"))) from None
        if not self._survives(n):
            if n.maximal:
                raise GapAddress("address names a removed branch supremum",
                                 node=n, consumed=i, payload=("here", n))
            raise InvalidAddress("node at a removed level")
        return self._remap(n), i

    @_memo()
    def maximal_heights(self):
        return frozenset(tilde_shift(mh) for mh in self.inner.maximal_heights()
                         if mh.cof() is not Cofinality.OMEGA1)

    @_memo()
    def gaps(self):
        return tuple(GapSite(s.parts, s.ht) for s in self.inner.unc_sites()
                     if s.ims.is_zero) + self.inner.gaps()

    def bounded_supless(self):
        if self.inner.bounded_supless():
            return True
        return any(not s.ims.is_zero and not s.ims == Card.fin(1)
                   for s in self.inner.unc_sites())

    def _ancestor_at(self, node, h):
        return self._remap(self.inner.ancestor_at(node.inner, tilde_unshift(h)))

    def branch_node(self, payload, h):
        if payload[0] == "here":
            return self._remap(self.inner.ancestor_at(payload[1], tilde_unshift(h)))
        return self._remap(self.inner.branch_node(payload[1], tilde_unshift(h)))

    def _children(self, node, count):
        return [self._remap(c) for c in self.inner.children(node.inner, count)]

    @_memo()
    def leftmost_top(self):
        n = self.inner.leftmost_top()
        if self._survives(n):
            return self._remap(n)
        raise InvalidAddress("leftmost branch has no surviving top")

    @_memo()
    def sites_at_height(self, h):
        # at w1*j this asks for w1*j + 1, the level that drops onto the removed one
        return tuple(self._remap(s)
                     for s in self.inner.sites_at_height(tilde_unshift(h)))


@dataclass(frozen=True)
class GapSite:
    parts: object
    ht: Ordinal


@lru_cache(maxsize=VIEW_CACHE_SIZE)
def view(desc):
    if isinstance(desc, Seg):
        return _SegView(desc)
    if isinstance(desc, Full):
        return _FullView(desc)
    if isinstance(desc, Graft):
        return _GraftView(desc)
    if isinstance(desc, HatOf):
        return _HatView(desc)
    if isinstance(desc, TildeOf):
        return _TildeView(desc)
    raise TypeError("not a tree description: %r" % (desc,))


# -- public operations ---------------------------------------------------------

def structure_ok(desc):
    """Structural invariants only (no chain-completeness judgement)."""
    if isinstance(desc, Seg):
        return
    if isinstance(desc, Full):
        if desc.k != OMEGA_BRANCH and (not isinstance(desc.k, int) or desc.k < 1):
            raise BadBranching("branching must be a positive integer or w")
        if desc.h.is_zero or desc.h.kind() != "successor":
            raise NotChainComplete(
                "a full tree of limit height has cofinal branches without suprema")
        return
    if isinstance(desc, Graft):
        structure_ok(desc.base)
        bview = view(desc.base)
        if desc.children:
            h = bview.height()
            if h.kind() != "successor":
                raise BadGraftBase("graft base of limit height has no top level")
            if bview.maximal_heights() != {pred(h)}:
                raise BadGraftBase(
                    "graft base must have all maximal nodes at its top level")
        for child, mult in desc.children:
            structure_ok(child)
            if mult.is_zero:
                raise BadGraftBase("child multiplicity must be positive")
        return
    if isinstance(desc, (HatOf, TildeOf)):
        structure_ok(desc.inner)
        return
    raise TypeError("not a tree description: %r" % (desc,))


def validate(desc):
    """Accept iff the description denotes a compact Hausdorff tree in the
    coarse wedge topology: structural invariants plus chain completeness."""
    structure_ok(desc)
    v = view(desc)
    if not v.chain_complete():
        raise NotChainComplete(
            "tree is not chain complete (not compact in the coarse wedge topology)")


def is_chain_complete(desc):
    structure_ok(desc)
    return view(desc).chain_complete()


def height(desc):
    return view(desc).height()


def resolve(desc, steps):
    node, i = view(desc).walk(tuple(steps), 0)
    if i != len(steps):
        raise InvalidAddress("address step %d cannot be taken from %r" % (i, node))
    return node


def parts_to_steps(parts):
    return Node(None, tuple(parts), ZERO, Cofinality.ZERO, Card.fin(0), False).address()


def node_at(desc, parts):
    """Resolve trusted canonical parts back into a Node."""
    return resolve(desc, parts_to_steps(parts))


def as_node(desc, x):
    """``x`` itself when it is a Node, otherwise the node at address ``x``."""
    return x if isinstance(x, Node) else resolve(desc, x)


def leq(desc, a, b):
    return leq_parts(as_node(desc, a).parts, as_node(desc, b).parts)


def meet(desc, a, b):
    return node_at(desc, meet_parts(as_node(desc, a).parts, as_node(desc, b).parts))


def ancestor_at(desc, node, h):
    node = as_node(desc, node)
    c = cmp(h, node.ht)
    if c > 0:
        raise InvalidAddress("ancestor height above the node")
    if c == 0:
        return node
    return view(desc).ancestor_at(node, h)


def children(desc, node, count=8):
    return view(desc).children(as_node(desc, node), count)


def child_toward(desc, lower, upper):
    """The immediate successor of ``lower`` on the chain toward ``upper``."""
    if not leq(desc, lower, upper) or lower.parts == upper.parts:
        raise InvalidAddress("child_toward needs lower < upper")
    return ancestor_at(desc, upper, add(lower.ht, ONE))


def cofinal_I_nodes(desc, node, count):
    """Strictly increasing successor-height ancestors cofinal in a
    countable-cofinality limit node."""
    if node.cof is not Cofinality.OMEGA:
        raise InvalidAddress("cofinal omega-sequence needs a cf=omega node")
    out = []
    for j in range(count):
        h = add(fundamental(node.ht, j), ONE)
        out.append(ancestor_at(desc, node, h))
    return out


def unc_sites(desc):
    """Uncountable-cofinality sites: one representative node per region and
    level, lowest level first."""
    return view(desc).unc_sites()
