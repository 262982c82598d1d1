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
node the witness constructions need.  A gap, the missing supremum of a branch
with no upper bound, is a ``Node`` too: a tilde view finds each one (tag
``"gap"``, the inner node it stands at as ``inner``), and the views above lift
it like any other node.  ``gaps()`` lists them, a walk to one raises
``GapAddress`` carrying it, and its ancestors are the branch below it, so a
hat's completion point (tag ``"captop"``, the gap as ``inner``) finds its
ancestors as every other node does.  A template is an address whose count or
index slot holds a ``Param``, a linear parameter slot (``has_param`` tells
whether one does); ``series`` fills it in and fits families from it.  Node
equality is canonical-address equality.  Each level w1*j is summarised by its
sites, one representative Node per structural region; a graft hangs the
representative copies of its children on one top of its base (``base_top``),
which ``top_at``, the leftmost maximal node at a height, finds where a tilde
removed the base's leftmost top.  A view states its sites
once, per level (``sites_at_height``); ``unc_sites``, the sites of every level
lowest first, is derived from them on the base view class.  So is the height of
a hat or tilde view: one past its highest maximal height, or its highest gap.
Functions that take a node also take its address; ``as_node`` resolves either
to a Node.

Descriptions, address steps and ``Param`` are frozen, slotted
``records.record`` classes: ``record`` builds their ``__init__``, ``__eq__``
and ``__hash__``, and each computes its hash on first use and keeps it.  ``view(desc)`` caches the view of the
``VIEW_CACHE_SIZE`` most recently used descriptions and takes the view of a
``Seg`` or ``Full`` from ``leaf_view``, which keeps the
``LEAF_VIEW_CACHE_SIZE`` most recently used leaves, so a leaf's view outlives
its place in the ``view`` cache.  Each view keeps its
answers in one ``memo`` dict (``per_object_memo``, which fills each series'
memo too) of at most ``MEMO_CACHE_SIZE`` answers, dropping the oldest first.
Each "once" below holds while the answer is kept.  A view computes its
nullary facts (``height``, ``unc_sites``, ``maximal_heights``, ``gaps``,
``chain_complete``, ``leftmost_top``) and its sites at each height once:
later calls return the same ordinal, node, tuple, frozenset or bool, which
no caller can change.  It also finds the ancestor of each ``(parts, h)``
once, and a Seg, Full or graft view lists the children of each ``(parts,
count)`` once; a hat or tilde view lists them afresh and keeps none (the
round trip, the one caller that lists them on corpus, asks each node of those
views once).  A walk is kept only at the view it was asked of
(``walk``: ``resolve``, ``node_at``, ``root`` and a hat's sites ask it): the
graft, hat and tilde walks take their inner views' ``_walk`` unkept, so
``resolve`` on a nested view keeps one answer for an address, not one per
layer, and reaches into the inner views at that address only the first
time.  ``find`` walks an address afresh and keeps no walk at all: the round
trip asks it of the views of tilde(hat(d)) and hat(tilde(d)), which it
builds for one call and asks each address of once, and ``classify`` asks it
for the two addresses its report looks up once (R1's top and R4's region
root), so only the callers that ask an address again (``resolve``,
``node_at``, ``root``) keep their walks.  ``find``, ``resolve`` and
``node_at`` check that their walk took every step in one place
(``_whole``).  A view spells each canonical parts
tuple as its address once
(``_address``), and ``node_at`` takes the node of the walk kept for that
address, so ``node_at`` and ``meet`` hand out the node that ``resolve``
gives that address, also once the memo has dropped answers: no node is kept
under the parts.  A Seg or Full view builds the node at each position once
(``_node``), so its walks, children, sites, tops and ancestors share one
node per position.  Calls that raise are not kept.
Resolved nodes and ancestors are shared between callers while they are kept
(a dropped one is resolved again to an equal node), so no code outside
``Node.__init__`` sets a node's attributes, and none sets the ``kind`` or
``n`` of a ``Card``, whose counts 0 to 3 ``Card.fin`` shares; ``children``
returns a new list on every call, while the graft, hat and tilde views read
their inner views' children from ``_kids``: the kept tuple, or a hat's or
tilde's fresh list.  Every node's ``cof`` is
its height's cofinality: below w1 a hat or tilde node takes the height and
cofinality of its inner node, and a grafted node the cofinality of its node
in the child tree.  The tree order on parts, ``leq_parts``, and the meet of
parts, ``meet_parts``, keep their answers for the ``ORDER_CACHE_SIZE`` most
recently asked pairs each.  The height maps of hat and tilde (``hat_shift``, ``hat_unshift``,
``tilde_shift``, ``tilde_unshift``) are pure functions of one ordinal and
keep their answers for the ``ordinals.ORDINAL_CACHE_SIZE`` most recently
used heights, as the ordinal arithmetic does; a height that raises is not kept.  ``structure_ok``
keeps the ``VIEW_CACHE_SIZE`` most recently used descriptions that pass it;
one that fails raises again on every call.
"""

from __future__ import annotations

from functools import lru_cache, wraps

from .errors import (
    BadBranching, BadGraftBase, GapAddress, InvalidAddress, NotChainComplete,
    UndecidableTailPattern, UnsupportedAddress,
)
from .ordinals import (
    ONE, ORDINAL_CACHE_SIZE, ZERO, Cofinality, Ordinal, add,
    drop_leading_unit, fundamental, left_sub, pred, times_nat,
)
from .records import record

# -- budgets -------------------------------------------------------------------
# Every bound on work in this module, in one place, with what it bounds.
_EXPAND_CAP = 10000  # letters a finite multi-letter word spells out; longer is unsupported

# Views kept by the ``view`` cache; least recently used go first.  Each cached
# view keeps its memo of facts, children, ancestors and the walks asked of it,
# so an entry holds many nodes.  At 128 entries the benchmark's corpus workload
# kept them long enough to push them into the older GC generations: against
# this bound its peak RSS rose by 0.7-1.0 MB and its p99 latency from 5.4 to
# 7.2-7.7 ms.  Before leaf views had their own cache, 64 entries were still
# 3.8% slower than 32 on corpus (seed 11, three 10 s runs each).
# One corpus request touches at most 23 views (p99 18, over the first 2,000
# trees of the benchmark's corpus for seed 11; 21 and 18 for seed 5), since
# ``constructions.normalize`` asks the views of the descriptions it is given
# and builds none of its normal forms', and one round of the witness cases
# 25, so 32 holds a request's views.  A corpus request misses this cache 9.5
# times (6.7 composite views built and 2.8 leaf views taken from
# ``leaf_view``; seed 11, 3,000 requests), so it turns over every 3.4
# requests.  The series memo has its own bound, ``series.SERIES_CACHE_SIZE``.
VIEW_CACHE_SIZE = 32

# Seg and Full views kept by ``leaf_view``, which ``view`` asks for every
# leaf; least recently used go first.  A leaf that drops out of the ``view``
# cache comes back with its memo and the nodes it has built.  The
# benchmark's corpus draws its leaves from 16 ordinals, 80 Seg and Full
# leaves (85 kept after 3,000 seed-11 requests: five more are segments that
# the constructions build).  With the ``view`` cache alone a request rebuilt
# 2.8 leaf views and built 35.9 leaf nodes; at this bound it builds 0.01 and
# 0.1 (seed 11).  A bound of ``VIEW_CACHE_SIZE`` (32) measured no gain.  At
# most 128 * ``MEMO_CACHE_SIZE`` answers are kept, as many as the series
# memos hold.
LEAF_VIEW_CACHE_SIZE = 128

# Answers kept in the one ``memo`` dict of each view and each series
# (``per_object_memo``); the oldest go first.  An entry is a key of a few
# parts and a node, tuple or ``Profile``, so the ``VIEW_CACHE_SIZE`` views,
# the ``LEAF_VIEW_CACHE_SIZE`` leaf views and the ``series.SERIES_CACHE_SIZE``
# series kept hold at most 32,768, 131,072 and 131,072 small entries.  The
# benchmark's workloads (seed 901, their warm-ups and 4,000 requests each,
# each in its own process) keep at most 410 answers in one leaf view, 47 in
# one composite view and 22 in one series (witness), and 37 in one leaf view
# and 36 in one composite view (corpus), the nodes a leaf view builds
# included, so none drops one.  Resolving 100,000 distinct addresses in one
# view keeps this many, not 100,000: max RSS 18.8 MB instead of 106.8 MB
# (CPython 3.11).
MEMO_CACHE_SIZE = 1024

# Pairs kept by each of the ``leq_parts`` and ``meet_parts`` memos.  Keys are
# two immutable parts tuples and the value a bool or a parts tuple, so an
# entry is small.  The witness constructions and their re-checks ask the same
# few questions again and again: the benchmark's witness workload (seed 901,
# its warm-up and 4,000 draws) asks ``leq_parts`` 640 distinct pairs (98.0%
# of its calls hits) and ``meet_parts`` 129 (98.4% hits).  The corpus
# workload calls neither.
ORDER_CACHE_SIZE = 4096

OMEGA_BRANCH = "w"

# the functions below read these names: a member read off the enum class
# costs more than a module global
_ZERO_COF, _OMEGA_COF, _OMEGA1_COF = Cofinality.ZERO, Cofinality.OMEGA, Cofinality.OMEGA1


# -- cardinal classes ---------------------------------------------------------

class Card:
    """Cardinality class: an exact finite number, omega, or omega1-or-more."""

    __slots__ = ("kind", "n")

    def __init__(self, kind, n=0):
        if kind not in ("fin", "omega", "omega1"):
            raise ValueError(kind)
        self.kind = kind
        self.n = n if kind == "fin" else 0

    @staticmethod
    def fin(n):
        """The class of exactly n; 0 to 3 are shared instances, so no code
        sets a card's ``kind`` or ``n``."""
        return _SMALL_FIN[n] if 0 <= n < len(_SMALL_FIN) else Card("fin", n)

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
_SMALL_FIN = tuple(Card("fin", n) for n in range(4))  # the counts views hand out


def card_of_branching(k):
    return CARD_OMEGA if k == OMEGA_BRANCH else Card.fin(k)


# -- descriptions -------------------------------------------------------------

@record(frozen=True)
class Seg:
    eta: Ordinal


@record(frozen=True)
class Full:
    k: object  # positive int or OMEGA_BRANCH
    h: Ordinal


@record(frozen=True)
class Graft:
    base: object
    children: tuple  # of (desc, Card) pairs


@record(frozen=True)
class HatOf:
    inner: object


@record(frozen=True)
class TildeOf:
    inner: object


# -- address steps ------------------------------------------------------------

@record(frozen=True)
class Up:
    delta: Ordinal


@record(frozen=True)
class Child:
    i: int


@record(frozen=True)
class Word:
    letters: tuple  # of ints
    count: Ordinal


@record(frozen=True)
class Copy:
    slot: int
    idx: int


@record(frozen=True)
class Below:
    pass


# -- the template slot -----------------------------------------------------------

@record(frozen=True)
class Param:
    """Linear parameter slot: value(p) = base + scale*p (+ merged tails)."""
    base: Ordinal = ZERO
    scale: Ordinal = ONE

    def at(self, p):
        if isinstance(p, Ordinal):
            if self.scale != ONE:
                raise UndecidableTailPattern(
                    "ordinal parameters support unit scale only")
            return add(self.base, p)
        return add(self.base, times_nat(self.scale, p))


def has_param(template):
    for s in template:
        if isinstance(s, (Word, Up, Copy, Child)):
            slot = getattr(s, "count", None) or getattr(s, "delta", None) or \
                getattr(s, "idx", None) or getattr(s, "i", None)
            if isinstance(slot, Param):
                return True
    return False


# -- height transforms --------------------------------------------------------

@lru_cache(maxsize=ORDINAL_CACHE_SIZE)
def hat_shift(h):
    """Height of the image of a height-h node after the insertions below it.

    Only the insertion at the last w1-block survives; all deeper ones are
    absorbed by the following uncountable segment.
    """
    if h.omega1 >= 1 and h.countable.is_finite:
        return add(h, ONE)
    return h


@lru_cache(maxsize=ORDINAL_CACHE_SIZE)
def hat_unshift(h):
    """Inverse of the hat height map; returns ("spoint"|"image", inner height)."""
    if h.cof() is _OMEGA1_COF:
        return ("spoint", h)
    if h.omega1 >= 1 and h.countable.is_finite:
        k = h.countable.to_int()
        return ("image", Ordinal(h.omega1, ((ZERO, k - 1),) if k > 1 else ()))
    return ("image", h)


@lru_cache(maxsize=ORDINAL_CACHE_SIZE)
def tilde_shift(h):
    """Height of a surviving node after the uncountable-cofinality levels
    below it are removed (one point per w1-block boundary)."""
    if h.omega1 == 0:
        return h
    gamma = h.countable
    if gamma.is_zero:
        raise ValueError("node at a removed level has no shifted height")
    return Ordinal(h.omega1, drop_leading_unit(gamma).terms)


@lru_cache(maxsize=ORDINAL_CACHE_SIZE)
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
        return self.cof is _ZERO_COF

    @property
    def is_root(self):
        return self.parts == ()

    def address(self):
        """Canonical address (user steps) for the node."""
        return parts_to_steps(self.parts)

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
            out.append("up:%s" % (p[1],))
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
    return l1 == l2 and c1 < c2 and i == len(r1) - 1


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
        return x[i][1] < y[i][1]
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
            out.append((l1, c1 if c1 <= c2 else c2))
    return tuple(out)


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def meet_parts(a, b):
    """Parts of the meet of the nodes at canonical parts ``a`` and ``b``."""
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
            low = xa[i][1] if xa[i][1] <= xb[i][1] else xb[i][1]
            if not low.is_zero:
                out.append(("up", low))
        elif xa[i][0] == "runs":
            runs = _runs_meet(xa[i][1], xb[i][1])
            if runs:
                out.append(("runs", runs))
    return tuple(out)


# -- views ---------------------------------------------------------------------

_MISS = object()  # no answer filed yet: ``None`` and ``False`` are answers
_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08  # ``inspect``'s code flags, without its import


def per_object_memo(on_parts=False):
    """Keep a method's answers in its object's one ``memo`` dict: a view's or
    a series'.

    The method takes no, one or two positional arguments besides ``self``,
    and its answer is filed under ``(name,)``, ``(name, a)`` or ``(name, a,
    b)``; with ``on_parts`` it takes a node and one more argument and files
    under ``(name, node.parts, b)``.  Each shape gets its own wrapper when the
    method is decorated, so a call builds its key directly; any other
    signature raises ``TypeError`` then.  The object belongs to one immutable
    value, so while an answer is kept every later call returns the same
    ordinal, node, tuple or ``Profile``.  At ``MEMO_CACHE_SIZE`` answers the
    oldest is dropped first; a call that raises is not kept and raises again
    next time."""
    def keep(memo, k, out):
        # the one place a miss is filed, for every shape
        if len(memo) >= MEMO_CACHE_SIZE:
            del memo[next(iter(memo))]
        memo[k] = out
        return out

    def memoize(method):
        name = method.__name__
        code = method.__code__
        arity = code.co_argcount - 1
        if code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS) or code.co_kwonlyargcount \
                or not 0 <= arity <= 2 or (on_parts and arity != 2):
            raise TypeError("per_object_memo cannot key %s%s" % (
                name, "(self, node, x)" if on_parts else "(self[, a[, b]])"))
        if arity == 0:
            k0 = (name,)

            def once(self):
                out = self.memo.get(k0, _MISS)
                return keep(self.memo, k0, method(self)) if out is _MISS else out
        elif arity == 1:
            def once(self, a):
                k = (name, a)
                out = self.memo.get(k, _MISS)
                return keep(self.memo, k, method(self, a)) if out is _MISS else out
        elif on_parts:
            def once(self, node, b):
                k = (name, node.parts, b)
                out = self.memo.get(k, _MISS)
                return keep(self.memo, k, method(self, node, b)) if out is _MISS else out
        else:
            def once(self, a, b):
                k = (name, a, b)
                out = self.memo.get(k, _MISS)
                return keep(self.memo, k, method(self, a, b)) if out is _MISS else out
        return wraps(method)(once)

    return memoize


def _whole(steps, walked):
    """The node of a walk ``(node, i)`` of ``steps`` that took every step; a
    walk that stopped short of the end raises ``InvalidAddress``."""
    node, i = walked
    if i != len(steps):
        raise InvalidAddress("address step %d cannot be taken from %r" % (i, node))
    return node


class _View:
    def __init__(self, desc):
        self.desc = desc
        self.memo = {}  # (method name, *key) -> answer

    @per_object_memo()
    def walk(self, steps, i):
        """The node that ``steps[i:]`` leads to, and the index of the first
        step it could not take, from ``_walk``, kept at this view only: the
        graft, hat and tilde ``_walk``s call their inner views' ``_walk``,
        and catch ``GapAddress`` and ``InvalidAddress`` from them, which raise
        again on every call.  Callers share the ``Node``.  ``resolve``,
        ``node_at``, ``root`` and a hat's sites ask it, since they ask an
        address again; ``find`` walks afresh and keeps nothing."""
        return self._walk(steps, i)

    def find(self, steps):
        """The node at the address ``steps``, walked afresh from the root by
        ``_walk`` and not kept: no ``walk`` answer is filed, at this view or
        any inner one.  It is for a caller that asks each address of a view
        once: the round trip, of the views it builds for one call, and
        ``classify``'s one-shot lookups (``has_omega1_chain``,
        ``binary_obstruction``).  The node equals the one ``resolve`` gives,
        and is shared only where a Seg or Full view shares its node at a
        position.  An address that does not
        resolve raises ``InvalidAddress``, as in ``resolve``."""
        return _whole(steps, self._walk(steps, 0))

    @per_object_memo()
    def _address(self, parts):
        """The canonical address that ``parts`` spell, once per view and
        parts."""
        return parts_to_steps(parts)

    def node_at(self, parts):
        """The node at canonical parts: the shared node that ``walk`` keeps
        for the address they spell.  Only that address is kept per parts,
        never the node, so no answer of ``node_at`` outlives the walk and
        hands out a node that ``resolve`` no longer gives.  Parts that do not
        resolve raise ``InvalidAddress`` on every call."""
        steps = self._address(parts)
        return _whole(steps, self.walk(steps, 0))

    @per_object_memo(on_parts=True)
    def _kids(self, node, count):
        return tuple(self._children(node, count))

    def children(self, node, count):
        """Up to ``count`` immediate successors of ``node``, from
        ``_children`` once per view, parts and count, as a new list."""
        return list(self._kids(node, count))

    @per_object_memo(on_parts=True)
    def ancestor_at(self, node, h):
        """The ancestor of ``node`` at height ``h`` (at most ``node.ht``),
        from ``_ancestor_at``.  Callers share the returned ``Node``."""
        return self._ancestor_at(node, h)

    @per_object_memo()
    def height(self):
        """The least height above every node: one past each maximal height,
        and a gap's own height, where a branch with no supremum ends."""
        best = ONE  # at least the root level exists
        for h in [add(mh, ONE) for mh in self.maximal_heights()] + \
                [g.ht for g in self.gaps()]:
            if h > best:
                best = h
        return best

    @per_object_memo()
    def unc_sites(self):
        """The sites of every level w1*j, lowest level first."""
        return tuple(s for j in range(1, self.height().omega1 + 1)
                     for s in self.sites_at_height(Ordinal(j, ())))

    # gap/completeness defaults for the core region views
    def gaps(self):
        return ()

    def bounded_supless(self):
        return False

    @per_object_memo()
    def chain_complete(self):
        return not self.gaps() and not self.bounded_supless()

    def root(self):
        node, _ = self.walk((), 0)
        return node


class _SegView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.eta = desc.eta

    @per_object_memo()
    def height(self):
        return add(self.eta, ONE)

    @per_object_memo()
    def maximal_heights(self):
        return frozenset((self.eta,))

    @per_object_memo()
    def _node(self, pos):
        """The node at height ``pos``, built once per view and kept in its
        memo, so walks, children, sites and ancestors share it."""
        maximal = pos == self.eta
        return Node(self.desc, (("up", pos),) if pos != ZERO else (),
                    pos, pos.cof(), _SMALL_FIN[0 if maximal else 1], maximal)

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
            if nxt > self.eta:
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

    @per_object_memo()
    def leftmost_top(self):
        return self._node(self.eta)

    def top_at(self, h):
        """The leftmost maximal node at height ``h``, or None when no
        maximal node is that high; each view kind finds it afresh and keeps
        nothing, since ``base_top`` asks it only where a tilde removed a graft
        base's leftmost top.  Where a view's leftmost top survives,
        ``top_at`` of its height is that node."""
        return self._node(h) if h == self.eta else None

    @per_object_memo()
    def sites_at_height(self, h):
        if h <= self.eta:
            return (self._node(h),)
        return ()


class _FullView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.k = desc.k
        self.top = pred(desc.h)
        self.branching = card_of_branching(desc.k)

    def height(self):
        return self.desc.h

    @per_object_memo()
    def maximal_heights(self):
        return frozenset((self.top,))

    @per_object_memo()
    def _node(self, runs, ht):
        """The node at the tuple ``runs``, whose counts sum to ``ht``: every
        caller has that sum already.  It is built once per view and kept in
        its memo, so walks, children, sites and ancestors share it."""
        maximal = ht == self.top
        return Node(self.desc, (("runs", runs),) if runs else (),
                    ht, ht.cof(), _SMALL_FIN[0] if maximal else self.branching, maximal)

    def _append(self, runs, ht, letter, count):
        if count == ZERO:
            return ht
        if letter < 0 or (self.k != OMEGA_BRANCH and letter >= self.k):
            raise InvalidAddress("branch letter %d out of range" % (letter,))
        nxt = add(ht, count)
        if nxt > self.top:
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
        return self._node(tuple(runs), ht), i

    def _ancestor_at(self, node, h):
        runs = node.parts[0][1] if node.parts else ()
        out, acc = [], ZERO
        for letter, count in runs:
            nxt = add(acc, count)
            if nxt <= h:
                out.append((letter, count))
                acc = nxt
                if acc == h:
                    break
            else:
                part = left_sub(acc, h)
                if not part.is_zero:
                    out.append((letter, part))
                acc = h
                break
        return self._node(tuple(out), acc)

    def _children(self, node, count):
        if node.maximal:
            return []
        runs = node.parts[0][1] if node.parts else ()
        ht = add(node.ht, ONE)
        out = []
        n = count if self.k == OMEGA_BRANCH else min(count, self.k)
        for letter in range(n):
            if runs and runs[-1][0] == letter:
                ext = runs[:-1] + ((letter, add(runs[-1][1], ONE)),)
            else:
                ext = runs + ((letter, ONE),)
            out.append(self._node(ext, ht))
        return out

    @per_object_memo()
    def leftmost_top(self):
        if self.top == ZERO:
            return self._node((), ZERO)
        return self._node(((0, self.top),), self.top)

    def top_at(self, h):
        return self.leftmost_top() if h == self.top else None

    @per_object_memo()
    def sites_at_height(self, h):
        if h <= self.top:
            return (self._node(((0, h),) if h != ZERO else (), h),)
        return ()


class _GraftView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.base = view(desc.base)
        self.slots = [(view(d), mult) for d, mult in desc.children]
        self.offset = self.base.height()  # children roots live at this level
        total = _SMALL_FIN[0]
        for _, mult in self.slots:
            total = total.plus(mult)
        self.top_ims = total  # of a maximal base node: every copy's root is its child

    @per_object_memo()
    def height(self):
        if not self.slots:
            return self.base.height()
        best = None
        for child, _ in self.slots:
            h = child.height()
            if best is None or h > best:
                best = h
        return add(self.base.height(), best)

    @per_object_memo()
    def maximal_heights(self):
        if not self.slots:
            return self.base.maximal_heights()
        return frozenset(add(self.offset, mh)
                         for child, _ in self.slots for mh in child.maximal_heights())

    def _wrap_base(self, bnode):
        if bnode.maximal and self.slots:
            return Node(self.desc, bnode.parts, bnode.ht, bnode.cof,
                        self.top_ims, False, "plain", ("base", bnode))
        return Node(self.desc, bnode.parts, bnode.ht, bnode.cof,
                    bnode.ims, bnode.maximal, "plain", ("base", bnode))

    def _wrap_child(self, bnode, slot, idx, cnode):
        start = add(bnode.ht, ONE)
        ht = add(start, cnode.ht)
        parts = bnode.parts + (("copy", slot, idx),) + cnode.parts
        # cof(a + b) = cof(b) for b > 0, and a child root (b = 0) sits at a
        # successor height, as it does in its own tree
        return Node(self.desc, parts, ht, cnode.cof, cnode.ims, cnode.maximal,
                    "plain", ("child", bnode, slot, idx, cnode))

    def _walk(self, steps, i):
        try:
            bnode, i = self.base._walk(steps, i)
        except GapAddress as g:
            raise GapAddress(str(g), node=self._wrap_base(g.node),
                             consumed=g.details.get("consumed")) from None
        if i < len(steps) and isinstance(steps[i], Copy) and self.slots:
            if not bnode.maximal:
                raise InvalidAddress("copies attach above maximal nodes only")
            s = steps[i]
            if not 0 <= s.slot < len(self.slots):
                raise InvalidAddress("graft slot %d out of range" % (s.slot,))
            child, mult = self.slots[s.slot]
            if mult.kind == "fin" and s.idx >= mult.n:
                raise InvalidAddress("copy index %d out of range" % (s.idx,))
            if s.idx < 0:
                raise InvalidAddress("negative copy index")
            try:
                cnode, j = child._walk(steps, i + 1)
            except GapAddress as g:
                raise GapAddress(
                    "unbounded branch inside a grafted copy",
                    node=self._wrap_child(bnode, s.slot, s.idx, g.node),
                    consumed=g.details.get("consumed")) from None
            return self._wrap_child(bnode, s.slot, s.idx, cnode), j
        return self._wrap_base(bnode), i

    def _ancestor_at(self, node, h):
        kind = node.inner[0]
        if kind == "child":
            _, bnode, slot, idx, cnode = node.inner
            start = add(bnode.ht, ONE)
            if h >= start:
                child, _ = self.slots[slot]
                canc = child.ancestor_at(cnode, left_sub(start, h))
                return self._wrap_child(bnode, slot, idx, canc)
            return self._wrap_base(self.base.ancestor_at(bnode, h))
        return self._wrap_base(self.base.ancestor_at(node.inner[1], h))

    def _children(self, node, count):
        kind = node.inner[0]
        if kind == "child":
            _, bnode, slot, idx, cnode = node.inner
            child, _ = self.slots[slot]
            return [self._wrap_child(bnode, slot, idx, c)
                    for c in child._kids(cnode, count)]
        bnode = node.inner[1]
        if bnode.maximal and self.slots:
            out = []
            for slot, (child, mult) in enumerate(self.slots):
                croot = child.root()
                n = mult.n if mult.kind == "fin" else count
                for idx in range(n):
                    out.append(self._wrap_child(bnode, slot, idx, croot))
                    if len(out) >= count:
                        return out
            return out
        return [self._wrap_base(c) for c in self.base._kids(bnode, count)]

    def base_top(self):
        """The maximal base node that the representative copies hang on: the
        base's leftmost top, or, where a tilde removed that top while others
        survive, the leftmost node of the base's top level (``top_at``).  A
        base of limit height has no top level and raises ``InvalidAddress``."""
        try:
            return self.base.leftmost_top()
        except InvalidAddress:
            if self.offset.kind() != "successor":
                raise
            return self.base.top_at(pred(self.offset))

    @per_object_memo()
    def leftmost_top(self):
        if not self.slots:
            return self._wrap_base(self.base.leftmost_top())
        child, _ = self.slots[0]
        return self._wrap_child(self.base_top(), 0, 0, child.leftmost_top())

    def top_at(self, h):
        if not self.slots:
            top = self.base.top_at(h)
            return None if top is None else self._wrap_base(top)
        if h < self.offset:
            return None
        rel = left_sub(self.offset, h)
        for slot, (child, _) in enumerate(self.slots):
            top = child.top_at(rel)
            if top is not None:
                return self._wrap_child(self.base_top(), slot, 0, top)
        return None

    @per_object_memo()
    def gaps(self):
        out = [self._wrap_base(g) for g in self.base.gaps()]
        if self.slots:
            bnode = self.base_top()
            for slot, (child, _) in enumerate(self.slots):
                out.extend(self._wrap_child(bnode, slot, 0, g) for g in child.gaps())
        return tuple(out)

    def bounded_supless(self):
        if self.base.bounded_supless():
            return True
        return any(child.bounded_supless() for child, _ in self.slots)

    @per_object_memo()
    def sites_at_height(self, h):
        out = [self._wrap_base(s) for s in self.base.sites_at_height(h)]
        if self.slots and h >= self.offset:
            rel = left_sub(self.offset, h)
            bnode = self.base_top()
            for slot, (child, _) in enumerate(self.slots):
                out.extend(self._wrap_child(bnode, slot, 0, s)
                           for s in child.sites_at_height(rel))
        return tuple(out)


class _HatView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.inner = view(desc.inner)

    @per_object_memo()
    def maximal_heights(self):
        return frozenset([hat_shift(mh) for mh in self.inner.maximal_heights()]
                         + [g.ht for g in self.inner.gaps()])

    def bounded_supless(self):
        return self.inner.bounded_supless()

    def _image(self, n):
        if not n.ht.omega1:  # the identity below w1
            return Node(self.desc, n.parts, n.ht, n.cof, n.ims, n.maximal, "plain", n)
        ht = hat_shift(n.ht)
        return Node(self.desc, n.parts, ht, ht.cof(), n.ims, n.maximal, "plain", n)

    def _spoint(self, n):
        return Node(self.desc, n.parts + (("below",),), n.ht, _OMEGA1_COF,
                    _SMALL_FIN[1], False, "spoint", n)

    def _captop(self, gap):
        """The completion point that fills the inner view's ``gap``."""
        return Node(self.desc, gap.parts, gap.ht, _OMEGA1_COF,
                    _SMALL_FIN[0], True, "captop", gap)

    def _walk(self, steps, i):
        try:
            n, i = self.inner._walk(steps, i)
        except GapAddress as g:
            return self._captop(g.node), g.details.get("consumed")
        except InvalidAddress:
            # a trailing below-marker may belong to this layer even when the
            # inner tree rejects it (its own split points can be deleted by a
            # level removal in between)
            if not (len(steps) > i and isinstance(steps[-1], Below)):
                raise
            prefix = tuple(steps[i:len(steps) - 1])
            n2, j2 = self._walk(prefix, 0)
            if j2 != len(prefix) or n2.tag != "plain" or \
                    n2.inner.cof is not _OMEGA1_COF:
                raise
            return self._spoint(n2.inner), len(steps)
        if i < len(steps) and isinstance(steps[i], Below):
            if n.cof is not _OMEGA1_COF:
                raise InvalidAddress(
                    "inserted points sit below uncountable-cofinality nodes only")
            return self._spoint(n), i + 1
        return self._image(n), i

    def _ancestor_at(self, node, h):
        if h == node.ht:
            return node
        if node.tag == "spoint":
            return self.ancestor_at(self._image(node.inner), h)
        kind, hi = hat_unshift(h)
        anc = self.inner.ancestor_at(node.inner, hi if kind == "image" else h)
        return self._spoint(anc) if kind == "spoint" else self._image(anc)

    def _children(self, node, count):
        if node.tag == "spoint":
            return [self._image(node.inner)]
        if node.tag == "captop":
            return []
        return [self._image(c) for c in self.inner._kids(node.inner, count)]

    def _kids(self, node, count):
        """The children afresh, kept nowhere: the round trip, the one caller
        that lists them on corpus, asks each node of a hat or tilde view once."""
        return self._children(node, count)

    @per_object_memo()
    def leftmost_top(self):
        return self._image(self.inner.leftmost_top())

    def top_at(self, h):
        # an image never sits at a height of uncountable cofinality, and a
        # completion point always does
        kind, hi = hat_unshift(h)
        if kind == "image":
            top = self.inner.top_at(hi)
            return None if top is None else self._image(top)
        return next((self._captop(g) for g in self.inner.gaps() if g.ht == h), None)

    @per_object_memo()
    def sites_at_height(self, h):
        kind, hi = hat_unshift(h)
        if kind == "spoint":
            out = [self._spoint(s) for s in self.inner.sites_at_height(h)
                   if s.ht.cof() is _OMEGA1_COF]
            out.extend(self._captop(g) for g in self.inner.gaps() if g.ht == h)
            return tuple(out)
        return tuple(self._image(s) for s in self.inner.sites_at_height(hi))


class _TildeView(_View):
    def __init__(self, desc):
        super().__init__(desc)
        self.inner = view(desc.inner)

    def _remap(self, n):
        if not n.ht.omega1:  # the identity below w1
            return Node(self.desc, n.parts, n.ht, n.cof, n.ims, n.maximal, "plain", n)
        ht = tilde_shift(n.ht)
        return Node(self.desc, n.parts, ht, ht.cof(), n.ims, n.maximal, "plain", n)

    def _gap(self, n):
        """The gap at the inner node ``n``: a removed maximal node, or an
        inner view's gap.  Its parts name no node of this view."""
        return Node(self.desc, n.parts, n.ht, _OMEGA1_COF, _SMALL_FIN[0],
                    False, "gap", n)

    def _walk(self, steps, i):
        try:
            n, i = self.inner._walk(steps, i)
        except GapAddress as g:
            raise GapAddress(str(g), node=self._gap(g.node),
                             consumed=g.details.get("consumed")) from None
        if n.cof is _OMEGA1_COF:  # at a removed level
            if n.maximal:
                raise GapAddress("address names a removed branch supremum",
                                 node=self._gap(n), consumed=i)
            raise InvalidAddress("node at a removed level")
        return self._remap(n), i

    @per_object_memo()
    def maximal_heights(self):
        return frozenset(tilde_shift(mh) for mh in self.inner.maximal_heights()
                         if mh.cof() is not _OMEGA1_COF)

    @per_object_memo()
    def gaps(self):
        return tuple(self._gap(n) for n in self.inner.unc_sites() if n.ims.is_zero) + \
            tuple(self._gap(g) for g in self.inner.gaps())

    def bounded_supless(self):
        if self.inner.bounded_supless():
            return True
        return any(not s.ims.is_zero and not s.ims == Card.fin(1)
                   for s in self.inner.unc_sites())

    def _ancestor_at(self, node, h):
        return self._remap(self.inner.ancestor_at(node.inner, tilde_unshift(h)))

    def _children(self, node, count):
        return [self._remap(c) for c in self.inner._kids(node.inner, count)]

    def _kids(self, node, count):
        return self._children(node, count)  # afresh, as on the hat view

    @per_object_memo()
    def leftmost_top(self):
        n = self.inner.leftmost_top()
        if n.cof is not _OMEGA1_COF:
            return self._remap(n)
        raise InvalidAddress("leftmost branch has no surviving top")

    def top_at(self, h):
        # a surviving node never sits at a removed level
        top = self.inner.top_at(tilde_unshift(h))
        return None if top is None else self._remap(top)

    @per_object_memo()
    def sites_at_height(self, h):
        # at w1*j this asks for w1*j + 1, the level that drops onto the removed one
        return tuple(self._remap(s)
                     for s in self.inner.sites_at_height(tilde_unshift(h)))


@lru_cache(maxsize=LEAF_VIEW_CACHE_SIZE)
def leaf_view(desc):
    """The view of a ``Seg`` or ``Full``, kept for the
    ``LEAF_VIEW_CACHE_SIZE`` most recently used leaves: ``view`` takes a
    leaf's view from here, so a leaf that drops out of the ``view`` cache
    comes back with its memo."""
    return _SegView(desc) if isinstance(desc, Seg) else _FullView(desc)


@lru_cache(maxsize=VIEW_CACHE_SIZE)
def view(desc):
    if isinstance(desc, (Seg, Full)):
        return leaf_view(desc)
    if isinstance(desc, Graft):
        return _GraftView(desc)
    if isinstance(desc, HatOf):
        return _HatView(desc)
    if isinstance(desc, TildeOf):
        return _TildeView(desc)
    raise TypeError("not a tree description: %r" % (desc,))


# -- public operations ---------------------------------------------------------

@lru_cache(maxsize=VIEW_CACHE_SIZE)
def structure_ok(desc):
    """Structural invariants only (no chain-completeness judgement).  The
    descriptions that pass are kept, as their views are; one that fails is
    not kept and raises again on every call."""
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
    """Whether ``desc`` denotes a chain-complete tree: False wherever
    ``validate`` raises ``NotChainComplete``, a full tree of limit height
    included, and True on every tree ``validate`` accepts.  A description
    with a bad graft base or bad branching raises ``BadGraftBase`` or
    ``BadBranching``, as ``validate`` does: it denotes no tree at all."""
    try:
        structure_ok(desc)
    except NotChainComplete:
        return False
    return view(desc).chain_complete()


def height(desc):
    return view(desc).height()


def resolve(desc, steps):
    """The node at address ``steps``, through the walk kept at the view of
    ``desc``: a repeated ``resolve`` hands out the kept node."""
    steps = tuple(steps)
    return _whole(steps, view(desc).walk(steps, 0))


def parts_to_steps(parts):
    """The canonical address (user steps) that canonical parts spell."""
    steps = []
    for part in parts:
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


def node_at(desc, parts):
    """Resolve trusted canonical parts back into a Node through the walk kept
    for their address; callers share the Node that ``resolve`` gives that
    address."""
    return view(desc).node_at(tuple(parts))


def as_node(desc, x):
    """``x`` itself when it is a Node, otherwise the node at address ``x``."""
    return x if isinstance(x, Node) else resolve(desc, x)


def leq(desc, a, b):
    return leq_parts(as_node(desc, a).parts, as_node(desc, b).parts)


def meet(desc, a, b):
    return node_at(desc, meet_parts(as_node(desc, a).parts, as_node(desc, b).parts))


def ancestor_at(desc, node, h):
    node = as_node(desc, node)
    if h > node.ht:
        raise InvalidAddress("ancestor height above the node")
    if h == node.ht:
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
    if node.cof is not _OMEGA_COF:
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
