"""One-parameter families of nodes: templates, series fitting and profiles.

A template is an address whose count or index slots may hold a linear
``Param``, the template slot that ``wedgetree.trees`` defines next to the
address steps (so parsing a template loads no series code); this module
re-exports it and fills it in with ``instantiate``.  Resolving it at several parameters and unifying the canonical
parts finds the one slot (a run count, a copy index, a child letter, an up
position) that varies, affinely, while everything else stays fixed.
``SymbolicSeries`` reasons over that slot to answer order, equality and meet
questions for every parameter at once, as ``Profile`` sets of parameters.
``fit_template`` runs the same unifier on concrete nodes to recover a
template from them.

A series depends only on its arguments, so the library builds them through
``cached_series(d, template, ordinal, bound)``, a memo that keeps the
``SERIES_CACHE_SIZE`` most recently used series and returns the same object
for equal arguments.  A fit that raises ``UndecidableTailPattern`` is not
kept and raises again on every call.

A series is immutable, so it answers each profile question once:
``le_profile``, ``eq_profile``, ``meet_profile_with`` and
``children_profile`` resolve their argument to a node and look the answer up
in the series' own ``answers`` memo, keyed on the question and that node
(the node, not only its parts, since a meet profile reads its height).  The
memo belongs to the series and dies with it, and it keeps at most
``PROFILE_CACHE_SIZE`` answers, dropping the oldest first; every caller
asking one question gets the same ``Profile`` or tuple, which nobody assigns
to.  A question that raises ``UndecidableTailPattern`` is not kept and
raises again on every call.

Every profile is read off the slot, with no probe: ``_locate`` finds the
value c that a node holds in the slot, and the members from 2 on hold a
value below c, c itself (``_Slot.solve_eq``) or one past it
(``_Slot.solve_ge``).  That decides which members lie above the node or
equal it, which of its children they enter and how high they meet it.

The slot itself is still found from samples, not read off the template:

- ``_NAT_PROBES``/``_NAT_VERIFY``: an omega-indexed series is fitted at
  parameters 2, 3, 5, 9 and checked at 12 and 20;
- ``_ord_probes``: an ordinal-indexed series is fitted at 2, 3, 5, 9, omega
  and omega*2, without verification probes.

A fit reads the scale and the tail off the sampled values and derives the
base by right cancellation (``ordinals.right_sub``): no coefficient is
searched for, so the size of a coefficient never decides a fit.  An ordinal
slot's equation ``value(a) == c`` is solved the same way.
"""

from __future__ import annotations

import functools

from .errors import InvalidAddress, OrdinalUnderflowError, UndecidableTailPattern
from .ordinals import (
    OMEGA, ONE, ZERO, Ordinal, add, cmp, left_sub, limit_of_affine, nat,
    omega_power, right_sub, times_nat,
)
from .trees import (
    Below, Child, Copy, Param, Up, Word, as_node, child_toward, leq_parts,
    meet_parts, node_at, resolve,
)


# -- parameterized templates -----------------------------------------------------

def _index_at(param, p):
    """A copy index or child letter at p, which must be a natural number: an
    ordinal-indexed family reaches omega there, and nothing addresses it."""
    value = param.at(p)
    if not value.is_finite:
        raise UndecidableTailPattern(
            "ordinal parameter in a copy index or child letter")
    return value.to_int()


def instantiate(template, p):
    steps = []
    for s in template:
        if isinstance(s, Word) and isinstance(s.count, Param):
            steps.append(Word(s.letters, s.count.at(p)))
        elif isinstance(s, Up) and isinstance(s.delta, Param):
            steps.append(Up(s.delta.at(p)))
        elif isinstance(s, Copy) and isinstance(s.idx, Param):
            steps.append(Copy(s.slot, _index_at(s.idx, p)))
        elif isinstance(s, Child) and isinstance(s.i, Param):
            steps.append(Child(_index_at(s.i, p)))
        else:
            steps.append(s)
    return tuple(steps)


# -- fitting a series from probes --------------------------------------------------

# Every parameter sample of this module, in one place, with what it samples.
_NAT_PROBES = (2, 3, 5, 9)  # an omega-indexed series is fitted here,
_NAT_VERIFY = (12, 20)      # and checked here


def _ord_probes():
    return (nat(2), nat(3), nat(5), nat(9), OMEGA, times_nat(OMEGA, 2))


def _fit_affine(values, ordinal_params):
    """Fit value(p) = base + scale*p + tail against sampled (param, value).

    scale and tail are read off the values, then base is the least ordinal
    with base + scale*p1 + tail == v1 (``right_sub``); the fit is checked
    against every sample."""
    (p1, v1), (p2, v2) = values[0], values[1]
    if ordinal_params:
        # unit scale, and tail = w*k + n: a tail of w^2 or more would absorb
        # every probe.  At a = w the value ends in w*(b + 1 + k) + n, b being
        # base's w coefficient.  The finite probes give one value exactly when
        # k > 0, and then the least base has b = 0.
        at_omega = dict(next(v for p, v in values if not p.is_finite).terms)
        m, n = at_omega.get(ONE, 0), at_omega.get(ZERO, 0)
        scale, tail = ONE, nat(n)
        if len({v for p, v in values if p.is_finite}) == 1:
            if m <= 1:
                return None
            tail = add(omega_power(ONE, m - 1), tail)
        base = right_sub(v1, add(p1, tail))
    else:
        if cmp(v1, v2) > 0:
            return None
        delta, gap = left_sub(v1, v2), p2 - p1
        if delta.is_finite:
            if delta.to_int() % gap:
                return None
            scale, tail = nat(delta.to_int() // gap), ZERO
        else:
            # scale_total = scale * gap: recover scale by dividing the
            # trailing coefficient when possible
            k = delta.finite_tail
            scale_total = Ordinal(delta.omega1, delta.terms[:-1]) if k else delta
            if not scale_total.terms or scale_total.terms[-1][1] % gap:
                return None
            e, c = scale_total.terms[-1]
            scale, tail = Ordinal(0, scale_total.terms[:-1] + ((e, c // gap),)), nat(k)
        base = right_sub(v1, add(times_nat(scale, p1), tail))
    if base is None:
        return None
    for p, v in values:
        if add(add(base, p if ordinal_params else times_nat(scale, p)), tail) != v:
            return None
    return (base, scale, tail)


class _Slot:
    """One affinely varying slot inside otherwise fixed canonical parts."""

    __slots__ = ("kind", "comp", "run", "base", "scale", "tail", "ordinal")

    def __init__(self, kind, comp, run, base, scale, tail, ordinal):
        self.kind = kind      # "count" | "copy" | "letter" | "up"
        self.comp = comp
        self.run = run
        self.base = base
        self.scale = scale
        self.tail = tail
        self.ordinal = ordinal

    def value(self, p):
        if isinstance(p, Ordinal):
            return add(add(self.base, p), self.tail)
        return add(add(self.base, times_nat(self.scale, p)), self.tail)

    def int_value(self, p):
        return self.value(p).to_int()

    def sup(self, bound=None):
        """Supremum of values over the parameter range."""
        if self.ordinal:
            return add(self.base, bound)
        return limit_of_affine(self.base, self.scale)

    def solve_ge(self, c, bound=None):
        """Least parameter p with value(p) >= c, or None."""
        if self.ordinal:
            # base + a + n >= base + rest, n being the finite tail, holds from
            # rest on, and n covers up to n of rest's own finite tail
            try:
                rest = left_sub(self.base, c)
            except OrdinalUnderflowError:  # c lies below the base
                return ZERO
            a = right_sub(rest, nat(min(rest.finite_tail, self.tail.to_int())))
            return None if bound is not None and cmp(a, bound) >= 0 else a
        if self.scale.is_zero:
            return 0 if cmp(self.value(0), c) >= 0 else None
        if cmp(c, limit_of_affine(self.base, self.scale)) >= 0:
            return None
        # value(p) = (base + scale*p) + tail never decreases in p, and some p
        # reaches c below the supremum: gallop to it, then bisect
        if cmp(self.value(0), c) >= 0:
            return 0
        lo, hi = 0, 1  # value(lo) < c
        while cmp(self.value(hi), c) < 0:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if cmp(self.value(mid), c) >= 0:
                hi = mid
            else:
                lo = mid
        return hi

    def solve_eq(self, c, bound=None):
        """All parameters with value(p) == c (finitely many for moving slots)."""
        if self.ordinal:
            # base + a + tail == c: left cancel base, then right cancel the
            # tail, which SymbolicSeries keeps finite, so a is unique
            try:
                rho = left_sub(self.base, c)
            except OrdinalUnderflowError:  # c lies below the base
                return []
            a = right_sub(rho, self.tail)
            if a is None or (bound is not None and cmp(a, bound) >= 0):
                return []
            return [a]
        if self.scale.is_zero:
            return []
        if cmp(c, limit_of_affine(self.base, self.scale)) >= 0:
            return []  # values stay strictly below their supremum
        # below the supremum the values strictly increase: value(p) ==
        # value(p + 1) would need scale + tail == tail, so tail would absorb
        # every scale*p and value(p) = base + tail >= the supremum
        p = self.solve_ge(c)
        return [p] if self.value(p) == c else []


def _unify(params, shapes, ordinal):
    """(parts, slot): the canonical parts of the first shape and the one slot
    in which the shapes differ, fitted affinely against the parameters, or
    None when all shapes are equal.  Any other pattern raises
    UndecidableTailPattern."""
    first = shapes[0]
    for s in shapes[1:]:
        if len(s) != len(first):
            raise UndecidableTailPattern("template shape varies with the parameter")
    diffs = []
    for ci in range(len(first)):
        kinds = {s[ci][0] for s in shapes}
        if len(kinds) != 1:
            raise UndecidableTailPattern("template component kind varies")
        if all(s[ci] == first[ci] for s in shapes):
            continue
        diffs.append(ci)
    if not diffs:
        return first, None
    if len(diffs) != 1:
        raise UndecidableTailPattern("more than one varying slot")
    ci = diffs[0]
    kind = first[ci][0]
    if kind == "up":
        fit = _fit_affine([(p, s[ci][1]) for p, s in zip(params, shapes)], ordinal)
        if fit is None:
            raise UndecidableTailPattern("non-affine position slot")
        return first, _Slot("up", ci, None, *fit, ordinal)
    if kind == "copy":
        slots = {s[ci][1] for s in shapes}
        if len(slots) != 1:
            raise UndecidableTailPattern("copy slot index varies")
        fit = _fit_affine([(p, nat(s[ci][2])) for p, s in zip(params, shapes)], ordinal)
        if fit is None:
            raise UndecidableTailPattern("non-affine copy slot")
        return first, _Slot("copy", ci, None, *fit, ordinal)
    if kind == "runs":
        runs = [s[ci][1] for s in shapes]
        if len({len(r) for r in runs}) != 1:
            raise UndecidableTailPattern("run shape varies with the parameter")
        rdiffs = [j for j in range(len(runs[0]))
                  if any(r[j] != runs[0][j] for r in runs)]
        if len(rdiffs) != 1:
            raise UndecidableTailPattern("more than one varying run")
        j = rdiffs[0]
        letters = {r[j][0] for r in runs}
        counts = {r[j][1] for r in runs}
        if len(letters) > 1 and len(counts) > 1:
            raise UndecidableTailPattern("both letter and count vary")
        if len(letters) > 1:
            fit = _fit_affine([(p, nat(r[j][0])) for p, r in zip(params, runs)], ordinal)
            if fit is None:
                raise UndecidableTailPattern("non-affine letter slot")
            return first, _Slot("letter", ci, j, *fit, ordinal)
        fit = _fit_affine([(p, r[j][1]) for p, r in zip(params, runs)], ordinal)
        if fit is None:
            raise UndecidableTailPattern("non-affine count slot")
        return first, _Slot("count", ci, j, *fit, ordinal)
    raise UndecidableTailPattern("varying component of kind %s" % kind)


# Series kept by ``cached_series``; least recently used go first.  One round
# of the witness cases reuses 83 distinct series, which the view cache's
# bound of 32 would evict and rebuild; a series holds a few nodes and no
# view, so 128 of them stay light.
SERIES_CACHE_SIZE = 128

# Answers kept by the profile memo of one ``SymbolicSeries`` (``le_profile``,
# ``eq_profile``, ``meet_profile_with``, ``children_profile``), keyed on the
# question and the node.  The memo lives on the series, so it is freed with
# the series, and the value is a small ``Profile`` or tuple.  The benchmark's
# witness workload (seed 901, its warm-up and 4,000 draws) builds 83 series
# and asks them 23,900 profile questions, 484 of them distinct and at most 23
# of one series, so this bound holds a series' questions many times over, and
# the ``SERIES_CACHE_SIZE`` series that ``cached_series`` keeps hold at most
# 32,768 answers.
PROFILE_CACHE_SIZE = 256


def _per_series(method):
    """Keep a profile method's answers (never None) in its series' ``answers``
    memo, under the method name and the node.  At ``PROFILE_CACHE_SIZE``
    answers the oldest is dropped; a call that raises is not kept."""
    name = method.__name__

    @functools.wraps(method)
    def once(self, node):
        memo = self.answers
        key = (name, node)
        out = memo.get(key)
        if out is None:
            out = method(self, node)
            if len(memo) >= PROFILE_CACHE_SIZE:
                del memo[next(iter(memo))]
            memo[key] = out
        return out

    return once


class SymbolicSeries:
    """Members s_p of a parameterized family, fitted from probes."""

    def __init__(self, d, template, ordinal=False, bound=None):
        self.d = d
        self.template = template
        self.ordinal = ordinal
        self.bound = bound
        self._small = {}
        self.answers = {}  # (question, node) -> answer, filled by ``_per_series``
        probes = _ord_probes() if ordinal else _NAT_PROBES
        nodes = [resolve(d, instantiate(template, p)) for p in probes]
        self.parts, self.slot = _unify(probes, [n.parts for n in nodes], ordinal)
        if ordinal and self.slot is not None and not self.slot.tail.is_finite:
            # a + tail == tail for every finite a: the members at finite
            # parameters coincide, which neither the profiles nor the one
            # solution of _Slot.solve_eq allow for
            raise UndecidableTailPattern(
                "ordinal parameter followed by an infinite tail")
        if not ordinal:
            for p in _NAT_VERIFY:
                if self.at(p).parts != self._predict(p):
                    raise UndecidableTailPattern("series fit failed verification")

    # construction ------------------------------------------------------------

    def _predict(self, p):
        if self.slot is None:
            return self.parts
        out = list(self.parts)
        s = self.slot
        if s.kind == "up":
            out[s.comp] = ("up", s.value(p))
        elif s.kind == "copy":
            c = self.parts[s.comp]
            out[s.comp] = ("copy", c[1], s.int_value(p))
        else:
            runs = list(self.parts[s.comp][1])
            letter, count = runs[s.run]
            if s.kind == "letter":
                runs[s.run] = (s.int_value(p), count)
            else:
                runs[s.run] = (letter, s.value(p))
            out[s.comp] = ("runs", tuple(runs))
        return tuple(out)

    @property
    def constant(self):
        return self.slot is None

    def _param(self, k):
        """The parameter k, typed as the series' parameters are."""
        return nat(k) if self.ordinal else k

    def at(self, p):
        key = p if not isinstance(p, Ordinal) else ("o", p)
        if key not in self._small:
            self._small[key] = resolve(self.d, instantiate(self.template, p))
        return self._small[key]

    def params_upto(self, k):
        if self.ordinal:
            out = [nat(i) for i in range(k)]
            if self.bound is not None and cmp(OMEGA, self.bound) < 0:
                out += [OMEGA, add(OMEGA, ONE), times_nat(OMEGA, 2)]
            return out
        return list(range(k))

    def limit_nodes(self):
        """Limit candidates of the family.  Omega-indexed: the supremum of
        the varying run or position, or the common parent for an index slot.
        Ordinal-indexed: the countable-limit-parameter instantiations of a
        count slot, whose trailing steps vanish in the limit."""
        if self.constant:
            return []
        slot = self.slot
        if slot.kind == "count" and self.ordinal:
            values = [slot.value(lam) for lam in (OMEGA, times_nat(OMEGA, 2))
                      if cmp(lam, self.bound) < 0]
        elif self.ordinal:
            return []
        elif slot.kind in ("up", "count"):
            values = [slot.sup()]
        else:
            head = self.parts[:slot.comp]
            if slot.kind == "letter" and slot.run > 0:
                head += (("runs", self.parts[slot.comp][1][:slot.run]),)
            return [node_at(self.d, head)]
        out = []
        for v in values:
            try:
                out.append(node_at(self.d, self._upto(v)))
            except InvalidAddress:  # the supremum is not a node of the tree
                pass
        return out

    def _upto(self, v):
        """The fitted parts up to an up or count slot, holding v there."""
        slot = self.slot
        head = self.parts[:slot.comp]
        if slot.kind == "up":
            return head + (("up", v),)
        runs = self.parts[slot.comp][1]
        return head + (("runs", runs[:slot.run] + ((runs[slot.run][0], v),)),)

    # profiles ------------------------------------------------------------------

    def le_profile(self, u):
        """Profile of {p : u <= s_p} over the parameter range."""
        return self._le_profile(as_node(self.d, u))

    @_per_series
    def _le_profile(self, u):
        ucore = u.parts
        while ucore and ucore[-1][0] == "below":
            ucore = ucore[:-1]
        if self.constant:
            return Profile.const(leq_parts(ucore, self.parts))
        return self._patch_small(self._walk_profile(ucore, equality=False),
                                 ucore, equality=False)

    def eq_profile(self, u):
        """Profile of {p : u == s_p} over the parameter range."""
        return self._eq_profile(as_node(self.d, u))

    @_per_series
    def _eq_profile(self, u):
        if u.parts and u.parts[-1][0] == "below":
            return Profile.never()
        if self.constant:
            return Profile.const(u.parts == self.parts)
        return self._patch_small(self._walk_profile(u.parts, equality=True),
                                 u.parts, equality=True)

    def _patch_small(self, prof, u, equality):
        """Small parameters canonicalize into different shapes than the tail
        (runs merge, zero-count steps vanish); correct them pointwise."""
        small = [self._param(0), self._param(1)]
        extras, holes = list(prof.extras), list(prof.holes)
        for p in small:
            actual = self._concrete_holds(u, p, equality)
            claimed = prof.holds_at(p)
            if actual and not claimed:
                extras.append(p)
            elif claimed and not actual:
                holes.append(p)
        if extras == list(prof.extras) and holes == list(prof.holes):
            return prof
        return prof.patched(extras, holes)

    def _concrete_holds(self, u_parts, p, equality):
        sp = self.at(p).parts
        return u_parts == sp if equality else (leq_parts(u_parts, sp))

    def _locate(self, core):
        """``(c, ends)``: the ordinal c that core parts (below markers
        stripped) hold in the slot, an ``up`` position, a run count, a copy
        index or a child letter, and whether they end there.  None when they
        end or leave the fitted parts before the slot's value, so that every
        member from 2 on relates to them as member 2 does."""
        slot, s = self.slot, self.parts
        i = slot.comp
        if len(core) <= i or core[:i] != s[:i] or core[i][0] != s[i][0]:
            return None
        last = i == len(core) - 1
        if slot.kind == "up":
            return core[i][1], last
        if slot.kind == "copy":
            return (nat(core[i][2]), last) if core[i][1] == s[i][1] else None
        j, runs = slot.run, core[i][1]
        if len(runs) <= j or runs[:j] != s[i][1][:j]:
            return None
        letter, count = runs[j]
        ends = last and j == len(runs) - 1
        if slot.kind == "letter":
            return nat(letter), ends
        return (count, ends) if letter == s[i][1][j][0] else None

    def _walk_profile(self, u, equality):
        """u lies under the members past its slot value only when it ends at
        an up or count slot; otherwise only a member at that value can hold
        u."""
        loc = self._locate(u)
        if loc is None:
            return Profile.const(self._concrete_holds(u, self._param(2), equality))
        c, ends = loc
        if ends and not equality and self.slot.kind in ("up", "count"):
            p0 = self.slot.solve_ge(c, self.bound)
            return Profile.never() if p0 is None else self._le_from(u, p0)
        return Profile.only(p for p in self.slot.solve_eq(c, self.bound)
                            if self._concrete_holds(u, p, equality))

    def _le_from(self, u, p0):
        if not isinstance(p0, Ordinal):
            if not self._concrete_holds(u, max(p0, 0), False):
                raise UndecidableTailPattern("threshold verification failed")
        return Profile.from_(p0)

    # child cones ---------------------------------------------------------------

    def children_profile(self, t):
        """The children of t that the members strictly above t enter:
        ``(kids, None)`` when they are finitely many, each listed with its
        ``le_profile``; or ``(kids, p0)`` when every member lies above t in
        a child no other member enters, and the members from p0 on have the
        fitted parts, ``kids`` listing the children entered below p0.

        From parameter 2 on the members have the fitted parts, which vary in
        ``_unify``'s one affine slot alone.  If the slot is a copy index or a
        child letter and t is the node right below it (``limit_nodes``),
        member p enters the child its index or letter names (a merge of
        equal letters keeps the first letter past t): affine values of
        nonzero scale never repeat.  Otherwise, if t lies below the slot,
        the members pass through one child of t; if t ends inside the slot's
        run or position, at c, those with a value above c enter the child
        inside the slot, and the one with value c (``solve_eq``) may leave
        it; if t reaches past the slot, ``le_profile(t)`` is finite.  So when
        ``le_profile(t)`` is a tail from p_s, the member q = max(p_s, 2) + 1
        enters the common child C, and ``le_profile(C)`` is a tail from some
        q0 <= q.  A member above t outside V_C is an extra of
        ``le_profile(t)``, a hole of ``le_profile(C)`` or in [p_s, q0):
        finitely many, which ``Profile.first`` finds, least first, each
        adding its child.  A C whose profile is no tail is outside this
        reading and raises ``UndecidableTailPattern``."""
        return self._children_profile(as_node(self.d, t))

    @_per_series
    def _children_profile(self, t):
        d = self.d
        if not self.constant and self.slot.kind in ("copy", "letter") \
                and t.parts == self.limit_nodes()[0].parts:  # an omega series
            p0 = max((p + 1 for p in (0, 1) if self.at(p).parts != self._predict(p)),
                     default=0)
            kids = [child_toward(d, t, self.at(p)) for p in range(p0)]
            return tuple((c, self.le_profile(c)) for c in kids), p0
        le, eq = self.le_profile(t), self.eq_profile(t)
        kids = {}
        if le.eventually and not eq.eventually:
            two = self._param(2)  # an ordinal always() starts at the int 0
            q = max(le.data, two) if isinstance(le.data, type(two)) else two
            c = child_toward(d, t, self.at(next_param(q)))
            if not self.le_profile(c).eventually:
                raise UndecidableTailPattern(
                    "the child cones of t that the members enter do not follow the slot")
            kids[c.parts] = c
        while True:
            p = le.first(eq, *(self.le_profile(c) for c in kids.values()))
            if p is None:
                return tuple((c, self.le_profile(c)) for c in kids.values()), None
            c = child_toward(d, t, self.at(p))
            kids[c.parts] = c

    # meets ----------------------------------------------------------------------

    def meet_profile_with(self, t):
        """ht(meet(s_p, t)) over the parameter range, small parameters
        included: ``("const", h)`` when the heights end constant, h being the
        largest height of any member; ``("increasing", h)`` when they end
        strictly increasing, h being their supremum, capped at ``t.ht``, over
        the whole range below an ordinal family's bound.

        Unless all but finitely many members lie in V_t, read off the slot.
        A member whose value lies below t's value c meets t no higher than one
        past c, and all members past c meet t at one node.  So if no value
        reaches c in an up or count slot, the heights rise to the node at the
        slot's supremum; otherwise none meets t higher than member 0, 1, a
        member at c (``solve_eq``) or one past ``solve_ge(c)``, or, when t
        leaves the fitted parts first (``_locate``), member 2."""
        return self._meet_profile_with(as_node(self.d, t))

    @_per_series
    def _meet_profile_with(self, t):
        if self.le_profile(t).eventually:
            return ("const", t.ht)
        # below markers at the end of t change only ``ends``, which no meet reads
        loc = None if self.constant else self._locate(t.parts)
        params = [self._param(k) for k in (0, 1, 2)]
        if loc is not None:
            slot, c = self.slot, loc[0]
            p0 = slot.solve_ge(c, self.bound)
            if p0 is None and slot.kind in ("up", "count"):
                return ("increasing", node_at(self.d, self._upto(slot.sup(self.bound))).ht)
            params[2] = next_param(params[2] if p0 is None else max(p0, params[2]))
            params += slot.solve_eq(c, self.bound)
        best = ZERO
        for p in params:
            h = node_at(self.d, meet_parts(self.at(p).parts, t.parts)).ht
            if cmp(h, best) > 0:
                best = h
        return ("const", best)


@functools.lru_cache(maxsize=SERIES_CACHE_SIZE)
def cached_series(d, template, ordinal=False, bound=None):
    """The SymbolicSeries of template over d, built once per distinct
    arguments; equal arguments give the same object."""
    return SymbolicSeries(d, template, ordinal, bound)


class Profile:
    """The set {p : property(s_p)}: a tail, or a finite set, plus a finite
    patch of small parameters whose canonical shapes differ from the tail."""

    __slots__ = ("kind", "data", "extras", "holes")

    def __init__(self, kind, data=None, extras=(), holes=()):
        self.kind = kind
        self.data = data
        self.extras = tuple(extras)
        self.holes = tuple(holes)

    @classmethod
    def never(cls):
        return cls("only", ())

    @classmethod
    def always(cls):
        return cls("from", 0)

    @classmethod
    def from_(cls, p0):
        return cls("from", p0)

    @classmethod
    def only(cls, ps):
        return cls("only", tuple(ps))

    @classmethod
    def const(cls, b):
        return cls.always() if b else cls.never()

    def patched(self, extras, holes):
        return Profile(self.kind, self.data, tuple(extras), tuple(holes))

    @property
    def eventually(self):
        """Holds for all sufficiently large parameters."""
        return self.kind == "from"

    @property
    def ever(self):
        return self.kind == "from" or bool(self.data) or bool(self.extras)

    def _base_holds(self, p):
        if self.kind == "from":
            if isinstance(self.data, Ordinal) or isinstance(p, Ordinal):
                pp = p if isinstance(p, Ordinal) else nat(p)
                dd = self.data if isinstance(self.data, Ordinal) else nat(self.data)
                return cmp(dd, pp) <= 0
            return p >= self.data
        return p in self.data

    def holds_at(self, p):
        if p in self.extras:
            return True
        if p in self.holes:
            return False
        return self._base_holds(p)

    def first(self, *others):
        """The least parameter at which this profile holds and none of
        ``others`` does, or None.

        The answer p* is one of a few candidates: this profile's extras, its
        ``from`` point or ``only`` points, the successor of every finite
        point (extra, hole, ``only`` point) of every profile, and every hole
        of every profile.  Say p* is none of this profile's own points; then
        this profile is a tail from some p0 < p*, and every point of
        [p0, p*) is a hole here or lies in some other profile Bi.  If p* is a
        successor, p* - 1 is a hole here, or a point of some Bi.  So p* is
        the successor of a finite point of this profile or of Bi, or Bi is
        a tail that holds at p* - 1 and not at p*, so p* is a hole of Bi.
        If p* is a limit, infinitely many points below it are excluded,
        which only a tail Bi can do, and p* is again a hole of that Bi."""
        profiles = (self,) + others
        cands = list(self.extras)
        cands += [self.data] if self.kind == "from" else list(self.data)
        for b in profiles:
            finite = b.extras + b.holes + (b.data if b.kind == "only" else ())
            cands += [next_param(p) for p in finite] + list(b.holes)
        if any(isinstance(c, Ordinal) for c in cands):
            # an ordinal series' ``always()`` tail starts at the int 0, which
            # its ordinal patch points would not match
            cands = [c if isinstance(c, Ordinal) else nat(c) for c in cands]
        good = [c for c in cands
                if self.holds_at(c) and not any(b.holds_at(c) for b in others)]
        return min(good) if good else None

    def __repr__(self):
        return "Profile(%s, %r, +%r, -%r)" % (self.kind, self.data,
                                              self.extras, self.holes)


def next_param(p):
    if isinstance(p, Ordinal):
        return add(p, ONE)
    return p + 1


# -- templates from concrete nodes -------------------------------------------------

def fit_template(nodes):
    """Reconstruct a one-parameter template from concrete nodes, if affine."""
    try:
        parts, slot = _unify(range(len(nodes)), [n.parts for n in nodes], False)
    except UndecidableTailPattern:
        return None
    # value(p) = base + scale*p + tail is base + tail + scale*p when the
    # scale is finite or the tail is zero; otherwise no Param says it
    if slot is None or not (slot.tail.is_zero or slot.scale.is_finite):
        return None
    finite = slot.base.is_finite and slot.scale.is_finite
    if slot.kind == "up":
        mid = [Up(Param(add(slot.base, slot.tail), slot.scale))]
    elif slot.kind == "copy":
        if not finite:
            return None
        mid = [Copy(parts[slot.comp][1], Param(slot.base, slot.scale))]
    else:
        runs = parts[slot.comp][1]
        if slot.kind == "letter":
            if runs[slot.run][1] != ONE or not finite:
                return None
            slot_step = Child(Param(slot.base, slot.scale))
        else:
            slot_step = Word((runs[slot.run][0],),
                             Param(add(slot.base, slot.tail), slot.scale))
        mid = [slot_step if jj == slot.run else Word((l,), c)
               for jj, (l, c) in enumerate(runs)]
    steps = []
    for k, comp in enumerate(parts):
        steps.extend(mid if k == slot.comp else _parts_component_steps(comp))
    return tuple(steps)


def _parts_component_steps(comp):
    if comp[0] == "up":
        return [Up(comp[1])]
    if comp[0] == "runs":
        return [Word((l,), c) for l, c in comp[1]]
    if comp[0] == "copy":
        return [Copy(comp[1], comp[2])]
    return [Below()]
