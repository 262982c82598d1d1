"""One-parameter families of nodes: templates, series fitting and profiles.

A template is an address whose count or index slots may hold a linear
``Param``.  Resolving it at several parameters and unifying the canonical
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

The slot is still found from samples, not read off the template.  Probe
fitting is used here:

- ``_NAT_PROBES``/``_NAT_VERIFY``: an omega-indexed series is fitted at
  parameters 2, 3, 5, 9 and checked at 12 and 20;
- ``_ord_probes``: an ordinal-indexed series is fitted at 2, 3, 5, 9, omega
  and omega*2, without verification probes;
- ``meet_profile_with``: the meet heights with a fixed node are fitted at
  four probes.

A fit reads the scale and the tail off the sampled values and derives the
base by right cancellation (``ordinals.right_sub``): no coefficient is
searched for, so the size of a coefficient never decides a fit.  An ordinal
slot's equation ``value(a) == c`` is solved the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InvalidAddress, OrdinalUnderflowError, UndecidableTailPattern
from .ordinals import (
    OMEGA, ONE, ZERO, Ordinal, add, cmp, left_sub, limit_of_affine, nat,
    omega_power, right_sub, times_nat,
)
from .trees import (
    Below, Child, Copy, Up, Word, as_node, leq_parts, meet_parts,
    node_at, resolve,
)


# -- parameterized templates -----------------------------------------------------

@dataclass(frozen=True)
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


def has_param(template):
    for s in template:
        if isinstance(s, (Word, Up, Copy, Child)):
            slot = getattr(s, "count", None) or getattr(s, "delta", None) or \
                getattr(s, "idx", None) or getattr(s, "i", None)
            if isinstance(slot, Param):
                return True
    return False


# -- fitting a series from probes --------------------------------------------------

_NAT_PROBES = (2, 3, 5, 9)
_NAT_VERIFY = (12, 20)


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
            if cmp(self.value(ZERO), c) >= 0:
                return ZERO
            try:
                lo = left_sub(self.base, c)
            except OrdinalUnderflowError:  # c lies below the base
                return ZERO
            for cand in (lo, add(lo, ONE)):
                if bound is not None and cmp(cand, bound) >= 0:
                    continue
                if cmp(self.value(cand), c) >= 0:
                    # walk down while the predecessor still satisfies
                    return cand
            return None
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


class SymbolicSeries:
    """Members s_p of a parameterized family, fitted from probes."""

    def __init__(self, d, template, ordinal=False, bound=None):
        self.d = d
        self.template = template
        self.ordinal = ordinal
        self.bound = bound
        self._small = {}
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
        head = self.parts[:slot.comp]
        if slot.kind == "count":
            runs = self.parts[slot.comp][1]
            if self.ordinal:
                values = [slot.value(lam) for lam in (OMEGA, times_nat(OMEGA, 2))
                          if cmp(lam, self.bound) < 0]
            else:
                values = [slot.sup()]
            tops = [("runs", runs[:slot.run] + ((runs[slot.run][0], v),))
                    for v in values]
        elif self.ordinal:
            return []
        elif slot.kind == "up":
            tops = [("up", slot.sup())]
        else:
            if slot.kind == "letter" and slot.run > 0:
                head += (("runs", self.parts[slot.comp][1][:slot.run]),)
            return [node_at(self.d, head)]
        out = []
        for top in tops:
            try:
                out.append(node_at(self.d, head + (top,)))
            except InvalidAddress:  # the supremum is not a node of the tree
                pass
        return out

    # profiles ------------------------------------------------------------------

    def le_profile(self, u):
        """Profile of {p : u <= s_p} over the parameter range."""
        u = as_node(self.d, u)
        ucore = u.parts
        while ucore and ucore[-1][0] == "below":
            ucore = ucore[:-1]
        if self.constant:
            return Profile.const(leq_parts(ucore, self.parts) or ucore == self.parts)
        return self._patch_small(self._walk_profile(ucore, equality=False),
                                 ucore, equality=False)

    def eq_profile(self, u):
        u = as_node(self.d, u)
        if u.parts and u.parts[-1][0] == "below":
            return Profile.never()
        if self.constant:
            return Profile.const(u.parts == self.parts)
        return self._patch_small(self._walk_profile(u.parts, equality=True),
                                 u.parts, equality=True)

    def _patch_small(self, prof, u, equality):
        """Small parameters canonicalize into different shapes than the tail
        (runs merge, zero-count steps vanish); correct them pointwise."""
        small = [nat(0), nat(1)] if self.ordinal else [0, 1]
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

    def _walk_profile(self, u, equality):
        s = self.parts
        probe = 2 if not self.ordinal else nat(2)
        for i in range(len(s)):
            if i >= len(u):
                # u is a proper prefix of every member
                return Profile.never() if equality else Profile.always()
            if i != self.slot.comp:
                if u[i] == s[i]:
                    continue
                # divergence on a fixed component: answer is constant in p
                return Profile.const(self._concrete_holds(u, probe, equality))
            return self._slot_compare(u, i, equality)
        return Profile.never()  # u has components past the whole member shape

    def _slot_compare(self, u, i, equality):
        slot = self.slot
        s = self.parts
        u_last_comp = i == len(u) - 1
        uc, sc = u[i], s[i]
        if uc[0] != sc[0]:
            return Profile.never()
        if slot.kind == "up":
            c = uc[1]
            if not equality and u_last_comp:
                p0 = slot.solve_ge(c, self.bound)
                return Profile.never() if p0 is None else self._le_from(u, p0)
            sols = slot.solve_eq(c, self.bound)
            good = [p for p in sols if self._concrete_holds(u, p, equality)]
            return Profile.only(tuple(good))
        if slot.kind == "copy":
            if uc[1] != sc[1]:
                return Profile.never()
            sols = slot.solve_eq(nat(uc[2]), self.bound)
            good = [p for p in sols if self._concrete_holds(u, p, equality)]
            return Profile.only(tuple(good))
        # runs component
        uruns, sruns = uc[1], sc[1]
        j = slot.run
        # fixed runs before the slot must match (or u may end inside them)
        for jj in range(min(j, len(uruns))):
            if uruns[jj] == sruns[jj]:
                continue
            if equality:
                return Profile.never()
            # divergence before the slot: constant answer
            return Profile.const(self._concrete_holds(u, 2 if not self.ordinal else nat(2), False))
        if len(uruns) <= j:
            if equality:
                return Profile.never()
            if u_last_comp:
                return Profile.always()
            return Profile.never()
        ul, ucnt = uruns[j]
        if slot.kind == "letter":
            sols = slot.solve_eq(nat(ul), self.bound)
            if uruns[j][1] != sruns[j][1]:
                sols = []
            good = [p for p in sols if self._concrete_holds(u, p, equality)]
            return Profile.only(tuple(good))
        # count slot
        sl = sruns[j][0]
        if ul != sl:
            return Profile.never()
        u_ends_here = u_last_comp and j == len(uruns) - 1
        if u_ends_here and not equality:
            p0 = slot.solve_ge(ucnt, self.bound)
            return Profile.never() if p0 is None else self._le_from(u, p0)
        sols = slot.solve_eq(ucnt, self.bound)
        good = [p for p in sols if self._concrete_holds(u, p, equality)]
        return Profile.only(tuple(good))

    def _le_from(self, u, p0):
        if not isinstance(p0, Ordinal):
            if not self._concrete_holds(u, max(p0, 0), False):
                raise UndecidableTailPattern("threshold verification failed")
        return Profile.from_(p0)

    # meets ----------------------------------------------------------------------

    def meet_profile_with(self, t):
        """("const", height) or ("increasing", sup of heights) for
        ht(meet(s_p, t)) over the parameter range, small parameters included."""
        t = as_node(self.d, t)
        probes = _NAT_PROBES if not self.ordinal else (nat(2), nat(3), nat(5), OMEGA)
        hs = []
        for p in probes:
            m = meet_parts(self.at(p).parts, t.parts)
            hs.append((p, node_at(self.d, m).ht))
        small_sup = ZERO
        for p in ([0, 1] if not self.ordinal else [nat(0), nat(1)]):
            m = meet_parts(self.at(p).parts, t.parts)
            h = node_at(self.d, m).ht
            if cmp(h, small_sup) > 0:
                small_sup = h
        if all(h == hs[0][1] for _, h in hs):
            sup = hs[0][1] if cmp(hs[0][1], small_sup) >= 0 else small_sup
            return ("const", sup)
        fit = _fit_affine(hs, self.ordinal)
        if fit is None:
            raise UndecidableTailPattern("meet heights are not affine")
        base, scale, tail = fit
        if self.ordinal:
            sup = add(base, self.bound)
        else:
            sup = limit_of_affine(base, scale)
        if cmp(sup, small_sup) < 0:
            sup = small_sup
        if cmp(sup, t.ht) > 0:
            sup = t.ht
        return ("increasing", sup)


# Series kept by ``cached_series``; least recently used go first.  One round
# of the witness cases reuses 83 distinct series, which the view cache's
# bound of 32 would evict and rebuild; a series holds a few nodes and no
# view, so 128 of them stay light.
SERIES_CACHE_SIZE = 128


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
    if slot is None or slot.kind == "up":
        return None
    finite = slot.base.is_finite and slot.scale.is_finite
    if slot.kind == "copy":
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
            if not slot.tail.is_zero and not slot.scale.is_finite:
                return None
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


def fit_stable_template(nodes, need=8):
    """Fit a template from a run of the nodes, tolerating a few leading
    members whose canonical shape differs (small-parameter merges)."""
    for start in range(0, max(1, len(nodes) - need + 1)):
        window = nodes[start:start + need]
        if len(window) < need:
            break
        tpl = fit_template(window)
        if tpl is not None:
            return tpl
    return None
