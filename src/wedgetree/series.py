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
``trees.CACHE_SIZE`` most recently used series and returns the same object
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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import UndecidableTailPattern, WedgeTreeError
from .ordinals import (
    OMEGA, ONE, ZERO, Ordinal, add, cmp, left_sub, limit_of_affine, nat,
    times_nat,
)
from .trees import (
    CACHE_SIZE, Below, Child, Copy, Up, Word, as_node, leq_parts, meet_parts,
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


def instantiate(template, p):
    steps = []
    for s in template:
        if isinstance(s, Word) and isinstance(s.count, Param):
            steps.append(Word(s.letters, s.count.at(p)))
        elif isinstance(s, Up) and isinstance(s.delta, Param):
            steps.append(Up(s.delta.at(p)))
        elif isinstance(s, Copy) and isinstance(s.idx, Param):
            steps.append(Copy(s.slot, s.idx.at(p).to_int()))
        elif isinstance(s, Child) and isinstance(s.i, Param):
            steps.append(Child(s.i.at(p).to_int()))
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
    """Fit value(p) = base + scale*p + tail against sampled (param, value)."""
    (p1, v1), (p2, v2) = values[0], values[1]
    gap = p2 - p1 if not ordinal_params else None
    candidates = []
    if ordinal_params:
        # unit scale: value(a) = base + a + tail
        for split in _left_splits(v1):
            base = split
            try:
                rest = left_sub(base, v1)
            except WedgeTreeError:
                continue
            try:
                tail = left_sub(p1 if isinstance(p1, Ordinal) else nat(p1), rest)
            except WedgeTreeError:
                continue
            candidates.append((base, ONE, tail))
    else:
        delta = left_sub(v1, v2) if cmp(v1, v2) <= 0 else None
        if delta is None:
            return None
        scale_opts = []
        if delta.is_finite:
            if delta.to_int() % gap == 0:
                scale_opts.append((nat(delta.to_int() // gap), ZERO))
        else:
            k = delta.finite_tail
            stripped = Ordinal(delta.omega1, delta.terms[:-1]) if k else delta
            for scale_total, tail in ((stripped, nat(k)),):
                # scale_total = scale * gap: recover scale by dividing the
                # trailing coefficient when possible
                if not scale_total.terms:
                    continue
                e, c = scale_total.terms[-1]
                if c % gap == 0:
                    scale = Ordinal(0, scale_total.terms[:-1] + ((e, c // gap),))
                    scale_opts.append((scale, tail))
        for scale, tail in scale_opts:
            probe_contrib = add(times_nat(scale, p1), tail)
            for split in _left_splits(v1):
                if add(split, probe_contrib) == v1:
                    candidates.append((split, scale, tail))
                    break
    for base, scale, tail in candidates:
        ok = True
        for p, v in values:
            contrib = p if isinstance(p, Ordinal) else times_nat(scale, p)
            if isinstance(p, Ordinal) and scale != ONE:
                ok = False
                break
            if add(add(base, contrib), tail) != v:
                ok = False
                break
        if ok:
            return (base, scale, tail)
    return None


def _left_splits(c):
    """Candidate left summands of c (prefixes with coefficient splits)."""
    out = [Ordinal(c.omega1, ())]
    for i in range(len(c.terms) + 1):
        out.append(Ordinal(c.omega1, c.terms[:i]))
        if i < len(c.terms):
            e, coeff = c.terms[i]
            for x in range(1, min(coeff, 50)):
                out.append(Ordinal(c.omega1, c.terms[:i] + ((e, x),)))
    seen, uniq = set(), []
    for s in out:
        if s not in seen:
            seen.add(s)
            uniq.append(s)
    return uniq


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
            except WedgeTreeError:
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
            try:
                rho = left_sub(self.base, c)
            except WedgeTreeError:
                return []
            sols = []
            for a in _left_splits(rho) + [rho]:
                if bound is not None and cmp(a, bound) >= 0:
                    continue
                if self.value(a) == c and a not in sols:
                    sols.append(a)
            sols.sort(key=functools.cmp_to_key(cmp))
            return sols
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
        if ordinal and not fit[2].is_finite:
            raise UndecidableTailPattern(
                "ordinal parameter followed by an infinite same-letter tail")
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
            except WedgeTreeError:
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
        return Profile.from_(p0, self.bound)

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


@functools.lru_cache(maxsize=CACHE_SIZE)
def cached_series(d, template, ordinal=False, bound=None):
    """The SymbolicSeries of template over d, built once per distinct
    arguments; equal arguments give the same object."""
    return SymbolicSeries(d, template, ordinal, bound)


class Profile:
    """The set {p : property(s_p)}: a tail, or a finite set, plus a finite
    patch of small parameters whose canonical shapes differ from the tail."""

    __slots__ = ("kind", "data", "bound", "extras", "holes")

    def __init__(self, kind, data=None, bound=None, extras=(), holes=()):
        self.kind = kind
        self.data = data
        self.bound = bound
        self.extras = tuple(extras)
        self.holes = tuple(holes)

    @classmethod
    def never(cls):
        return cls("only", ())

    @classmethod
    def always(cls):
        return cls("from", 0)

    @classmethod
    def from_(cls, p0, bound=None):
        return cls("from", p0, bound)

    @classmethod
    def only(cls, ps):
        return cls("only", tuple(ps))

    @classmethod
    def const(cls, b):
        return cls.always() if b else cls.never()

    def patched(self, extras, holes):
        return Profile(self.kind, self.data, self.bound,
                       tuple(extras), tuple(holes))

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

    def first(self):
        candidates = [p for p in self.extras]
        if self.kind == "from":
            base = self.data
            while base in self.holes:
                base = next_param(base)
            candidates.append(base)
        else:
            candidates.extend(p for p in self.data if p not in self.holes)
        if not candidates:
            return None
        if any(isinstance(c, Ordinal) for c in candidates):
            candidates = [c if isinstance(c, Ordinal) else nat(c) for c in candidates]
            return sorted(candidates, key=functools.cmp_to_key(cmp))[0]
        return min(candidates)

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
