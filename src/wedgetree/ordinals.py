"""Symbolic ordinals of the form w1*m + gamma, gamma < epsilon_0.

A value is a pair (omega1 coefficient, Cantor normal form of the countable
part).  The CNF is a tuple of (exponent, coefficient) terms with strictly
decreasing countable exponents and positive integer coefficients, so equality
is structural and every operation returns the canonical representative.

The range is deliberately capped at w1*m + gamma: it covers every height the
tree descriptions can produce while keeping canonical forms finite.  w2 is not
representable; suprema that would need w1*omega raise SupNotRepresentable.
"""

from __future__ import annotations

import enum
from functools import total_ordering

from .errors import OracleRangeError, OrdinalUnderflowError, SupNotRepresentable


class Cofinality(enum.Enum):
    ZERO = "0"
    OMEGA = "w"
    OMEGA1 = "w1"

    @property
    def le_omega(self):
        return self is not Cofinality.OMEGA1

    def __str__(self):
        return self.value


@total_ordering
class Ordinal:
    __slots__ = ("omega1", "terms", "_hash")

    def __init__(self, omega1=0, terms=()):
        terms = tuple(terms)
        if omega1 < 0:
            raise ValueError("negative omega1 coefficient")
        prev = None
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal) or exp.omega1 != 0:
                raise ValueError("CNF exponents must be countable ordinals")
            if coeff < 1:
                raise ValueError("CNF coefficients must be positive")
            if prev is not None and cmp(exp, prev) >= 0:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp
        object.__setattr__(self, "omega1", omega1)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash((omega1, terms)))

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the default restore of
        # the slots would go through the raising __setattr__
        return (Ordinal, (self.omega1, self.terms))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self):
        return self.omega1 == 0 and not self.terms

    @property
    def is_countable(self):
        return self.omega1 == 0

    @property
    def is_finite(self):
        return self.omega1 == 0 and (
            not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero))

    @property
    def finite_tail(self):
        """Coefficient of the trailing w^0 term (0 if none)."""
        if self.terms and self.terms[-1][0].is_zero:
            return self.terms[-1][1]
        return 0

    def to_int(self):
        if not self.is_finite:
            raise ValueError("not a finite ordinal: %s" % self)
        return self.finite_tail

    @property
    def countable(self):
        """The countable part as an Ordinal."""
        if self.omega1 == 0:
            return self
        return Ordinal(0, self.terms)

    def kind(self):
        if self.is_zero:
            return "zero"
        if self.finite_tail:
            return "successor"
        return "limit"

    def cof(self):
        k = self.kind()
        if k in ("zero", "successor"):
            return Cofinality.ZERO
        if self.terms:
            return Cofinality.OMEGA
        return Cofinality.OMEGA1

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.omega1 == other.omega1 and self.terms == other.terms

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return cmp(self, other) < 0

    def __hash__(self):
        return self._hash

    # -- arithmetic sugar ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = nat(other)
        return add(self, other)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.omega1:
            parts.append("w1" if self.omega1 == 1 else "w1*%d" % self.omega1)
        for exp, coeff in self.terms:
            if exp.is_zero:
                parts.append(str(coeff))
                continue
            if exp == ONE:
                base = "w"
            else:
                e = str(exp)
                base = "w^%s" % (e if e.isalnum() else "(%s)" % e)
            parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
        return "+".join(parts)

    def __repr__(self):
        return "Ordinal(%s)" % self


def nat(n):
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return Ordinal(0, ((ZERO, n),)) if n else ZERO


def omega_power(exp, coeff=1):
    if coeff == 0:
        return ZERO
    return Ordinal(0, ((exp, coeff),))


def cmp(a, b):
    """Total order: lexicographic on (omega1 coefficient, CNF term list)."""
    if a.omega1 != b.omega1:
        return -1 if a.omega1 < b.omega1 else 1
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def _cnf_add(s, t):
    """CNF sum of countable term lists (left summand first)."""
    if not t:
        return s
    lead = t[0][0]
    keep = []
    for exp, coeff in s:
        c = cmp(exp, lead)
        if c > 0:
            keep.append((exp, coeff))
        elif c == 0:
            return tuple(keep) + ((lead, coeff + t[0][1]),) + t[1:]
        else:
            break
    return tuple(keep) + t


def add(a, b):
    """Ordinal sum a + b (associative, not commutative)."""
    if b.omega1:
        return Ordinal(a.omega1 + b.omega1, b.terms)
    return Ordinal(a.omega1, _cnf_add(a.terms, b.terms))


def fin_mul(n, a):
    """Product n * a with the finite factor on the left.

    n copies of each point of a: the order type of a length-n word repeated
    a-many times.  Absorption gives n*L = L for every limit L, so only the
    finite tail of a is scaled.
    """
    if n < 1:
        raise ValueError("left factor must be a positive natural")
    if a.is_zero:
        return ZERO
    tail = a.finite_tail
    if tail == 0:
        return a
    head = Ordinal(a.omega1, a.terms[:-1])
    return add(head, nat(n * tail))


def times_nat(a, n):
    """Product a * n (a copies summed n times), in closed form.

    In each sum a + a the tail of the left copy is absorbed by the leading
    term of the right one: w1*m + gamma repeated n times is w1*(m*n) + gamma,
    and a countable w^e*c + r repeated n times is w^e*(c*n) + r.
    """
    if n < 0:
        raise ValueError("negative repeat")
    if n == 0 or a.is_zero:
        return ZERO
    if a.omega1:
        return Ordinal(a.omega1 * n, a.terms)
    (lead, coeff), rest = a.terms[0], a.terms[1:]
    return Ordinal(0, ((lead, coeff * n),) + rest)


def left_sub(a, b):
    """The unique delta with a + delta = b; requires a <= b."""
    c = cmp(a, b)
    if c > 0:
        raise OrdinalUnderflowError("left_sub: %s > %s" % (a, b))
    if c == 0:
        return ZERO
    if a.omega1 < b.omega1:
        return Ordinal(b.omega1 - a.omega1, b.terms)
    s, t = a.terms, b.terms
    i = 0
    while i < len(s) and i < len(t) and s[i] == t[i]:
        i += 1
    if i == len(s):
        return Ordinal(0, t[i:])
    ea, ca = s[i]
    eb, cb = t[i]
    if cmp(ea, eb) < 0:
        return Ordinal(0, t[i:])
    # equal exponents, ca < cb
    return Ordinal(0, ((eb, cb - ca),) + t[i + 1:])


def right_sub(a, b):
    """The least x with x + b == a, or None when there is none."""
    if b.omega1:
        # x + b = w1*(x.omega1 + b.omega1) + b's countable part
        if a.terms != b.terms or a.omega1 < b.omega1:
            return None
        return Ordinal(a.omega1 - b.omega1)
    if b.is_zero:
        return a
    # x + b keeps x's terms above b's leading exponent e, adds x's
    # coefficient at e to b's and absorbs x's terms below e
    (e, c), t = b.terms[0], a.terms
    i = 0
    while i < len(t) and cmp(t[i][0], e) > 0:
        i += 1
    if i == len(t) or t[i][0] != e or t[i][1] < c or t[i + 1:] != b.terms[1:]:
        return None
    lowered = ((e, t[i][1] - c),) if t[i][1] > c else ()
    return Ordinal(a.omega1, t[:i] + lowered)


def classify_ordinal(a):
    """(kind, cofinality class) with the convention cf = 0 at zero/successor."""
    return a.kind(), a.cof()


def pred(a):
    """Predecessor of a successor ordinal."""
    k = a.finite_tail
    if not k:
        raise ValueError("pred of a non-successor ordinal: %s" % a)
    return Ordinal(a.omega1, a.terms[:-1] + (((ZERO, k - 1),) if k > 1 else ()))


def drop_leading_unit(gamma):
    """The unique gamma' with 1 + gamma' = gamma (gamma countable, nonzero)."""
    if gamma.is_zero or not gamma.is_countable:
        raise ValueError("drop_leading_unit needs a nonzero countable ordinal")
    if gamma.is_finite:
        return nat(gamma.to_int() - 1)
    return gamma


def limit_of_affine(base, step):
    """sup over n < omega of base + step*n.

    For countable nonzero step the supremum is base + w^(e+1) where e is the
    leading exponent of step.  A step with an w1 part would need w1*omega,
    which the representation cannot hold.
    """
    if step.is_zero:
        return base
    if step.omega1:
        raise SupNotRepresentable("sup of w1-sized steps is w1*omega")
    lead = step.terms[0][0]
    return add(base, omega_power(add(lead, ONE)))


def fundamental(lam, j):
    """j-th element of a strictly increasing sequence cofinal in the limit
    ordinal lam (lam must have cofinality omega)."""
    if lam.cof() is not Cofinality.OMEGA:
        raise ValueError("fundamental sequence needs a countable-cofinality limit")
    exp, coeff = lam.terms[-1]
    head = Ordinal(lam.omega1, lam.terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ()))
    if exp == ONE:
        return add(head, nat(j))
    if exp.finite_tail:  # successor exponent e = e' + 1
        prev = Ordinal(0, _cnf_add(exp.terms[:-1], ((ZERO, exp.finite_tail - 1),)) if exp.finite_tail > 1 else exp.terms[:-1])
        return add(head, omega_power(prev, j) if j else ZERO)
    return add(head, omega_power(fundamental(exp, j)))


# -- explicit well-order oracle (ordinals below w^3) -------------------------
#
# oracle_encode realises an ordinal a = w^2*c2 + w*c1 + c0 as the initial
# segment of the lexicographic order on triples of naturals determined by the
# boundary triple (c2, c1, c0).  Sums and finite products of such orders are
# measured by an independent right-to-left absorption scan over explicit
# blocks, never by the CNF arithmetic above; the tests drive both paths and
# compare.

BLOCK_FIN = "fin"
BLOCK_W = "w"
BLOCK_W2 = "w2"

_RANK = {BLOCK_FIN: 0, BLOCK_W: 1, BLOCK_W2: 2}


class TripleLexOrder:
    """Carrier: all triples lexicographically below the boundary."""

    def __init__(self, c2, c1, c0):
        self.boundary = (c2, c1, c0)

    def contains(self, t):
        return t < self.boundary and all(x >= 0 for x in t)

    def less(self, t, u):
        return t < u

    def first(self, n):
        """The n least carrier elements in order."""
        c2, c1, c0 = self.boundary
        out = []
        if c2 > 0 or c1 > 0:
            for k in range(n):
                out.append((0, 0, k))
            return out
        return [(0, 0, k) for k in range(min(n, c0))]

    def blocks(self):
        """The carrier as a word of explicit blocks, largest first."""
        c2, c1, c0 = self.boundary
        word = [(BLOCK_W2,)] * c2 + [(BLOCK_W,)] * c1
        if c0:
            word.append((BLOCK_FIN, c0))
        return tuple(word)


def oracle_encode(a):
    """Explicit well-order of type a on triples of naturals; a < w^3 only."""
    if a.omega1:
        raise OracleRangeError("oracle range is a < w^3, got %s" % a)
    c2 = c1 = c0 = 0
    for exp, coeff in a.terms:
        if exp == nat(2):
            c2 = coeff
        elif exp == ONE:
            c1 = coeff
        elif exp.is_zero:
            c0 = coeff
        else:
            raise OracleRangeError("oracle range is a < w^3, got %s" % a)
    return TripleLexOrder(c2, c1, c0)


def measure_blocks(word):
    """Order type (c2, c1, c0) of a concatenation of explicit blocks.

    Scans right to left; a block followed (anywhere later) by a strictly
    higher-rank block contributes nothing, which is exactly how initial
    segments absorb under concatenation of well-orders.
    """
    c2 = c1 = c0 = 0
    strongest = -1
    for block in reversed(word):
        rank = _RANK[block[0]]
        if rank < strongest:
            continue
        strongest = max(strongest, rank)
        if block[0] == BLOCK_FIN:
            c0 += block[1]
        elif block[0] == BLOCK_W:
            c1 += 1
        else:
            c2 += 1
    return (c2, c1, c0)


def blocks_fin_mul(n, word):
    """Word for n * (order type of word): scale the finite blocks only."""
    return tuple((BLOCK_FIN, n * b[1]) if b[0] == BLOCK_FIN else b for b in word)


ZERO = Ordinal()
ONE = Ordinal(0, ((ZERO, 1),))
OMEGA = Ordinal(0, ((ONE, 1),))
OMEGA1 = Ordinal(1, ())
