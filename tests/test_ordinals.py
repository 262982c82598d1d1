"""Ordinal arithmetic against the explicit well-order oracle.

The oracle path never touches the CNF arithmetic: orders are explicit block
words (initial segments of the lex order on triples) and their types are
measured by the absorption scan.  cmp/add/fin_mul must agree with it.
"""

import copy
import functools
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from wedgetree.errors import (
    OracleRangeError, OrdinalUnderflowError, SupNotRepresentable, WedgeTreeError,
)
from wedgetree import ordinals as o
from wedgetree import trees
from wedgetree.ordinals import (
    OMEGA, OMEGA1, ONE, ZERO, Cofinality, Ordinal, add, classify_ordinal, cmp,
    fin_mul, fundamental, left_sub, limit_of_affine, measure_blocks, nat,
    omega_power, oracle_encode, right_sub, times_nat,
)

from helpers import reference_cmp


def w2(c=1):
    return omega_power(nat(2), c)


def from_triple(c2, c1, c0):
    terms = []
    if c2:
        terms.append((nat(2), c2))
    if c1:
        terms.append((ONE, c1))
    if c0:
        terms.append((ZERO, c0))
    return Ordinal(0, tuple(terms))


SMALL = [from_triple(0, c1, c0) for c1 in range(5) for c0 in range(5)]

_rng_triples = []
_seed = 0x5eed
for _ in range(500):
    _seed = (_seed * 1103515245 + 12345) % (1 << 31)
    _rng_triples.append(((_seed >> 3) % 4, (_seed >> 7) % 5, (_seed >> 11) % 5))
RANDOM3 = [from_triple(*t) for t in _rng_triples]


# -- oracle equivalence ------------------------------------------------------

def test_cmp_matches_oracle_exhaustively():
    for a, b in itertools.product(SMALL, repeat=2):
        ta = oracle_encode(a).boundary
        tb = oracle_encode(b).boundary
        want = -1 if ta < tb else (0 if ta == tb else 1)
        assert cmp(a, b) == want, (a, b)


def test_add_matches_oracle_exhaustively():
    for a, b in itertools.product(SMALL, repeat=2):
        word = oracle_encode(a).blocks() + oracle_encode(b).blocks()
        assert oracle_encode(add(a, b)).boundary == measure_blocks(word), (a, b)


def test_fin_mul_matches_oracle():
    for n in range(1, 6):
        for a in SMALL:
            word = o.blocks_fin_mul(n, oracle_encode(a).blocks())
            assert oracle_encode(fin_mul(n, a)).boundary == measure_blocks(word), (n, a)


def test_random_pairs_below_w3_match_oracle():
    pairs = list(zip(RANDOM3, reversed(RANDOM3)))
    assert len(pairs) == 500
    for a, b in pairs:
        ta = oracle_encode(a).boundary
        tb = oracle_encode(b).boundary
        want = -1 if ta < tb else (0 if ta == tb else 1)
        assert cmp(a, b) == want
        word = oracle_encode(a).blocks() + oracle_encode(b).blocks()
        assert oracle_encode(add(a, b)).boundary == measure_blocks(word)


def test_oracle_carrier_is_initial_segment():
    # spot check: the first elements of w*2+1 really do enumerate an initial
    # omega-segment, and the boundary is excluded
    order = oracle_encode(add(times_nat(OMEGA, 2), ONE))
    first = order.first(10)
    assert first == [(0, 0, k) for k in range(10)]
    for t, u in zip(first, first[1:]):
        assert order.less(t, u)
    assert order.contains((0, 1, 7))
    assert order.contains((0, 2, 0))  # the single point past the two omega blocks
    assert not order.contains((0, 2, 1))  # the boundary itself


def test_oracle_encode_zero_and_range_error():
    assert oracle_encode(ZERO).blocks() == ()
    with pytest.raises(OracleRangeError):
        oracle_encode(OMEGA1)
    with pytest.raises(OracleRangeError):
        oracle_encode(omega_power(nat(3)))


# -- spec'd point values -----------------------------------------------------

def test_cmp_examples():
    assert cmp(times_nat(OMEGA, 2), OMEGA1) < 0
    assert cmp(omega_power(OMEGA), w2(5)) > 0
    assert cmp(add(OMEGA1, nat(3)), add(OMEGA1, nat(3))) == 0


def test_add_examples():
    assert add(ONE, OMEGA) == OMEGA
    assert add(OMEGA, ONE) == Ordinal(0, ((ONE, 1), (ZERO, 1)))
    assert add(add(OMEGA1, OMEGA), OMEGA1) == Ordinal(2, ())


def test_fin_mul_examples():
    assert fin_mul(2, OMEGA) == OMEGA
    assert fin_mul(3, add(OMEGA1, ONE)) == add(OMEGA1, nat(3))
    assert fin_mul(4, nat(5)) == nat(20)


def test_left_sub_examples():
    assert left_sub(OMEGA, add(OMEGA, nat(5))) == nat(5)
    assert left_sub(OMEGA1, OMEGA1) == ZERO
    with pytest.raises(OrdinalUnderflowError):
        left_sub(add(OMEGA, nat(5)), OMEGA)


def test_classify_examples():
    assert classify_ordinal(nat(7)) == ("successor", Cofinality.ZERO)
    assert classify_ordinal(add(OMEGA1, OMEGA)) == ("limit", Cofinality.OMEGA)
    assert classify_ordinal(Ordinal(2, ())) == ("limit", Cofinality.OMEGA1)
    assert classify_ordinal(ZERO) == ("zero", Cofinality.ZERO)


# -- algebraic laws ----------------------------------------------------------

def exponents():
    return st.sampled_from([ZERO, ONE, nat(2), nat(3), OMEGA])


@st.composite
def countable_ordinals(draw, max_terms=3):
    n = draw(st.integers(0, max_terms))
    exps = draw(st.lists(exponents(), min_size=n, max_size=n, unique_by=lambda e: (e.omega1, e.terms)))
    exps.sort(key=lambda e: [cmp(e, x) for x in [ZERO, ONE, nat(2), nat(3), OMEGA]], reverse=False)
    exps = sorted(exps, key=lambda e: e, reverse=True)
    coeffs = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return Ordinal(0, tuple(zip(exps, coeffs)))


@st.composite
def any_ordinals(draw):
    m = draw(st.integers(0, 2))
    gamma = draw(countable_ordinals())
    return Ordinal(m, gamma.terms)


@st.composite
def deep_ordinals(draw, depth=3):
    """w1*m + gamma with m in 0..3 and gamma's exponents drawn recursively,
    ``depth`` levels down to naturals: w^(w^w+1) and w^(w^(w^2)) are in
    reach.  Exponents are ordered by ``reference_cmp``."""
    n = draw(st.integers(0, 3))
    if depth == 0:
        exps = [nat(e) for e in draw(st.lists(st.integers(0, 4), min_size=n,
                                              max_size=n, unique=True))]
    else:
        exps = draw(st.lists(deep_ordinals(depth - 1).map(lambda x: x.countable),
                             min_size=n, max_size=n, unique_by=str))
    exps.sort(key=functools.cmp_to_key(reference_cmp), reverse=True)
    coeffs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return Ordinal(draw(st.integers(0, 3)), tuple(zip(exps, coeffs)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(deep_ordinals(), min_size=2, max_size=6))
def test_tuple_order_is_the_cnf_order(xs):
    """``cmp``, the operators and ``sorted`` agree with the term-by-term CNF
    order on exponents nested three deep, and the hash is that of the plain
    pair; a rebuilt twin compares equal and a proper prefix below."""
    a = xs[0]
    xs = xs + [Ordinal(a.omega1, a.terms), Ordinal(a.omega1, a.terms[:-1])]
    for x, y in itertools.product(xs, repeat=2):
        want = reference_cmp(x, y)
        assert cmp(x, y) == want, (x, y)
        assert ((x < y), (x == y), (x > y)) == (want < 0, want == 0, want > 0)
        assert (x <= y, x >= y, x != y) == (want <= 0, want >= 0, want != 0)
    assert [str(x) for x in sorted(xs)] == \
        [str(x) for x in sorted(xs, key=functools.cmp_to_key(reference_cmp))]
    for x in xs:
        assert hash(x) == hash((x.omega1, x.terms))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(any_ordinals(), any_ordinals(), any_ordinals())
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(any_ordinals(), any_ordinals(), any_ordinals())
def test_cmp_total_order(a, b, c):
    assert cmp(a, a) == 0
    assert cmp(a, b) == -cmp(b, a)
    if cmp(a, b) <= 0 and cmp(b, c) <= 0:
        assert cmp(a, c) <= 0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(any_ordinals(), any_ordinals())
def test_left_sub_roundtrip(a, b):
    lo, hi = (a, b) if cmp(a, b) <= 0 else (b, a)
    assert add(lo, left_sub(lo, hi)) == hi


@settings(max_examples=120, deadline=None, derandomize=True)
@given(any_ordinals())
def test_add_zero_identity(a):
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a
    assert fin_mul(1, a) == a


@settings(max_examples=100, deadline=None, derandomize=True)
@given(any_ordinals())
def test_successor_kind_iff_predecessor_exists(a):
    # probe: a is a successor exactly when some p satisfies p + 1 = a
    if a.kind() == "successor":
        p = Ordinal(a.omega1, a.terms[:-1] + (((ZERO, a.finite_tail - 1),) if a.finite_tail > 1 else ()))
        assert add(p, ONE) == a
    else:
        assert a.finite_tail == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(any_ordinals(), st.integers(0, 8))
def test_fundamental_sequences_increase_below_limit(a, j):
    lam = add(a, OMEGA) if a.cof() is not Cofinality.OMEGA else a
    f1, f2 = fundamental(lam, j), fundamental(lam, j + 1)
    assert cmp(f1, f2) < 0
    assert cmp(f2, lam) < 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_ordinals(), st.integers(0, 30))
def test_times_nat_is_repeated_addition(a, n):
    want = ZERO
    for _ in range(n):
        want = add(want, a)
    assert times_nat(a, n) == want


def _left_summand_candidates(a):
    """The candidates of the old coefficient search for a base, in
    increasing order and without its cap of 50: w1*j for j <= a.omega1, then
    each CNF prefix of a with its last coefficient lowered or kept.  The w1
    coefficient is split too, which a right cancellation by an w1-sized
    summand needs."""
    out = [Ordinal(j) for j in range(a.omega1 + 1)]
    for i, (e, c) in enumerate(a.terms):
        out += [Ordinal(a.omega1, a.terms[:i] + ((e, x),)) for x in range(1, c + 1)]
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_ordinals(), any_ordinals(), st.booleans())
def test_right_sub_is_the_least_right_cancellation(x, b, free):
    a = x if free else add(x, b)
    want = next((y for y in _left_summand_candidates(a) if add(y, b) == a), None)
    assert right_sub(a, b) == want
    if not free:
        assert want is not None and cmp(want, x) <= 0


def test_times_nat_small_factors_and_absorption():
    w1_mixed = Ordinal(2, add(w2(3), add(OMEGA, nat(4))).terms)
    for a in [ZERO, ONE, OMEGA, OMEGA1, w1_mixed, add(w2(2), nat(5))]:
        assert times_nat(a, 0) == ZERO
        assert times_nat(a, 1) == a
    assert times_nat(ZERO, 7) == ZERO
    assert times_nat(w1_mixed, 3) == Ordinal(6, w1_mixed.terms)
    assert times_nat(add(w2(2), nat(5)), 3) == add(w2(6), nat(5))
    assert times_nat(nat(4), 3) == nat(12)
    with pytest.raises(ValueError):
        times_nat(ONE, -1)


def test_limit_of_affine():
    assert limit_of_affine(ZERO, ONE) == OMEGA
    assert limit_of_affine(nat(4), nat(3)) == OMEGA
    assert limit_of_affine(ZERO, OMEGA) == w2()
    assert limit_of_affine(OMEGA1, ONE) == add(OMEGA1, OMEGA)
    assert limit_of_affine(OMEGA, ZERO) == OMEGA
    with pytest.raises(SupNotRepresentable):
        limit_of_affine(ZERO, OMEGA1)


def test_canonical_form_rejects_garbage():
    with pytest.raises(ValueError):
        Ordinal(0, ((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(0, ((ZERO, 1), (ONE, 1)))
    with pytest.raises(ValueError):
        Ordinal(0, ((OMEGA1, 1),))


def test_str_roundtrippable_forms():
    assert str(ZERO) == "0"
    assert str(add(OMEGA1, add(w2(3), nat(5)))) == "w1+w^2*3+5"
    assert str(times_nat(OMEGA, 2)) == "w*2"


def test_ordinals_copy_and_pickle():
    values = [ZERO, nat(3), OMEGA, OMEGA1, add(OMEGA1, add(w2(3), nat(4))),
              omega_power(OMEGA, 2)]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and cmp(y, x) == 0
            assert y.cof() is x.cof()
            assert str(y) == str(x) and add(y, ONE) == add(x, ONE)


def test_ordinals_are_immutable():
    x = add(OMEGA1, nat(2))
    for name, value in (("omega1", 0), ("terms", ()), ("_hash", 0),
                        ("_cof", Cofinality.OMEGA1), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x == add(OMEGA1, nat(2)) and x.cof() is Cofinality.ZERO


def test_ordinals_are_no_sequences_to_arithmetic():
    """``*`` is not repetition and ``+`` is not concatenation; the value is
    the plain pair, so it equals and hashes as that pair."""
    x = add(OMEGA1, nat(2))
    for op in (lambda: x * 2, lambda: 2 * x, lambda: x * x, lambda: x + (1,),
               lambda: x + "w"):
        with pytest.raises(TypeError):
            op()
    assert x + 1 == add(OMEGA1, nat(3)) and x + OMEGA == add(x, OMEGA)
    assert x == (1, ((ZERO, 2),)) and hash(x) == hash((1, ((ZERO, 2),)))


def test_messages_name_the_ordinal():
    """Messages show an ordinal as one value, never as the pair it is."""
    with pytest.raises(ValueError, match=r"^pred of a non-successor ordinal: w$"):
        o.pred(OMEGA)
    with pytest.raises(OracleRangeError, match=r"got w1$"):
        oracle_encode(OMEGA1)
    with pytest.raises(OracleRangeError, match=r"got w\^3$"):
        oracle_encode(omega_power(nat(3)))
    with pytest.raises(ValueError, match=r"^not a finite ordinal: w1\+2$"):
        add(OMEGA1, nat(2)).to_int()
    assert repr(OMEGA) == "Ordinal(w)" and str(Ordinal(3)) == "w1*3"
    node = trees.resolve(trees.Seg(add(OMEGA1, ONE)), (trees.Up(OMEGA),))
    assert repr(node) == "<node up:w ht=w cf=w ims=1>"


# -- value memos ---------------------------------------------------------------

# (memoized function, arity): the pure operations kept by value, each bounded
# by ordinals.ORDINAL_CACHE_SIZE.  ``fundamental`` takes an ordinal and a
# natural number, the others one or two ordinals
MEMOIZED = [(o.add, 2), (o.left_sub, 2), (o.pred, 1), (o.fundamental, 2),
            (trees.hat_shift, 1), (trees.hat_unshift, 1), (trees.tilde_shift, 1),
            (trees.tilde_unshift, 1)]


def _outcome(fn, args):
    """(answer, None) or (None, type of the error raised)."""
    try:
        return fn(*args), None
    except (ValueError, WedgeTreeError) as e:
        return None, type(e)


@pytest.mark.parametrize("fn, arity", MEMOIZED, ids=[fn.__name__ for fn, _ in MEMOIZED])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=any_ordinals(), b=any_ordinals(), n=st.integers(0, 40))
def test_memoized_operations_equal_their_uncached_functions(fn, arity, a, b, n):
    """A memo hit is the uncached answer and the same object on every call;
    a call that raises raises the uncached error and is not kept."""
    assert fn.cache_info().maxsize == o.ORDINAL_CACHE_SIZE
    args = (a, n) if fn is o.fundamental else (a, b)[:arity]
    want, want_error = _outcome(fn.__wrapped__, args)
    size = fn.cache_info().currsize
    got, got_error = _outcome(fn, args)
    assert got_error is want_error
    if want_error is None:
        assert got == want and fn(*args) is got
        return
    assert fn.cache_info().currsize == size
    before = fn.cache_info()
    assert _outcome(fn, args) == (None, want_error)
    after = fn.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)


def test_repeat_calls_share_one_value():
    a, b = add(OMEGA1, nat(3)), add(w2(2), OMEGA)
    assert add(a, b) is add(a, b)
    assert add(Ordinal(1, ((ZERO, 3),)), b) is add(a, b)  # equal keys, one answer
    assert o.left_sub(OMEGA, b) is o.left_sub(OMEGA, b)
    assert o.pred(a) is o.pred(a) == add(OMEGA1, nat(2))
    assert trees.hat_shift(a) is trees.hat_shift(a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(any_ordinals())
def test_stored_cof_is_derived_from_kind(a):
    kind = a.kind()
    if kind in ("zero", "successor"):
        want = Cofinality.ZERO
    else:
        want = Cofinality.OMEGA if a.terms else Cofinality.OMEGA1
    assert a.cof() is want
    assert Ordinal(a.omega1, a.terms).cof() is want
