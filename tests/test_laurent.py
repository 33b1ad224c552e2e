import pickle

import pytest
from hypothesis import example, given, strategies as st

from qcb.checks import term_arithmetic_holds
from qcb.laurent import (
    InexactDivision,
    LaurentPoly,
    NegativePower,
    SparseVector,
    divide_exact,
    quantum_factorial,
    quantum_int,
)


def P(*terms):
    return LaurentPoly(list(terms))


maps = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6)
polys = maps.map(LaurentPoly)


def term_tuples(min_size):
    """Valid term tuples: ascending exponents, no zero coefficient; narrow
    ranges, so products and sums cancel often."""
    coeffs = st.integers(-3, 3).filter(bool)
    return st.dictionaries(st.integers(-5, 5), coeffs, min_size=min_size, max_size=6).map(lambda d: tuple(sorted(d.items())))


def test_arith_examples():
    q = LaurentPoly.q
    assert q(1) + q(-1) == q(-1) + q(1)
    assert P((0, 1), (2, 1)) * P((0, 1), (4, -1)) == P((0, 1), (2, 1), (4, -1), (6, -1))
    assert (P((3, 5), (-2, 1)) * LaurentPoly.zero()).is_zero()


def test_canonical_form_drops_zeros():
    assert P((2, 1), (2, -1)).is_zero()
    assert P((1, 2), (1, 3)).terms() == ((1, 5),)


def test_bar_examples():
    assert LaurentPoly.q(8).bar() == LaurentPoly.q(-8)
    sym = P((1, 1), (-1, 1))
    assert sym.bar() == sym
    assert P((0, 1), (4, -1)).bar() == P((0, 1), (-4, -1))


@given(polys)
def test_bar_is_involutive(p):
    assert p.bar().bar() == p


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


def test_quantum_int():
    assert quantum_int(0, 1).is_zero()
    assert quantum_int(1, 2) == LaurentPoly.one()
    assert quantum_int(2, 1) == P((-1, 1), (1, 1))
    assert quantum_int(3, 2) == P((-4, 1), (0, 1), (4, 1))


@given(st.integers(0, 9), st.sampled_from([1, 2]))
def test_quantum_int_bar_invariant(m, d):
    assert quantum_int(m, d).bar() == quantum_int(m, d)


def test_quantum_factorial():
    assert quantum_factorial(0, 1) == LaurentPoly.one()
    assert quantum_factorial(2, 1) == P((-1, 1), (1, 1))
    assert quantum_factorial(3, 1) == P((-3, 1), (-1, 2), (1, 2), (3, 1))
    assert quantum_factorial(5, 2).eval_at_one() == 120


def test_divide_exact():
    assert divide_exact(P((1, 1), (3, 1)), LaurentPoly.q(1)) == P((0, 1), (2, 1))
    two = P((-1, 1), (1, 1))
    assert divide_exact(two * two, two) == two
    with pytest.raises(InexactDivision):
        divide_exact(P((0, 1), (1, 1)), P((0, 1), (2, 1)))
    with pytest.raises(InexactDivision):
        divide_exact(P((0, 2)), P((0, 3)))  # integer remainder


@given(polys, polys)
def test_divide_exact_roundtrip(a, b):
    if not b.is_zero():
        assert divide_exact(a * b, b) == a


def test_eval_at_zero():
    assert P((2, 1), (0, 1)).eval_at_zero() == 1
    assert LaurentPoly.q(1).eval_at_zero() == 0
    with pytest.raises(NegativePower):
        LaurentPoly.q(-1).eval_at_zero()


def test_text_form():
    assert str(P((5, 1), (9, -1))) == "q^5-q^9"
    assert str(P((-1, 1), (1, 1))) == "q^-1+q"
    assert str(P((0, -3), (2, 2))) == "-3+2*q^2"
    assert str(LaurentPoly.zero()) == "0"
    assert P((5, 1), (9, -1)).json_terms() == [[5, 1], [9, -1]]
    assert P((5, 1), (9, -1)).latex() == "q^{5}-q^{9}"
    assert P((-1, 1), (1, 1)).latex() == "q^{-1}+q"
    assert P((0, -3), (2, 2)).latex() == "-3+2q^{2}"
    assert P((1, -1), (3, 4)).latex() == "-q+4q^{3}"
    assert LaurentPoly.zero().latex() == "0"


def _reference(*maps):
    """The sum of {exponent: coefficient} maps, with its zero coefficients dropped."""
    out = {}
    for m in maps:
        for e, c in m.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _reference_product(a, b):
    return _reference(*({ea + eb: ca * cb} for ea, ca in a.items() for eb, cb in b.items()))


def assert_represents(p, ref):
    """p's terms are strictly ascending and zero-free, and p is the map ref."""
    ref = _reference(ref)
    t = p.terms()
    assert all(c for _e, c in t) and all(x[0] < y[0] for x, y in zip(t, t[1:])), t
    assert dict(t) == ref and len(p) == len(ref) and bool(p) == bool(ref)
    assert p == LaurentPoly(ref) and hash(p) == hash(LaurentPoly(ref))
    if ref:
        assert (p.min_exp(), p.max_exp()) == (min(ref), max(ref))
    else:
        with pytest.raises(ValueError):
            p.min_exp()
        with pytest.raises(ValueError):
            p.max_exp()
    for e in range(-40, 41):
        assert p.coeff(e) == ref.get(e, 0)


@given(maps, maps, st.integers(-3, 3))
def test_representation_invariant(a, b, n):
    """Every way of making a LaurentPoly yields an ascending, zero-free term
    tuple equal to a plain {exponent: coefficient} reference."""
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert_represents(pa, a)
    assert_represents(LaurentPoly(list(a.items()) + list(b.items())), _reference(a, b))
    assert_represents(pa + pb, _reference(a, b))
    assert_represents(pa - pb, _reference(a, {e: -c for e, c in b.items()}))
    assert_represents(pa * pb, _reference_product(a, b))
    assert_represents(pa * n, {e: c * n for e, c in a.items()})
    assert_represents(n * pa, {e: c * n for e, c in a.items()})
    assert_represents(-pa, {e: -c for e, c in a.items()})
    assert_represents(pa.bar(), {-e: c for e, c in a.items()})
    assert_represents(pickle.loads(pickle.dumps(pa)), a)
    if pb:
        assert_represents(divide_exact(pa * pb, pb), a)


@given(st.integers(0, 6), st.sampled_from([1, 2]))
def test_quantum_numbers_representation(m, d):
    assert_represents(quantum_int(m, d), {d * (m - 1 - 2 * j): 1 for j in range(m)})
    want = {0: 1}
    for k in range(2, m + 1):
        want = _reference_product(want, {d * (k - 1 - 2 * j): 1 for j in range(k)})
    assert_represents(quantum_factorial(m, d), want)


values = st.one_of(polys, st.integers(-3, 3), st.integers(-3, 3).map(lambda n: LaurentPoly({0: n})))


@given(values, values)
@example(LaurentPoly.one(), 1)
@example(LaurentPoly.zero(), 0)
def test_equal_values_hash_equal(a, b):
    """Equality keeps the hash contract, ints included: a dict keyed by one
    finds the other."""
    if a == b:
        assert hash(a) == hash(b)
        assert {a: "found"}.get(b) == "found"


def test_immutability_and_hash():
    p = P((1, 1))
    with pytest.raises(AttributeError):
        p._terms = {}
    assert hash(P((1, 1), (3, 2))) == hash(P((3, 2), (1, 1)))


def test_sparse_vector_arithmetic():
    q = LaurentPoly.q
    a, b = SparseVector.unit("a"), SparseVector.unit("b")
    assert SparseVector.zero().is_zero() and not a.is_zero()
    assert SparseVector({"a": LaurentPoly.zero()}) == SparseVector.zero()
    v = a.scale(q(1)) + b
    assert v == SparseVector({"b": LaurentPoly.one(), "a": q(1)})
    assert v.coeff("a") == q(1) and v.coeff("c").is_zero()
    assert (v - b) == a.scale(q(1))
    assert (v - v).is_zero() and (v - v) == SparseVector.zero()
    assert v.scale(LaurentPoly.zero()).is_zero()
    assert sorted(v.terms) == [("a", q(1)), ("b", LaurentPoly.one())]
    assert pickle.loads(pickle.dumps(v)) == v
    with pytest.raises(AttributeError):
        v._terms = {}


@given(term_tuples(0), term_tuples(0))
@example(((0, 1), (1, 1)), ((0, 1), (1, -1)))  # (1 + q)(1 - q) = 1 - q^2
@example(((2, 3),), ((-1, 1), (1, 2)))
@example(((-1, 1), (1, 2)), ((2, -3),))
def test_term_arithmetic_matches_reference(a, b):
    """``laurent.times`` and ``laurent.plus`` against ``checks.term_arithmetic_holds``'s
    plain reference, on every size from 0 to 6 terms a side."""
    assert term_arithmetic_holds(a, b)


@given(term_tuples(3), term_tuples(3))
@example(((-1, 1), (0, 1), (1, 1)), ((-1, 1), (0, -1), (1, 1)))
def test_term_arithmetic_on_three_or_more_terms(a, b):
    """The product of two tuples of 3 or more terms each, where the n x n path
    merges and cancels, and their sum."""
    assert term_arithmetic_holds(a, b)
