"""Exact arithmetic in the ring Z[q, q^-1] of integer Laurent polynomials.

A polynomial is stored as its term tuple: ((exponent, coefficient), ...),
strictly ascending in exponent and with no zero coefficient.  The ring
operations are written once on such tuples (``times``, with a fast path for
single terms, and ``plus``; ``terms_of`` turns an exponent -> coefficient map
into one), and ``LaurentPoly`` wraps a tuple and calls them, so the A(T)
kernel and the correction, which run on bare tuples, share them with it.
Coefficients are Python ints (arbitrary precision), so overflow is never a
correctness concern.  Values are immutable after construction and safe to
share.

The canonical textual form lists terms in ascending exponent order, e.g.
``q^-1+2+q^3``; the JSON form is a list of ``[exponent, coefficient]`` pairs,
ascending by exponent.

``SparseVector`` holds the Z[q, q^-1]-combinations of basis elements that
every stage of the algorithm works with: columns of a q-wedge module,
tabloids of a tensor module, and spin columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class InexactDivision(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


class NegativePower(ArithmeticError):
    """Evaluation at q=0 of a polynomial with a negative exponent."""


ONE_TERMS = ((0, 1),)  # the terms of the coefficient 1


def terms_of(poly: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The non-zero terms of an {exponent: coefficient} map, ascending."""
    return tuple(sorted(p for p in poly.items() if p[1]))


def times(a: tuple, b: tuple) -> tuple:
    """The product of two term tuples."""
    if len(a) == 1 == len(b):
        return ((a[0][0] + b[0][0], a[0][1] * b[0][1]),)
    poly: dict[int, int] = {}
    for ea, ca in a:
        for e, c in b:
            poly[ea + e] = poly.get(ea + e, 0) + ca * c
    return terms_of(poly)


def plus(a: tuple, b: tuple) -> tuple:
    """The sum of two term tuples."""
    poly = dict(a)
    for e, c in b:
        poly[e] = poly.get(e, 0) + c
    return terms_of(poly)


class LaurentPoly:
    """An integer Laurent polynomial in the single variable q."""

    __slots__ = ("_terms",)

    _terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: dict[int, int] | Iterable[tuple[int, int]] | None = None):
        d: dict[int, int] = {}
        if terms:
            for e, c in terms.items() if isinstance(terms, dict) else terms:
                d[e] = d.get(e, 0) + c
        object.__setattr__(self, "_terms", terms_of(d))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return (LaurentPoly, (self._terms,))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def q(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * q^exp."""
        return LaurentPoly({exp: coeff})

    # -- structure ----------------------------------------------------

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, ascending by exponent."""
        return self._terms

    def coeff(self, exp: int) -> int:
        return next((c for e, c in self._terms if e == exp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return self._terms[0][0]

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return self._terms[-1][0]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _wrap(plus(self._terms, other._terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _wrap(plus(self._terms, (-other)._terms))

    def __neg__(self) -> "LaurentPoly":
        return _wrap(tuple((e, -c) for e, c in self._terms))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return _wrap(tuple((e, c * other) for e, c in self._terms))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _wrap(times(self._terms, other._terms))

    __rmul__ = __mul__

    # -- involution and evaluations -------------------------------------

    def bar(self) -> "LaurentPoly":
        """The bar involution q -> q^-1."""
        return _wrap(tuple((-e, c) for e, c in reversed(self._terms)))

    def eval_at_zero(self) -> int:
        """Constant coefficient; error if any exponent is negative."""
        if self._terms and self._terms[0][0] < 0:
            raise NegativePower(f"not regular at q=0: {self}")
        return self.coeff(0)

    def eval_at_one(self) -> int:
        return sum(c for _e, c in self._terms)

    # -- rendering -------------------------------------------------------

    def _render(self, power: str, mul: str) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self._terms:
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else power.format(e)
                body = var if abs(c) == 1 else f"{abs(c)}{mul}{var}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self._render("q^{}", "*")

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    def json_terms(self) -> list[list[int]]:
        return [[e, c] for e, c in self._terms]

    def latex(self) -> str:
        return self._render("q^{{{}}}", "")


def _wrap(terms: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """Wrap a term tuple already ascending and free of zero coefficients."""
    p = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(p, "_terms", terms)
    return p


_ZERO = LaurentPoly()
_ONE = _wrap(ONE_TERMS)
_MINUS_ONE = _wrap(((0, -1),))


class SparseVector:
    """A finitely supported map from hashable basis labels to Laurent coefficients.

    The labels are columns, tabloids or spin columns; no coefficient is zero.
    Values are immutable after construction.  Term order carries no meaning,
    so whoever prints a vector sorts its terms.
    """

    __slots__ = ("_terms",)

    _terms: dict

    def __init__(self, terms: dict | None = None):
        object.__setattr__(self, "_terms", {b: c for b, c in terms.items() if c} if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    def __reduce__(self):
        return (SparseVector, (self._terms,))

    @staticmethod
    def unit(label) -> "SparseVector":
        return _vector({label: _ONE})

    @staticmethod
    def zero() -> "SparseVector":
        return _ZERO_VECTOR

    @property
    def terms(self):
        """A read-only view of the (label, coefficient) pairs."""
        return self._terms.items()

    def coeff(self, label) -> LaurentPoly:
        return self._terms.get(label, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def scale(self, s: LaurentPoly) -> "SparseVector":
        if s.is_zero():
            return _ZERO_VECTOR
        return _vector({b: c * s for b, c in self._terms.items()})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        d = dict(self._terms)
        for b, c in other._terms.items():
            s = d[b] + c if b in d else c
            if s:
                d[b] = s
            else:
                del d[b]
        return _vector(d)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(_MINUS_ONE)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"SparseVector({self._terms!r})"


def _vector(d: dict) -> SparseVector:
    """Wrap a dict already free of zero coefficients."""
    v = SparseVector.__new__(SparseVector)
    object.__setattr__(v, "_terms", d)
    return v


_ZERO_VECTOR = SparseVector()


def quantum_int(m: int, d: int) -> LaurentPoly:
    """The quantum integer [m] at q_i = q^d: sum of q^{d(m-1-2j)}, j=0..m-1."""
    if m < 0:
        raise ValueError("quantum_int needs m >= 0")
    if d not in (1, 2):
        raise ValueError("length exponent d must be 1 or 2")
    return _wrap(tuple((e, 1) for e in range(d * (1 - m), d * m, 2 * d)))


def quantum_factorial(m: int, d: int) -> LaurentPoly:
    """[m]! = [m][m-1]...[1] at q_i = q^d; [0]! = 1."""
    if m < 0:
        raise ValueError("quantum_factorial needs m >= 0")
    out = _ONE
    for k in range(2, m + 1):
        out = out * quantum_int(k, d)
    return out


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in Z[q,q^-1].

    Long division from the lowest term, with exponent shifts.  Raises
    InexactDivision when the division leaves a remainder (integer or
    polynomial); never truncates silently.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return _ZERO
    rem = dict(num._terms)
    den_terms = den.terms()
    dlo, dlo_c = den_terms[0]
    max_qexp = num.max_exp() - den.max_exp()
    out = []  # the lowest remaining exponent rises, so the quotient's terms come ascending
    while rem:
        nlo = min(rem)
        e = nlo - dlo
        if e > max_qexp:
            raise InexactDivision(f"({num}) / ({den}) leaves a remainder")
        c, r = divmod(rem[nlo], dlo_c)
        if r:
            raise InexactDivision(f"({num}) / ({den}) has a non-integer quotient")
        out.append((e, c))
        for de, dc in den_terms:
            k = de + e
            nc = rem.get(k, 0) - dc * c
            if nc:
                rem[k] = nc
            elif k in rem:
                del rem[k]
    return _wrap(tuple(out))
