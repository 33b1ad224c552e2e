"""Exact arithmetic in the ring Z[q, q^-1] of integer Laurent polynomials.

Polynomials are stored sparsely as exponent -> coefficient maps with no zero
coefficients.  Coefficients are Python ints (arbitrary precision), so overflow
is never a correctness concern.  Values are immutable after construction and
safe to share.

The canonical textual form lists terms in ascending exponent order, e.g.
``q^-1+2+q^3``; the JSON form is a list of ``[exponent, coefficient]`` pairs,
ascending by exponent.

``SparseVector`` holds the Z[q, q^-1]-combinations of basis elements that
every stage of the algorithm works with: columns of a q-wedge module,
tabloids of a tensor module, and spin columns.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class InexactDivision(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


class NegativePower(ArithmeticError):
    """Evaluation at q=0 of a polynomial with a negative exponent."""


class LaurentPoly:
    """An integer Laurent polynomial in the single variable q."""

    __slots__ = ("_terms", "_hash")

    _terms: dict[int, int]

    def __init__(self, terms: dict[int, int] | Iterable[tuple[int, int]] | None = None):
        d: dict[int, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                if c:
                    nc = d.get(e, 0) + c
                    if nc:
                        d[e] = nc
                    elif e in d:
                        del d[e]
        object.__setattr__(self, "_terms", d)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return (LaurentPoly, (dict(self._terms),))

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
        return tuple(sorted(self._terms.items()))

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.terms())
            object.__setattr__(self, "_hash", h)
        return h

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        d = dict(self._terms)
        for e, c in other._terms.items():
            nc = d.get(e, 0) + c
            if nc:
                d[e] = nc
            elif e in d:
                del d[e]
        return _wrap(d)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        d = dict(self._terms)
        for e, c in other._terms.items():
            nc = d.get(e, 0) - c
            if nc:
                d[e] = nc
            elif e in d:
                del d[e]
        return _wrap(d)

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return _wrap({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        d: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                nc = d.get(e, 0) + ca * cb
                if nc:
                    d[e] = nc
                elif e in d:
                    del d[e]
        return _wrap(d)

    __rmul__ = __mul__

    # -- involution and evaluations -------------------------------------

    def bar(self) -> "LaurentPoly":
        """The bar involution q -> q^-1."""
        return _wrap({-e: c for e, c in self._terms.items()})

    def eval_at_zero(self) -> int:
        """Constant coefficient; error if any exponent is negative."""
        if self._terms and min(self._terms) < 0:
            raise NegativePower(f"not regular at q=0: {self}")
        return self._terms.get(0, 0)

    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    # -- rendering -------------------------------------------------------

    def _render(self, power: str, times: str) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else power.format(e)
                body = var if abs(c) == 1 else f"{abs(c)}{times}{var}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self._render("q^{}", "*")

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    def json_terms(self) -> list[list[int]]:
        return [[e, c] for e, c in self.terms()]

    def latex(self) -> str:
        return self._render("q^{{{}}}", "")


def _wrap(d: dict[int, int]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(p, "_terms", d)
    object.__setattr__(p, "_hash", None)
    return p


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
_MINUS_ONE = LaurentPoly({0: -1})


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
    return _wrap({d * (m - 1 - 2 * j): 1 for j in range(m)})


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
    out: dict[int, int] = {}
    while rem:
        nlo = min(rem)
        e = nlo - dlo
        if e > max_qexp:
            raise InexactDivision(f"({num}) / ({den}) leaves a remainder")
        c, r = divmod(rem[nlo], dlo_c)
        if r:
            raise InexactDivision(f"({num}) / ({den}) has a non-integer quotient")
        out[e] = c
        for de, dc in den_terms:
            k = de + e
            nc = rem.get(k, 0) - dc * c
            if nc:
                rem[k] = nc
            elif k in rem:
                del rem[k]
    return _wrap(out)
