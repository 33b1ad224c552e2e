"""Vectors in the tensor module on the tabloid basis, with divided powers.

A tabloid's vector is the tensor product of its factors in reading order
(``shapes.tabloid_factors``).  A divided power f_i^(m) is pushed through
that product with the quantum binomial recursion

    f^(m)(u (x) v) = sum_k q_i^{(m-k)(a-k)} f^(k)(u) (x) f^(m-k)(v)

where q_i^a is the t_i-eigenvalue of the head factor u.  ``_factor_powers``
tables, once per (factor, i), that exponent and the factor's non-zero
divided powers: the closed-form wedge action on a column, the
coefficient-free crystal edge on a spin column (f^(k) = 0 there for k >= 2).
"""

from __future__ import annotations

from functools import lru_cache

from .crystal import SpinColumn, spin_apply
from .laurent import LaurentPoly, SparseVector
from .rootdata import AlgebraKind, cartan_exponent, qi_exponent
from .shapes import Tabloid, highest_tabloid, shape_for_lambda, tabloid_factors, tabloid_of_factors
from .wedge import wedge_f_divided


def highest_vector(lam: tuple[int, ...], kind: AlgebraKind) -> SparseVector:
    return SparseVector.unit(highest_tabloid(shape_for_lambda(lam, kind)))


@lru_cache(maxsize=None)
def _factor_powers(f, i: int) -> tuple[int, tuple[tuple[tuple[object, LaurentPoly], ...], ...]]:
    """The t_i exponent of a factor and its non-zero f_i^(0), f_i^(1), ..., each
    as a tuple of (label, coefficient) pairs: lighter to keep than a SparseVector."""
    a = cartan_exponent(f.weight2(), i, f.kind)
    one = LaurentPoly.one()
    if isinstance(f, SpinColumn):
        return a, tuple(((g, one),) for g in (f, spin_apply(f, i, "f")) if g is not None)
    powers = [((f, one),)]
    while not (v := wedge_f_divided(f, i, len(powers))).is_zero():
        powers.append(tuple(v.terms))
    return a, tuple(powers)


def _expand_divided(factors: tuple, i: int, m: int, d: int) -> dict[tuple, LaurentPoly]:
    """f_i^(m) on a pure tensor of factors; keys are factor tuples."""
    if m == 0:
        return {factors: LaurentPoly.one()}
    if not factors:
        return {}
    a, powers = _factor_powers(factors[0], i)
    rest = factors[1:]
    out: dict[tuple, LaurentPoly] = {}
    for k in range(min(m, len(powers) - 1) + 1):
        rest_terms = _expand_divided(rest, i, m - k, d)
        e = d * (m - k) * (a - k)
        for g, cg in powers[k]:
            for tail, ct in rest_terms.items():
                key = (g,) + tail
                add = (cg * ct).shift(e)
                cur = out.get(key)
                out[key] = add if cur is None else cur + add
    return {k: v for k, v in out.items() if not v.is_zero()}


def module_f_divided(v: SparseVector, i: int, m: int) -> SparseVector:
    """Apply the divided power f_i^(m) to a vector on the tabloid basis."""
    if m == 0 or v.is_zero():
        return v
    shape = next(iter(v.terms))[0].shape
    d = qi_exponent(shape.kind, i)
    acc: dict[Tabloid, LaurentPoly] = {}
    for tab, coeff in v.terms:
        for factors, c in _expand_divided(tabloid_factors(tab), i, m, d).items():
            t = tabloid_of_factors(shape, factors)
            cur = acc.get(t)
            add = c * coeff
            acc[t] = add if cur is None else cur + add
    return SparseVector(acc)


def apply_monomial(v0: SparseVector, path: list[tuple[int, int]]) -> SparseVector:
    """Apply a monomial of divided powers, rightmost factor first."""
    v = v0
    for i, r in reversed(path):
        v = module_f_divided(v, i, r)
    return v
