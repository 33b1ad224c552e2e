"""Vectors in the tensor module on the tabloid basis, with divided powers.

A tabloid's vector is the tensor product of its factors in reading order
(``shapes.tabloid_factors``).  A divided power f_i^(m) is pushed through
that product with the quantum binomial recursion

    f^(m)(u (x) v) = sum_k q_i^{(m-k)(a-k)} f^(k)(u) (x) f^(m-k)(v)

where q_i^a is the t_i-eigenvalue of the left factor.  Base cases are the
closed-form wedge action on single columns and the coefficient-free spin
action (f^(k) = 0 on a spin factor for k >= 2).
"""

from __future__ import annotations

from .crystal import SpinColumn, spin_apply
from .laurent import LaurentPoly, SparseVector
from .rootdata import AlgebraKind, cartan_exponent, qi_exponent
from .shapes import Tabloid, highest_tabloid, shape_for_lambda, tabloid_factors, tabloid_of_factors
from .wedge import wedge_f_divided


def highest_vector(lam: tuple[int, ...], kind: AlgebraKind) -> SparseVector:
    return SparseVector.unit(highest_tabloid(shape_for_lambda(lam, kind)))


def _factor_divided(f, i: int, k: int) -> SparseVector:
    """f_i^(k) on a single tensor factor (a spin column or a column)."""
    if isinstance(f, SpinColumn):
        if k == 0:
            return SparseVector.unit(f)
        g = spin_apply(f, i, "f") if k == 1 else None
        return SparseVector.unit(g) if g is not None else SparseVector.zero()
    return wedge_f_divided(f, i, k)


def _expand_divided(factors: tuple, i: int, m: int, kind: AlgebraKind, d: int) -> dict[tuple, LaurentPoly]:
    """f_i^(m) on a pure tensor of factors; keys are factor tuples."""
    if m == 0:
        return {factors: LaurentPoly.one()}
    if not factors:
        return {}
    if len(factors) == 1:
        return {(g,): c for g, c in _factor_divided(factors[0], i, m).terms}
    head, rest = factors[0], factors[1:]
    a = cartan_exponent(head.weight2(), i, kind)
    out: dict[tuple, LaurentPoly] = {}
    for k in range(m + 1):
        head_vec = _factor_divided(head, i, k)
        if head_vec.is_zero():
            continue
        rest_terms = _expand_divided(rest, i, m - k, kind, d)
        if not rest_terms:
            continue
        scale = LaurentPoly.q(d * (m - k) * (a - k))
        for g, cg in head_vec.terms:
            for tail, ct in rest_terms.items():
                key = (g,) + tail
                add = cg * ct * scale
                cur = out.get(key)
                out[key] = add if cur is None else cur + add
    return {k: v for k, v in out.items() if not v.is_zero()}


def module_f_divided(v: SparseVector, i: int, m: int) -> SparseVector:
    """Apply the divided power f_i^(m) to a vector on the tabloid basis."""
    if m == 0 or v.is_zero():
        return v
    shape = next(iter(v.terms))[0].shape
    kind = shape.kind
    d = qi_exponent(kind, i)
    acc: dict[Tabloid, LaurentPoly] = {}
    for tab, coeff in v.terms:
        for factors, c in _expand_divided(tabloid_factors(tab), i, m, kind, d).items():
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
