"""Vectors in the tensor module on the tabloid basis, with divided powers.

A tabloid's vector is the tensor product of its factors in reading order
(``shapes.tabloid_factors``).  A divided power f_i^(m) is pushed through
that product with the quantum binomial recursion

    f^(m)(u (x) v) = sum_k q_i^{(m-k)(a-k)} f^(k)(u) (x) f^(m-k)(v)

where q_i^a is the t_i-eigenvalue of the head factor u.  ``_factor_powers``
computes that exponent and the factor's non-zero divided powers: the
closed-form wedge action on a column, the coefficient-free crystal edge on a
spin column (f^(k) = 0 there for k >= 2).  ``_coded_powers`` keeps them, with
their outputs coded, in one table per (slot table, node), filled on first use.

``module_f_divided`` unrolls the recursion left to right on small integer
factor codes (``Tabloid.codes``).  A partial term holds the codes chosen so
far, the part of m still to place and a plain {exponent: coefficient} map;
it is dropped as soon as the factors still to come cannot absorb the rest
of m.  Each output coefficient
becomes the shape's one LaurentPoly for its value, and each output tabloid
the shape's one object for its filling, both from the shape's tables
(``shapes.shape_tables``).
"""

from __future__ import annotations

from functools import lru_cache

from .crystal import SpinColumn, spin_apply
from .laurent import LaurentPoly, SparseVector
from .rootdata import AlgebraKind, cartan_exponent, qi_exponent
from .shapes import Shape, SlotTable, highest_tabloid, shape_for_lambda, shape_tables, tabloid_of_codes
from .wedge import wedge_f_divided


def highest_vector(lam: tuple[int, ...], kind: AlgebraKind) -> SparseVector:
    return SparseVector.unit(highest_tabloid(shape_for_lambda(lam, kind)))


def _factor_powers(f, i: int) -> tuple[int, tuple[tuple[tuple[object, LaurentPoly], ...], ...]]:
    """The t_i exponent of a factor and its non-zero f_i^(0), f_i^(1), ..., each
    as a tuple of (label, coefficient) pairs."""
    a = cartan_exponent(f.weight2(), i, f.kind)
    one = LaurentPoly.one()
    if isinstance(f, SpinColumn):
        return a, tuple(((g, one),) for g in (f, spin_apply(f, i, "f")) if g is not None)
    powers = [((f, one),)]
    while not (v := wedge_f_divided(f, i, len(powers))).is_zero():
        powers.append(tuple(v.terms))
    return a, tuple(powers)


@lru_cache(maxsize=None)
def _coded_powers(slot: SlotTable, i: int) -> list:
    """By filling code: ``_factor_powers`` of the slot's filling with its
    outputs coded, or None until ``_heads`` first asks for it."""
    return [None] * len(slot.fillings)


def _heads(shape: Shape, codes: tuple[int, ...], i: int) -> list[tuple[int, tuple]]:
    """Each factor's t_i exponent and non-zero f_i^(k), as (code, exponent-coefficient pairs) terms."""
    out = []
    for slot, c in zip(shape.slots, codes):
        table = _coded_powers(slot, i)
        h = table[c]
        if h is None:
            a, powers = _factor_powers(slot.fillings[c], i)
            h = table[c] = (a, tuple(tuple((slot.index[g], cg.terms()) for g, cg in p) for p in powers))
        out.append(h)
    return out


def _expand_divided(heads: list[tuple[int, tuple]], m: int, d: int) -> list[tuple[tuple[int, ...], dict[int, int]]]:
    """f_i^(m) on a pure tensor, from its factors' ``_heads``: (codes, {exponent: coefficient}) pairs.

    The factors are taken left to right; a partial term that the factors
    still to come cannot lower by the rest of m is dropped at once.
    """
    room = [0] * (len(heads) + 1)  # room[j]: the most factors j, j+1, ... absorb
    for j in range(len(heads) - 1, -1, -1):
        room[j] = room[j + 1] + len(heads[j][1]) - 1
    states: list[tuple[tuple[int, ...], int, dict[int, int]]] = [((), m, {0: 1})]
    for j, (a, powers) in enumerate(heads):
        after = room[j + 1]
        nxt = []
        for prefix, left, poly in states:
            for k in range(max(0, left - after), min(left, len(powers) - 1) + 1):
                e = d * (left - k) * (a - k)
                for g, cg in powers[k]:
                    new: dict[int, int] = {}
                    for pe, pc in poly.items():
                        for ce, cc in cg:
                            x = pe + ce + e
                            new[x] = new.get(x, 0) + pc * cc
                    nxt.append((prefix + (g,), left - k, new))
        states = nxt
    return [(codes, poly) for codes, _left, poly in states]


def module_f_divided(v: SparseVector, i: int, m: int) -> SparseVector:
    """Apply the divided power f_i^(m) to a vector on the tabloid basis."""
    if m == 0 or v.is_zero():
        return v
    shape = next(iter(v.terms))[0].shape
    d = qi_exponent(shape.kind, i)
    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for tab, coeff in v.terms:
        terms = coeff.terms()
        for codes, poly in _expand_divided(_heads(shape, tab.codes, i), m, d):
            cur = acc.get(codes)
            if cur is None:
                cur = acc[codes] = {}
            for pe, pc in poly.items():
                for ce, cc in terms:
                    x = pe + ce
                    cur[x] = cur.get(x, 0) + pc * cc
    coefficients = shape_tables(shape).coefficients
    out = {}
    for codes, poly in acc.items():
        c = LaurentPoly(poly)
        if c:
            out[tabloid_of_codes(shape, codes)] = coefficients.setdefault(c, c)
    return SparseVector(out)


def apply_monomial(v0: SparseVector, path: list[tuple[int, int]]) -> SparseVector:
    """Apply a monomial of divided powers, rightmost factor first."""
    v = v0
    for i, r in reversed(path):
        v = module_f_divided(v, i, r)
    return v
