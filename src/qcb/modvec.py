"""Vectors in the tensor module on the tabloid basis, with divided powers.

A tabloid's vector is the tensor product of its factors in reading order
(``shapes.tabloid_factors``).  A divided power f_i^(m) is pushed through
that product with the quantum binomial recursion

    f^(m)(u (x) v) = sum_k q_i^{(m-k)(a-k)} f^(k)(u) (x) f^(m-k)(v)

where q_i^a is the t_i-eigenvalue of the head factor u.  ``_factor_powers``
computes that exponent and the factor's non-zero divided powers: the
closed-form wedge action on a column, the coefficient-free crystal edge on a
spin column (f^(k) = 0 there for k >= 2).  ``SlotTable.powers`` keeps them,
with their outputs coded, by node and filling code, each filled on first use.

The algebra runs on a ``CodedVector``: each tabloid's small integer factor
codes (``Tabloid.codes``) with its coefficient's ascending
((exponent, coefficient), ...) terms.  ``_expand_divided`` unrolls the
recursion on one tabloid: only the active factors, where f_i does not
vanish, branch; an inactive factor just shifts the exponents of the
branches after it by its t_i exponent; and coefficients stay term tuples,
multiplied by ``laurent.times`` with its fast path for single terms.  No
output of one tabloid needs merging, so only ``module_f_divided``, which
sums the outputs of several tabloids, adds term tuples (``laurent.plus``).
It reads node i's tables from ``ShapeTables.powers``, and keeps each
tabloid's expansion in a memo, keyed by (i, m) and then by its codes, so a
tabloid met again in the same request is not expanded again.  The memo's
codes, and so every output's, are those of the shape's one tabloid for
them, and its term tuples the shape's one tuple per value (the ``terms``
table of ``shapes.shape_tables``); so on coded vectors a tabloid is looked
up only on a memo miss.  ``CodedVector.unit`` is the one way in and
``decoded`` the one way out, to a ``SparseVector`` on tabloids.
"""

from __future__ import annotations

from .crystal import SpinColumn, spin_apply
from .laurent import ONE_TERMS, LaurentPoly, SparseVector, plus, times
from .rootdata import AlgebraKind, cartan_exponent, qi_exponent
from .shapes import Shape, SlotTable, Tabloid, highest_tabloid, shape_for_lambda, shape_tables, tabloid_of_codes
from .wedge import wedge_f_divided


def highest_vector(lam: tuple[int, ...], kind: AlgebraKind) -> CodedVector:
    return CodedVector.unit(highest_tabloid(shape_for_lambda(lam, kind)))


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


def _heads(tables: list[tuple[SlotTable, list]], codes: tuple[int, ...], i: int) -> list[tuple[int, tuple]]:
    """Each factor's t_i exponent and non-zero f_i^(k), as (code, terms) pairs,
    read from the (slot, ``slot.powers[i]``) pairs of its shape's slots; a code
    not asked for before is filled from ``_factor_powers``."""
    out = []
    for (slot, table), c in zip(tables, codes):
        h = table[c]
        if h is None:
            a, powers = _factor_powers(slot.fillings[c], i)
            h = table[c] = (a, tuple(tuple((slot.index[g], cg.terms()) for g, cg in p) for p in powers))
        out.append(h)
    return out


def _expand_divided(codes: tuple[int, ...], heads: list[tuple[int, tuple]], m: int, d: int) -> list[tuple[tuple, tuple]]:
    """f_i^(m) on the pure tensor with these codes, from its factors' ``_heads``:
    (codes, terms) pairs, each terms a non-zero ascending term tuple.

    Unrolled, the recursion gives the term that takes k_l from each factor l
    the exponent d * sum_l k_l (a_1 + ... + a_(l-1) - k_1 - ... - k_(l-1)).
    So only the active factors, those with f_i^(1) non-zero, branch; an
    inactive one just adds its a_l to the exponents of the factors after it.
    The active factors are taken left to right, and a partial term that the
    ones still to come cannot lower by the rest of m is dropped at once.
    Distinct choices give distinct codes, and products of non-zero
    coefficients are non-zero, so no output is merged or filtered.
    """
    active = []  # (position, sum of the a_l before it, non-zero powers)
    before = 0
    for j, (a, powers) in enumerate(heads):
        if len(powers) > 1:
            active.append((j, before, powers))
        before += a
    if m == 1:  # one output per active factor's f_i, in the order of the loop below
        return [
            (codes[:j] + (g,) + codes[j + 1 :], times(cg, ((d * before, 1),)) if before else cg)
            for j, before, powers in reversed(active)
            for g, cg in powers[1]
        ]
    room = sum(len(powers) - 1 for _j, _b, powers in active)  # the most the active factors to come absorb
    if m > room:
        return []
    states = [(0, 0, codes, ONE_TERMS)]  # (placed, exponent / d, codes, terms)
    for j, before, powers in active:
        room -= len(powers) - 1
        nxt = []
        for state in states:
            placed, e, out, terms = state
            left = m - placed
            for k in range(max(0, left - room), min(left, len(powers) - 1) + 1):
                if k == 0:
                    nxt.append(state)
                    continue
                ek = e + k * (before - placed)
                for g, cg in powers[k]:
                    nxt.append((placed + k, ek, out[:j] + (g,) + out[j + 1 :], times(terms, cg)))
        states = nxt
    return [(out, times(terms, ((d * e, 1),)) if e else terms) for _p, e, out, terms in states]


class CodedVector:
    """A vector on one shape's tabloid basis: {codes: terms}, each terms an
    ascending ((exponent, coefficient), ...) tuple with no zero coefficient.

    ``memo`` holds the single-tabloid expansions made so far, by (i, m) and
    then by codes, each a flat (codes, terms, ...) tuple; the vectors of one
    request share it, and it goes with them.
    """

    __slots__ = ("shape", "terms", "memo")

    def __init__(self, shape: Shape, terms: dict, memo: dict):
        self.shape, self.terms, self.memo = shape, terms, memo

    @classmethod
    def unit(cls, t: Tabloid) -> CodedVector:
        """A tabloid's basis vector, with a fresh memo."""
        return cls(t.shape, {t.codes: ONE_TERMS}, {})


def decoded(v: CodedVector) -> SparseVector:
    """The vector as a ``SparseVector`` on the shape's tabloids."""
    return SparseVector({tabloid_of_codes(v.shape, codes): LaurentPoly(terms) for codes, terms in v.terms.items()})


def module_f_divided(v: CodedVector, i: int, m: int) -> CodedVector:
    """Apply the divided power f_i^(m) to a vector on the tabloid basis.

    A negative m, or a node outside 1..n, raises ValueError.
    """
    if m < 0:
        raise ValueError(f"divided power f_{i}^({m}) needs m >= 0")
    shape = v.shape
    d = qi_exponent(shape.kind, i)
    if m == 0:
        return v
    expansions = v.memo.setdefault((i, m), {})
    tables = shape_tables(shape)
    interned, powers = tables.terms, tables.powers[i]
    acc: dict[tuple[int, ...], tuple] = {}
    for codes, terms in v.terms.items():
        flat = expansions.get(codes)
        if flat is None:
            flat = []
            for out, poly in _expand_divided(codes, _heads(powers, codes, i), m, d):
                flat += (tables.tabloid(out).codes, interned.setdefault(poly, poly))
            flat = expansions[codes] = tuple(flat)
        pairs = iter(flat)
        for out, poly in zip(pairs, pairs):
            if terms is not ONE_TERMS:
                poly = times(poly, terms)
            cur = acc.get(out)
            acc[out] = poly if cur is None else plus(cur, poly)
    summed = {out: interned.setdefault(poly, poly) for out, poly in acc.items() if poly}
    return CodedVector(shape, summed, v.memo)


def apply_monomial(v: CodedVector, path: list[tuple[int, int]]) -> CodedVector:
    """Apply a monomial of divided powers, rightmost factor first."""
    for i, r in reversed(path):
        v = module_f_divided(v, i, r)
    return v
