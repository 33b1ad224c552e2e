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

The algebra runs on a ``CodedVector``: each tabloid's small integer factor
codes (``Tabloid.codes``) with its coefficient's ascending
((exponent, coefficient), ...) terms.  ``_expand_divided`` unrolls the
recursion on one tabloid left to right; a partial term holds the codes
chosen so far, the part of m still to place and a plain
{exponent: coefficient} map, and is dropped as soon as the factors still to
come cannot absorb the rest of m.  ``module_f_divided`` keeps each
tabloid's expansion in a memo, keyed by (i, m) and then by its codes, so a
tabloid met again in the same request is not expanded again.  The memo's
codes, and so every output's, are those of the shape's one tabloid for
them, and its term tuples the shape's one tuple per value (the ``terms``
table of ``shapes.shape_tables``); so on coded vectors a tabloid is looked
up only on a memo miss.  A ``SparseVector`` argument is coded on entry and
decoded on exit.
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


def _coded(v: SparseVector) -> CodedVector:
    shape = next(iter(v.terms))[0].shape
    return CodedVector(shape, {t.codes: c.terms() for t, c in v.terms}, {})


def _decoded(v: CodedVector) -> SparseVector:
    return SparseVector({tabloid_of_codes(v.shape, codes): LaurentPoly(terms) for codes, terms in v.terms.items()})


def terms_of(poly: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The non-zero terms of an {exponent: coefficient} map, ascending."""
    return tuple(sorted(p for p in poly.items() if p[1]))


def _expansion(shape: Shape, codes: tuple[int, ...], i: int, m: int) -> tuple:
    """f_i^(m) on one tabloid as a flat (codes, terms, ...) tuple, each codes the
    tuple of the shape's tabloid for them and each terms the shape's one tuple
    for its value."""
    tables = shape_tables(shape)
    flat: list = []
    for out, poly in _expand_divided(_heads(shape, codes, i), m, qi_exponent(shape.kind, i)):
        if terms := terms_of(poly):
            tab = tables.tabloids.get(out) or tabloid_of_codes(shape, out)
            flat += (tab.codes, tables.terms.setdefault(terms, terms))
    return tuple(flat)


def module_f_divided(v: CodedVector | SparseVector, i: int, m: int) -> CodedVector | SparseVector:
    """Apply the divided power f_i^(m) to a vector on the tabloid basis."""
    if m == 0 or not v.terms:
        return v
    sparse = isinstance(v, SparseVector)
    if sparse:
        v = _coded(v)
    shape = v.shape
    expansions = v.memo.setdefault((i, m), {})
    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for codes, terms in v.terms.items():
        flat = expansions.get(codes)
        if flat is None:
            flat = expansions[codes] = _expansion(shape, codes, i, m)
        pairs = iter(flat)
        for out, poly in zip(pairs, pairs):
            cur = acc.get(out)
            if cur is None:
                cur = acc[out] = {}
            for pe, pc in poly:
                for ce, cc in terms:
                    x = pe + ce
                    cur[x] = cur.get(x, 0) + pc * cc
    interned = shape_tables(shape).terms
    coded = {}
    for out, poly in acc.items():
        if terms := terms_of(poly):
            coded[out] = interned.setdefault(terms, terms)
    w = CodedVector(shape, coded, v.memo)
    return _decoded(w) if sparse else w


def apply_monomial(v0: CodedVector | SparseVector, path: list[tuple[int, int]]) -> CodedVector | SparseVector:
    """Apply a monomial of divided powers, rightmost factor first."""
    if not path or not v0.terms:
        return v0
    sparse = isinstance(v0, SparseVector)
    v = _coded(v0) if sparse else v0
    for i, r in reversed(path):
        v = module_f_divided(v, i, r)
    return _decoded(v) if sparse else v
