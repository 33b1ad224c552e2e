"""The q-wedge module of height p: straightening and Chevalley actions.

Vectors live on the basis of all height-p columns.  An arbitrary wedge
monomial is straightened onto that basis by repeatedly rewriting its
leftmost adjacent pair that violates the column condition:

  * equal letters (except 0 in type B) annihilate the monomial;
  * a strictly decreasing non-mirror pair swaps with a factor -q^2 (B)
    or -q (D);
  * a mirror pair (-i, i) expands into the full middle sum, ending in the
    (0, 0) term for B or the two n/-n orderings for D.

The f_i action on a basis vector is a closed-form table keyed on the subword
of letters node i can touch; for the last node of D the action is conjugated
by the involution swapping n and -n.  An independent oracle recomputes the
action by lifting the column to its tensor monomial, applying the coproduct
rule factor by factor, and straightening; wedge_f must agree with it exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .crystal import vec_edge, word_apply, word_eps_phi
from .laurent import LaurentPoly, SparseVector, divide_exact, quantum_int
from .rootdata import AlgebraKind, InvariantViolation, Letter, cartan_exponent, letter_weight2, qi_exponent
from .shapes import Column, _key_tie, first_violation


class StepLimitExceeded(RuntimeError):
    """The straightening fuel ran out; indicates a rewriting bug."""


STEP_FACTOR = 10


def step_limit(p: int) -> int:
    return max(STEP_FACTOR * p * p, 16)


# -- straightening ------------------------------------------------------------


def _rewrite_pair(kind: AlgebraKind, a: Letter, b: Letter) -> list[tuple[tuple[Letter, Letter], LaurentPoly]]:
    """Straightening relation for one bad adjacent pair, as pair -> coefficient."""
    n = kind.rank
    if a == b:
        return []  # x ^ x = 0 (a (0,0) pair is never a violation in type B)
    if kind.family == "B":
        if a == -b and b > 0:
            i = b
            out = [((i, -i), LaurentPoly.q(4, -1))]
            one_minus_q4 = LaurentPoly([(0, 1), (4, -1)])
            for k in range(1, n - i + 1):
                sign = -1 if k % 2 else 1
                out.append(((i + k, -(i + k)), one_minus_q4 * LaurentPoly.q(2 * k, sign)))
            sign = -1 if (n - i + 1) % 2 else 1
            out.append(((0, 0), LaurentPoly.q(2 * (n - i) + 1, sign)))
            return out
        return [((b, a), LaurentPoly.q(2, -1))]
    if a == -b and 0 < b < n:
        i = b
        out = [((i, -i), LaurentPoly.q(2, -1))]
        one_minus_q2 = LaurentPoly([(0, 1), (2, -1)])
        for k in range(1, n - i):
            sign = -1 if k % 2 else 1
            out.append(((i + k, -(i + k)), one_minus_q2 * LaurentPoly.q(k, sign)))
        sign = -1 if (n - i) % 2 else 1
        coeff = LaurentPoly.q(n - i, sign)
        out.append(((n, -n), coeff))
        out.append(((-n, n), coeff))
        return out
    return [((b, a), LaurentPoly.q(1, -1))]


@lru_cache(maxsize=None)
def _straighten_cached(kind: AlgebraKind, letters: tuple[Letter, ...]) -> SparseVector:
    limit = step_limit(len(letters))
    acc: dict[Column, LaurentPoly] = {}
    work: list[tuple[tuple[Letter, ...], LaurentPoly, int]] = [(letters, LaurentPoly.one(), 0)]
    while work:
        mono, coeff, depth = work.pop()
        j = first_violation(kind, mono)
        if j is None:
            col = Column(kind, mono)
            acc[col] = acc.get(col, LaurentPoly.zero()) + coeff
            continue
        if depth >= limit:
            raise StepLimitExceeded(f"straightening {letters} exceeded {limit} rewrites")
        for (x, y), c in _rewrite_pair(kind, mono[j], mono[j + 1]):
            work.append((mono[:j] + (x, y) + mono[j + 2 :], coeff * c, depth + 1))
    return SparseVector(acc)


def straighten(kind: AlgebraKind, letters: tuple[Letter, ...]) -> SparseVector:
    """Expand an arbitrary wedge monomial on the column basis."""
    return _straighten_cached(kind, tuple(letters))


# -- closed-form Chevalley action ---------------------------------------------


def _wi_letters(kind: AlgebraKind, i: int) -> tuple[Letter, ...]:
    n = kind.rank
    if kind.family == "B":
        if i < n:
            return (i, i + 1, -(i + 1), -i)
        return (n, 0, -n)
    if i < n - 1:
        return (i, i + 1, -(i + 1), -i)
    return (n - 1, n, -n, -(n - 1))


def _split_wi(col: Column, i: int) -> tuple[list[int], tuple[Letter, ...]]:
    sel = set(_wi_letters(col.kind, i))
    pos = [j for j, x in enumerate(col.letters) if x in sel]
    return pos, tuple(col.letters[j] for j in pos)


def _substitute(col: Column, i: int, new_wi: tuple[Letter, ...]) -> Column:
    """Replace the w_i subword of a column, keeping the other letters."""
    kind = col.kind
    n = kind.rank
    pos, _ = _split_wi(col, i)
    posset = set(pos)
    if (kind.family == "B" and i == n) or (kind.family == "D" and i in (n - 1, n)):
        # touched letters are contiguous here; splice the new word in place
        first = pos[0] if pos else len(col.letters)
        head = col.letters[:first]
        tail = tuple(x for j, x in enumerate(col.letters) if j >= first and j not in posset)
        letters = head + tuple(new_wi) + tail
    else:
        merged = [x for j, x in enumerate(col.letters) if j not in posset] + list(new_wi)
        merged.sort(key=lambda x: _key_tie(x, n, kind.family))
        letters = tuple(merged)
    try:
        return Column(kind, letters)
    except ValueError as exc:
        raise InvariantViolation(f"substitution produced an invalid column {letters}") from exc


def _crystal_image(col: Column, i: int) -> Column:
    moved = word_apply(col.word(), i, "f")
    if moved is None:
        raise InvariantViolation("phi said a lowering was possible")
    return Column(col.kind, moved.letters)


def _table_generic(col: Column, i: int) -> list[tuple[Column, LaurentPoly]]:
    """f_i on a column, for the chain nodes shared by types B and D."""
    d = qi_exponent(col.kind, i)
    _, wi = _split_wi(col, i)
    ip1, bi, bip1 = i + 1, -i, -(i + 1)
    if wi == (ip1, bip1):
        return [(_substitute(col, i, (ip1, bi)), LaurentPoly.q(-d))]
    if wi == (i, bi):
        return [(_substitute(col, i, (ip1, bi)), LaurentPoly.one())]
    if wi == (i, bip1):
        return [
            (_substitute(col, i, (ip1, bip1)), LaurentPoly.one()),
            (_substitute(col, i, (i, bi)), LaurentPoly.q(d)),
        ]
    _, phi = word_eps_phi(col.word(), i)
    if phi == 1:
        return [(_crystal_image(col, i), LaurentPoly.one())]
    return []


def _table_B_last(col: Column) -> list[tuple[Column, LaurentPoly]]:
    """f_n on a type-B column; keyed on the subword over {n, 0, -n}."""
    n = col.kind.rank
    _, wn = _split_wi(col, n)
    if wn and all(x == 0 for x in wn):
        r = len(wn)
        sign = -1 if r % 2 else 1
        coeff = LaurentPoly([(-1, 1), (2 * r - 1, -sign)])  # (1 - (-q^2)^r) / q
        return [(_substitute(col, n, (0,) * (r - 1) + (-n,)), coeff)]
    if len(wn) >= 2 and wn[0] == n and all(x == 0 for x in wn[1:]):
        r = len(wn) - 1
        sign = -1 if r % 2 else 1
        coeff = LaurentPoly([(1, 1), (2 * r + 1, -sign)])  # q (1 - (-q^2)^r)
        return [
            (_substitute(col, n, (0,) * (r + 1)), LaurentPoly.one()),
            (_substitute(col, n, (n,) + (0,) * (r - 1) + (-n,)), coeff),
        ]
    if wn == (n,):
        return [(_substitute(col, n, (0,)), LaurentPoly.one())]
    if len(wn) >= 2 and wn[0] == n and wn[-1] == -n and all(x == 0 for x in wn[1:-1]):
        r = len(wn) - 2
        return [(_substitute(col, n, (0,) * (r + 1) + (-n,)), LaurentPoly.one())]
    return []


def _alt_word(first: Letter, length: int) -> tuple[Letter, ...]:
    return tuple(first if j % 2 == 0 else -first for j in range(length))


def _table_D_subtop(col: Column) -> list[tuple[Column, LaurentPoly]]:
    """f_{n-1} on a type-D column; keyed on the subword over {n-1, n, -n, -(n-1)}.

    The subword is a possible n-1, then an alternating n / -n block, then a
    possible -(n-1).  Every acting pattern is listed explicitly (the blocks
    starting with n and the patterns containing -(n-1) act too; all rows are
    checked against the tensor-lift oracle).
    """
    kind = col.kind
    n = kind.rank
    m = n - 1
    _, w = _split_wi(col, m)
    has_m = bool(w) and w[0] == m
    has_mb = bool(w) and w[-1] == -m
    block = w[(1 if has_m else 0) : len(w) - (1 if has_mb else 0)]
    ln = len(block)
    if block and block != _alt_word(block[0], ln):
        raise InvariantViolation(f"block {block} of {col} does not alternate")
    starts_nbar = bool(block) and block[0] == -n
    one = LaurentPoly.one()

    if block and ln % 2 == 0:
        r = ln // 2
        if starts_nbar:
            if not has_m and not has_mb:  # (-n n)^r
                return [(_substitute(col, m, (n,) + _alt_word(-n, ln - 2) + (-m,)), LaurentPoly.q(2 * r - 1, -1))]
            if has_m and not has_mb:  # (n-1)(-n n)^r
                return [
                    (_substitute(col, m, (n,) + _alt_word(-n, ln)), one),
                    (_substitute(col, m, (m, n) + _alt_word(-n, ln - 2) + (-m,)), LaurentPoly.q(2 * r, -1)),
                ]
            if has_m and has_mb:  # (n-1)(-n n)^r -(n-1)
                return [(_substitute(col, m, (n,) + _alt_word(-n, ln) + (-m,)), one)]
        else:
            if not has_m and not has_mb:  # (n -n)^r
                return [(_substitute(col, m, (n,) + _alt_word(-n, ln - 2) + (-m,)), LaurentPoly.q(-1))]
            if has_m and not has_mb:  # (n-1)(n -n)^r
                return [(_substitute(col, m, (m, n) + _alt_word(-n, ln - 2) + (-m,)), one)]
    if block and ln % 2 == 1 and starts_nbar:
        r = (ln - 1) // 2
        if not has_m and not has_mb and r >= 1:  # (-n n)^r -n
            return [
                (_substitute(col, m, _alt_word(-n, ln - 1) + (-m,)), one),
                (_substitute(col, m, _alt_word(n, ln - 1) + (-m,)), LaurentPoly.q(2 * r)),
            ]
        if has_m and not has_mb:
            if r == 0:  # (n-1) -n
                return [
                    (_substitute(col, m, (n, -n)), one),
                    (_substitute(col, m, (m, -m)), LaurentPoly.q(1)),
                ]
            return [  # (n-1)(-n n)^r -n
                (_substitute(col, m, _alt_word(n, ln + 1)), one),
                (_substitute(col, m, (m,) + _alt_word(-n, ln - 1) + (-m,)), LaurentPoly.q(1)),
                (_substitute(col, m, (m,) + _alt_word(n, ln - 1) + (-m,)), LaurentPoly.q(2 * r + 1)),
            ]
        if has_m and has_mb:  # (n-1)(-n n)^r -n -(n-1)
            return [(_substitute(col, m, _alt_word(n, ln + 1) + (-m,)), one)]
    if not block and has_m and has_mb:  # (n-1) -(n-1)
        return [(_substitute(col, m, (n, -m)), one)]

    _, phi = word_eps_phi(col.word(), m)
    if phi == 1:
        if any(w[j] == -n and w[j + 1] == n for j in range(len(w) - 1)):
            raise InvariantViolation(f"uncovered -n n pair in {col}")
        return [(_crystal_image(col, m), one)]
    return []


def _flip(col: Column) -> Column:
    n = col.kind.rank
    return Column(col.kind, tuple(-x if abs(x) == n else x for x in col.letters))


def wedge_f(col: Column, i: int) -> SparseVector:
    """The Chevalley operator f_i applied to the basis vector of one column."""
    kind = col.kind
    n = kind.rank
    if kind.family == "B":
        rows = _table_B_last(col) if i == n else _table_generic(col, i)
    elif i == n:
        rows = [(_flip(c), v) for c, v in _table_D_subtop(_flip(col))]
    elif i == n - 1:
        rows = _table_D_subtop(col)
    else:
        rows = _table_generic(col, i)
    out: dict[Column, LaurentPoly] = {}
    for c, v in rows:
        out[c] = out.get(c, LaurentPoly.zero()) + v
    return SparseVector(out)


def _combine(pairs) -> SparseVector:
    """The sum of vec.scale(s) over (vec, s) pairs, accumulated in one dict."""
    acc: dict[Column, LaurentPoly] = {}
    for vec, s in pairs:
        for c, v in vec.terms:
            cur = acc.get(c)
            acc[c] = v * s if cur is None else cur + v * s
    return SparseVector(acc)


@lru_cache(maxsize=None)
def _divided_on_column(col: Column, i: int, k: int) -> SparseVector:
    """f_i^(k) on one column: f_i of the cached f_i^(k-1), divided by [k]_i."""
    if k == 0:
        return SparseVector.unit(col)
    qk = quantum_int(k, qi_exponent(col.kind, i))  # a ValueError for k < 0, before any recursion
    v = _combine((wedge_f(c, i), s) for c, s in _divided_on_column(col, i, k - 1).terms)
    if k == 1 or v.is_zero():
        return v
    return SparseVector({c: divide_exact(p, qk) for c, p in v.terms})


def wedge_f_divided(v: SparseVector | Column, i: int, k: int) -> SparseVector:
    """The divided power f_i^(k) = f_i^k / [k]!, exactly."""
    if isinstance(v, Column):
        return _divided_on_column(v, i, k)
    return _combine((_divided_on_column(c, i, k), s) for c, s in v.terms)


# -- tensor-lift oracle ---------------------------------------------------------


def _vector_rep_f(kind: AlgebraKind, x: Letter, i: int) -> list[tuple[Letter, LaurentPoly]]:
    n = kind.rank
    if kind.family == "B" and i == n:
        if x == n:
            return [(0, LaurentPoly.one())]
        if x == 0:
            return [(-n, LaurentPoly([(1, 1), (-1, 1)]))]
        return []
    y = vec_edge(x, i, "f", kind)
    return [(y, LaurentPoly.one())] if y is not None else []


def tensor_lift_f(col: Column, i: int) -> SparseVector:
    """Oracle for wedge_f: coproduct action on the tensor lift, then straighten."""
    kind = col.kind
    d = qi_exponent(kind, i)
    letters = col.letters
    pairs = []
    t_prefix = LaurentPoly.one()
    for j, x in enumerate(letters):
        for y, c in _vector_rep_f(kind, x, i):
            mono = letters[:j] + (y,) + letters[j + 1 :]
            pairs.append((straighten(kind, mono), t_prefix * c))
        a = cartan_exponent(letter_weight2(x, kind.rank), i, kind)
        t_prefix = t_prefix * LaurentPoly.q(d * a)
    return _combine(pairs)
