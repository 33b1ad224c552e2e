"""The three-stage canonical basis computation.

Stage one walks an admissible column up to its highest-weight vertex by
raising the leftmost movable letter, recording the divided powers whose
product rebuilds the column's global basis vector (Marsh's algorithm).
Stage two extends the walk to a whole orthogonal tableau, producing the
bar-invariant monomial vector A(T); each step lands on a tableau whose own
walk is the rest, so A(T) = f_i^(r) A(next(T)) costs one divided power,
and each shape keeps the A(T) built so far for every later request.
Stage three corrects A(T) down the total order with bar-symmetric
coefficients until the expansion is regular at q=0, which pins the
canonical basis G(T); the corrections are logged and the expansions
assembled into one matrix per weight space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .crystal import Word, raise_to_highest, spin_apply, spin_eps_phi, vec_edge, word_apply, word_eps_phi
from .laurent import LaurentPoly, SparseVector, _vector
from .modvec import apply_monomial
from .rootdata import AlgebraKind, InvariantViolation, Weight2
from .shapes import (
    Column,
    Tabloid,
    enumerate_tableaux,
    enumerate_tabloids,
    highest_tabloid,
    is_admissible,
    is_orthogonal_tableau,
    orthogonal_tableaux,
    shape_for_lambda,
    shape_tables,
    tabloid_of_columns,
    tabloid_reading,
    tabloid_weight_counts,
    weight2_of_tabloid,
)
from .wedge import _alt_word, wedge_f, wedge_f_divided


class NotAdmissible(ValueError):
    """The column's reading is not a vertex of a fundamental crystal."""


class NotOrthogonalTableau(ValueError):
    """The tabloid's reading does not lie in the target crystal."""


class IterationLimit(RuntimeError):
    """The raising loop failed to make progress; indicates a bug."""


MAX_RAISING_STEPS = 100_000


@dataclass(frozen=True)
class APath:
    """The monomial recipe for A(T): steps in composition order.

    ``steps[0]`` is the outermost divided power (applied last), matching the
    order the raising walk discovers them.  ``base`` is the tabloid whose
    unit vector the monomial is applied to: the highest tableau normally, or
    the spin early-exit tableau when ``direct`` is set (its vector already
    is the canonical one, by weight-space uniqueness).
    """

    steps: tuple[tuple[int, int], ...]
    direct: bool
    base: Tabloid
    intermediates: tuple[Tabloid, ...]


def _marsh_color(col: Column) -> int:
    """The node index the leftmost movable letter of the column selects."""
    kind = col.kind
    n = kind.rank
    letters = col.letters
    z = None
    for x in letters:
        for i in range(1, n + 1):
            y = vec_edge(x, i, "e", kind)
            if y is not None and y not in letters:
                z = x
                break
        if z is not None:
            break
    if z is None:
        raise NotAdmissible(f"no movable letter in {col}")
    if kind.family == "B":
        for i in range(1, n + 1):
            if vec_edge(z, i, "e", kind) is not None:
                return i
        raise InvariantViolation(f"movable letter {z} of {col} has no raising edge")
    m = n - 1
    sel = {m, n, -n, -m}
    w = tuple(x for x in letters if x in sel)
    if z == -m:
        return m
    if z == -n:
        if len(w) >= 3 and len(w) % 2 == 1 and w == _alt_word(-n, len(w) - 1) + (-m,):
            return m  # (-n n)^r followed by -(n-1)
        return n
    if z == n:
        if len(w) >= 3 and len(w) % 2 == 1 and w == _alt_word(n, len(w) - 1) + (-m,):
            return n  # (n -n)^r followed by -(n-1)
        return m
    for i in range(1, n + 1):
        if vec_edge(z, i, "e", kind) is not None:
            return i
    raise InvariantViolation(f"movable letter {z} of {col} has no raising edge")


def _raise_column(col: Column, i: int) -> tuple[int, Column]:
    """eps_i of the column, and the column e_i^eps raises it to."""
    w: Word | None = col.word()
    eps, _ = word_eps_phi(w, i)
    for _ in range(eps):
        w = word_apply(w, i, "e")
        if w is None:
            raise InvariantViolation(f"e_{i} vanished on column {col}")
    return eps, Column(col.kind, w.letters)


def marsh(col: Column) -> tuple[list[tuple[int, int]], SparseVector]:
    """Raising steps (i, p) from an admissible column to its highest vertex, the
    first found first (it is applied last when lowering), and the column's
    canonical basis vector built from them."""
    if not is_admissible(col):
        raise NotAdmissible(f"column {col} is not admissible")
    target = raise_to_highest(col.word())[0].letters
    cur = col
    steps: list[tuple[int, int]] = []
    while cur.letters != target:
        i = _marsh_color(cur)
        eps, nxt = _raise_column(cur, i)
        if eps not in (1, 2):
            raise InvariantViolation(f"raising multiplicity {eps} out of range at {cur}")
        cur = nxt
        steps.append((i, eps))
        if len(steps) > MAX_RAISING_STEPS:
            raise IterationLimit(f"marsh walk from {col} did not terminate")
    v = SparseVector.unit(cur)
    for i, p in reversed(steps):
        v = wedge_f_divided(v, i, p)
    return steps, v


def marsh_path(col: Column) -> list[tuple[int, int]]:
    """The raising steps of ``marsh``."""
    return marsh(col)[0]


def global_column(col: Column) -> SparseVector:
    """The canonical basis vector of an admissible column, on the column basis."""
    return marsh(col)[1]


def _word_is_highest(w: Word) -> bool:
    return all(word_eps_phi(w, i)[0] == 0 for i in range(1, w.kind.rank + 1))


Member = Callable[[Tabloid], bool]


def _spin_step(cur: Tabloid, member: Member) -> tuple[int, int, Tabloid]:
    """Raise the spin column alone, by the smallest color that stays in the crystal."""
    for j in range(1, cur.shape.kind.rank + 1):
        g2 = spin_apply(cur.spin, j, "e")
        if g2 is None:
            continue
        cand = tabloid_of_columns(cur.shape, g2, cur.columns)
        if member(cand):
            return j, 1, cand
    raise InvariantViolation(f"no spin raise leaves {cur} in the crystal")


def _raise_once(cur: Tabloid, member: Member) -> tuple[int, int, Tabloid] | None:
    """One step (i, r, next) of the raising walk, with next = e_i^r cur.

    None means the walk ends at cur: it is the highest tableau, or a spin
    tableau whose weight space holds one tabloid.  ``member`` decides
    whether a tabloid is an orthogonal tableau.
    """
    shape = cur.shape
    if cur == highest_tabloid(shape):
        return None
    kind = shape.kind
    cols = cur.columns
    if cur.spin is not None and _word_is_highest(Word(kind, tabloid_reading(cur).letters)):
        if tabloid_weight_counts(shape)[weight2_of_tabloid(cur)] == 1:
            # alone in its weight space: the tabloid vector is already
            # the canonical one and the walk may stop here
            return None
        return _spin_step(cur, member)
    not_highest = [j for j, c in enumerate(cols) if not _word_is_highest(c.word())]
    k = max(not_highest)
    colk = cols[k]
    i1 = _marsh_color(colk)
    if cur.spin is not None and spin_apply(cur.spin, i1, "f") is not None:
        # the spin column blocks this node (its t-eigenvalue spoils the
        # unit coefficient); raise the spin itself instead
        return _spin_step(cur, member)
    if k == 0:
        low = 0
    elif not wedge_f(colk, i1).is_zero() or word_eps_phi(cols[k - 1].word(), i1)[0] == 0:
        low = k
    else:
        low = None
        for cand in range(0, k):
            if all(wedge_f(cols[j], i1).is_zero() for j in range(cand + 1, k + 1)) and all(
                word_eps_phi(cols[j].word(), i1)[0] > 0 for j in range(cand, k + 1)
            ):
                low = cand
                break
        if low is None:
            raise InvariantViolation(f"no admissible left end for the raising block of {cur}")
    new_cols = list(cols)
    r = 0
    for j in range(low, k + 1):
        eps, new_cols[j] = _raise_column(cols[j], i1)
        r += eps
    new_spin = cur.spin
    if cur.spin is not None and spin_eps_phi(cur.spin, i1)[0] == 1:
        # the spin column sits leftmost in the tensor order; when it can
        # absorb a raising step it must, or the replayed divided power
        # picks up a stray power of q_i on the target tabloid
        new_spin = spin_apply(cur.spin, i1, "e")
        r += 1
    nxt = tabloid_of_columns(shape, new_spin, new_cols)
    if not member(nxt):
        raise InvariantViolation(f"raising left the crystal at {nxt}")
    return i1, r, nxt


def a_path(tab: Tabloid) -> APath:
    """The raising walk from an orthogonal tableau to the highest tableau."""
    if not is_orthogonal_tableau(tab):
        raise NotOrthogonalTableau(f"{tab} is not an orthogonal tableau of its shape")
    steps: list[tuple[int, int]] = []
    inters: list[Tabloid] = []
    cur = tab
    while (step := _raise_once(cur, is_orthogonal_tableau)) is not None:
        if len(steps) >= MAX_RAISING_STEPS:
            raise IterationLimit(f"raising walk from {tab} did not terminate")
        i, r, cur = step
        steps.append((i, r))
        inters.append(cur)
    return APath(tuple(steps), cur != highest_tabloid(tab.shape), cur, tuple(inters))


def a_vector(path: APath) -> SparseVector:
    """The bar-invariant monomial vector A(T) of the tableau the path starts at."""
    return apply_monomial(SparseVector.unit(path.base), list(path.steps))


def _in_component(t: Tabloid) -> bool:
    """Membership by lookup in the shape's cached orthogonal tableaux."""
    return t in orthogonal_tableaux(t.shape)


class _MonomialBuilder:
    """A(T) for a set of tableaux of one shape, each as f_i^(r) A(next(T)).

    ``vectors`` is the shape's A(T) table, shared by every request on the
    shape.  The builder first raises each tableau until its walk meets one
    already in the table, or ends; ``steps`` maps each tableau so walked to
    its step (i, r, next(T)), or to None where the walk ends.  ``vector``
    then builds down those steps and stores every A(T) it makes, so each
    A(T) is built once while the shape stays cached.  (All raising before
    any algebra: on whole-module runs that order is faster than raising and
    building tableau by tableau.)
    """

    def __init__(self, tabs: list[Tabloid]):
        vectors = self.vectors = shape_tables(tabs[0].shape).vectors
        steps: dict[Tabloid, tuple[int, int, Tabloid] | None] = {}
        for t in tabs:
            while t not in vectors and t not in steps:
                step = steps[t] = _raise_once(t, _in_component)
                if step is None:
                    break
                t = step[2]
        self.steps = steps

    def vector(self, tab: Tabloid) -> SparseVector:
        vectors, steps = self.vectors, self.steps
        walked = []  # the tableaux walked whose A(T) is still to build
        t = tab
        while t not in vectors:
            if steps[t] is None:
                vectors[t] = (t, LaurentPoly.one())
                break
            if len(walked) >= MAX_RAISING_STEPS:
                raise IterationLimit(f"raising walk from {tab} did not terminate")
            walked.append(t)
            t = steps[t][2]
        terms = iter(vectors[t])
        v = _vector(dict(zip(terms, terms)))
        for c in reversed(walked):
            i, r, _next = steps[c]
            v = apply_monomial(v, [(i, r)])
            vectors[c] = tuple(chain.from_iterable(v.terms))
        return v


def _gamma_symmetrize(c: LaurentPoly) -> LaurentPoly:
    """Bar-invariant part forced by the non-positive exponents of c."""
    terms: dict[int, int] = {}
    for e, a in c.terms():
        if e <= 0:
            terms[e] = terms.get(e, 0) + a
            if e < 0:
                terms[-e] = terms.get(-e, 0) + a
    return LaurentPoly(terms)


@dataclass(frozen=True)
class CanonicalMatrix:
    """One weight space (or all of them) of a canonical basis expansion."""

    kind: AlgebraKind
    lam: tuple[int, ...]
    weight2: Weight2 | None
    rows: tuple[Tabloid, ...]
    cols: tuple[Tabloid, ...]
    entries: dict[tuple[int, int], LaurentPoly]
    gamma: tuple[tuple[int, int, LaurentPoly], ...]

    def entry(self, r: int, c: int) -> LaurentPoly:
        return self.entries.get((r, c), LaurentPoly.zero())

    def json(self) -> dict:
        return {
            "kind": self.kind.family,
            "rank": self.kind.rank,
            "lambda": list(self.lam),
            "weight2": list(self.weight2) if self.weight2 is not None else None,
            "rows": [str(t) for t in self.rows],
            "cols": [str(t) for t in self.cols],
            "entries": [
                [r, c, self.entries[(r, c)].json_terms()] for (r, c) in sorted(self.entries)
            ],
            "gamma": [[c, j, g.json_terms()] for c, j, g in self.gamma],
        }


def _correct_group(
    vectors: list[SparseVector], tableaux: list[Tabloid]
) -> tuple[list[SparseVector], list[tuple[int, int, LaurentPoly]]]:
    """Unitriangular correction of one weight space, in increasing order."""
    out: list[SparseVector] = []
    log: list[tuple[int, int, LaurentPoly]] = []
    for idx, vec in enumerate(vectors):
        v = vec
        for j in range(idx - 1, -1, -1):
            gamma = _gamma_symmetrize(v.coeff(tableaux[j]))
            if gamma.is_zero():
                continue
            v = v - out[j].scale(gamma)
            rest = v.coeff(tableaux[j])
            if not (rest.is_zero() or rest.min_exp() >= 1):
                raise InvariantViolation(f"correction left {rest} at {tableaux[j]}")
            log.append((idx, j, gamma))
        if v.coeff(tableaux[idx]) != LaurentPoly.one():
            raise InvariantViolation(f"diagonal of {tableaux[idx]} is not 1")
        out.append(v)
    return out, log


def canonical_matrix(
    lam: tuple[int, ...],
    kind: AlgebraKind,
    weight2: Weight2 | None = None,
) -> CanonicalMatrix:
    """Expand the canonical basis (one weight space when weight2 is given)."""
    shape = shape_for_lambda(lam, kind)
    tableaux = enumerate_tableaux(lam, kind, weight2=weight2)
    if not tableaux:
        return CanonicalMatrix(kind, tuple(lam), weight2, (), (), {}, ())
    groups = shape_tables(shape).by_weight if weight2 is None else {weight2: tableaux}
    build = _MonomialBuilder(tableaux)
    results = [_correct_group([build.vector(t) for t in tabs], tabs) for tabs in groups.values()]

    if weight2 is not None:
        rows = tuple(enumerate_tabloids(shape, weight2))
        row_weights = [weight2] * len(rows)
    else:
        # one sorted pass over all tabloids
        kept = [(t, mu) for t in enumerate_tabloids(shape) if (mu := weight2_of_tabloid(t)) in groups]
        rows = tuple(t for t, _mu in kept)
        row_weights = [mu for _t, mu in kept]
    # the rows ascend in the total order, so row indices compare readings
    row_index = {t: i for i, t in enumerate(rows)}
    col_index = {t: i for i, t in enumerate(tableaux)}
    entries: dict[tuple[int, int], LaurentPoly] = {}
    gamma: list[tuple[int, int, LaurentPoly]] = []
    for (mu, tabs), (vecs, log) in zip(groups.items(), results):
        for t, v in zip(tabs, vecs):
            ci, diag = col_index[t], row_index[t]
            for tau, coeff in v.terms:
                r = row_index.get(tau)
                if coeff.min_exp() < 0:
                    raise InvariantViolation(f"entry {coeff} at {tau} in G({t}) escaped Z[q]")
                if r is None or row_weights[r] != mu:
                    raise InvariantViolation(f"G({t}) escaped its weight space at {tau}")
                if r > diag:
                    raise InvariantViolation(f"G({t}) has {tau} above the diagonal")
                entries[(r, ci)] = coeff
        for idx, j, g in log:
            gamma.append((col_index[tabs[idx]], col_index[tabs[j]], g))
    gamma.sort()
    return CanonicalMatrix(kind, tuple(lam), weight2, rows, tuple(tableaux), entries, tuple(gamma))
