"""The three-stage canonical basis computation.

Stage one walks an admissible column up to its highest-weight vertex by
raising the leftmost movable letter, recording the divided powers whose
product rebuilds the column's global basis vector (Marsh's algorithm).
Stage two extends the walk to a whole orthogonal tableau, producing the
bar-invariant monomial vector A(T).  Stage three corrects A(T) down the
total order with bar-symmetric coefficients until the expansion is regular
at q=0, which pins the canonical basis G(T); the corrections are logged and
the expansions assembled into one matrix per weight space.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .crystal import Word, raise_to_highest, spin_apply, spin_eps_phi, vec_edge, word_apply, word_eps_phi
from .laurent import LaurentPoly, SparseVector
from .modvec import apply_monomial
from .rootdata import AlgebraKind, Weight2
from .shapes import (
    Column,
    Tabloid,
    enumerate_tableaux,
    enumerate_tabloids,
    highest_tabloid,
    is_admissible,
    is_orthogonal_tableau,
    shape_for_lambda,
    tabloid_reading,
    tabloid_sort_key,
    weight2_of_tabloid,
)
from .wedge import wedge_f, wedge_f_divided


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


def _alt(first: int, length: int) -> tuple[int, ...]:
    return tuple(first if j % 2 == 0 else -first for j in range(length))


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
        raise AssertionError("movable letter with no raising edge")
    m = n - 1
    sel = {m, n, -n, -m}
    w = tuple(x for x in letters if x in sel)
    if z == -m:
        return m
    if z == -n:
        if len(w) >= 3 and len(w) % 2 == 1 and w == _alt(-n, len(w) - 1) + (-m,):
            return m  # (-n n)^r followed by -(n-1)
        return n
    if z == n:
        if len(w) >= 3 and len(w) % 2 == 1 and w == _alt(n, len(w) - 1) + (-m,):
            return n  # (n -n)^r followed by -(n-1)
        return m
    for i in range(1, n + 1):
        if vec_edge(z, i, "e", kind) is not None:
            return i
    raise AssertionError("movable letter with no raising edge")


def _column_highest_target(col: Column) -> tuple[int, ...]:
    kind = col.kind
    p = col.height
    hw, _ = raise_to_highest(col.word())
    if hw.letters == tuple(range(1, p + 1)):
        return hw.letters
    if kind.family == "D" and p == kind.rank and hw.letters == tuple(range(1, p)) + (-p,):
        return hw.letters
    raise NotAdmissible(str(col))


def marsh_path(col: Column) -> list[tuple[int, int]]:
    """Raising steps (i, p) from the column to its highest vertex.

    The list reads like the divided-power monomial it encodes: the first
    entry is discovered first and applied last when lowering.
    """
    if not is_admissible(col):
        raise NotAdmissible(str(col))
    target = _column_highest_target(col)
    cur = col
    steps: list[tuple[int, int]] = []
    while cur.letters != target:
        i = _marsh_color(cur)
        eps, _ = word_eps_phi(cur.word(), i)
        assert eps in (1, 2), f"raising multiplicity {eps} out of range"
        w: Word | None = cur.word()
        for _ in range(eps):
            w = word_apply(w, i, "e")
            assert w is not None
        cur = Column(col.kind, w.letters)
        steps.append((i, eps))
        if len(steps) > MAX_RAISING_STEPS:
            raise IterationLimit(f"marsh walk from {col} did not terminate")
    return steps


def global_column(col: Column) -> SparseVector:
    """The canonical basis vector of an admissible column, on the column basis."""
    path = marsh_path(col)
    base = Column(col.kind, _column_highest_target(col))
    v = SparseVector.unit(base)
    for i, p in reversed(path):
        v = wedge_f_divided(v, i, p)
    return v


def _word_is_highest(w: Word) -> bool:
    return all(word_eps_phi(w, i)[0] == 0 for i in range(1, w.kind.rank + 1))


def _spin_step(cur: Tabloid) -> tuple[int, Tabloid]:
    """Raise the spin column alone, by the smallest color that stays in the crystal."""
    for j in range(1, cur.shape.kind.rank + 1):
        g2 = spin_apply(cur.spin, j, "e")
        if g2 is None:
            continue
        cand = Tabloid(cur.shape, g2, cur.columns)
        if is_orthogonal_tableau(cand):
            return j, cand
    raise AssertionError(f"no spin raise leaves {cur} in the crystal")


def a_path(tab: Tabloid) -> APath:
    """The raising walk from an orthogonal tableau to the highest tableau."""
    if not is_orthogonal_tableau(tab):
        raise NotOrthogonalTableau(str(tab))
    shape = tab.shape
    kind = shape.kind
    top = highest_tabloid(shape)
    steps: list[tuple[int, int]] = []
    inters: list[Tabloid] = []
    cur = tab
    guard = 0
    while cur != top:
        guard += 1
        if guard > MAX_RAISING_STEPS:
            raise IterationLimit(f"raising walk from {tab} did not terminate")
        cols = cur.columns
        if cur.spin is not None and _word_is_highest(Word(kind, tabloid_reading(cur).letters)):
            if len(enumerate_tabloids(shape, weight2_of_tabloid(cur))) == 1:
                # alone in its weight space: the tabloid vector is already
                # the canonical one and the walk may stop here
                return APath(tuple(steps), True, cur, tuple(inters))
            j, cur = _spin_step(cur)
            steps.append((j, 1))
            inters.append(cur)
            continue
        not_highest = [j for j, c in enumerate(cols) if not _word_is_highest(c.word())]
        k = max(not_highest)
        colk = cols[k]
        i1 = _marsh_color(colk)
        if cur.spin is not None and spin_apply(cur.spin, i1, "f") is not None:
            # the spin column blocks this node (its t-eigenvalue spoils the
            # unit coefficient); raise the spin itself instead
            j, cur = _spin_step(cur)
            steps.append((j, 1))
            inters.append(cur)
            continue
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
            assert low is not None, "no admissible left end for the raising block"
        new_cols = list(cols)
        r = 0
        for j in range(low, k + 1):
            eps, _ = word_eps_phi(cols[j].word(), i1)
            r += eps
            w: Word | None = cols[j].word()
            for _ in range(eps):
                w = word_apply(w, i1, "e")
                assert w is not None
            new_cols[j] = Column(kind, w.letters)
        new_spin = cur.spin
        if cur.spin is not None and spin_eps_phi(cur.spin, i1)[0] == 1:
            # the spin column sits leftmost in the tensor order; when it can
            # absorb a raising step it must, or the replayed divided power
            # picks up a stray power of q_i on the target tabloid
            new_spin = spin_apply(cur.spin, i1, "e")
            r += 1
        nxt = Tabloid(shape, new_spin, tuple(new_cols))
        assert is_orthogonal_tableau(nxt), f"raising left the crystal at {nxt}"
        steps.append((i1, r))
        inters.append(nxt)
        cur = nxt
    return APath(tuple(steps), False, top, tuple(inters))


def a_vector(tab: Tabloid) -> SparseVector:
    """The bar-invariant monomial vector attached to an orthogonal tableau."""
    path = a_path(tab)
    return apply_monomial(SparseVector.unit(path.base), list(path.steps))


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
            assert rest.is_zero() or rest.min_exp() >= 1, "correction left a bad coefficient"
            log.append((idx, j, gamma))
        assert v.coeff(tableaux[idx]) == LaurentPoly.one(), "diagonal is not 1"
        out.append(v)
    return out, log


def _group_worker(item: tuple[Weight2, list[Tabloid]]):
    _mu, tabs = item
    vectors = [a_vector(t) for t in tabs]
    return _correct_group(vectors, tabs)


def canonical_matrix(
    lam: tuple[int, ...],
    kind: AlgebraKind,
    weight2: Weight2 | None = None,
    jobs: int = 1,
) -> CanonicalMatrix:
    """Expand the canonical basis (one weight space when weight2 is given)."""
    shape = shape_for_lambda(lam, kind)
    tableaux = enumerate_tableaux(lam, kind, weight2=weight2)
    if not tableaux:
        return CanonicalMatrix(kind, tuple(lam), weight2, (), (), {}, ())
    groups: dict[Weight2, list[Tabloid]] = {}
    for t in tableaux:
        groups.setdefault(weight2_of_tabloid(t), []).append(t)
    group_items = sorted(groups.items())
    # the fork start method starts every worker at once, so never ask for
    # more than there are cores or weight spaces
    workers = min(jobs, os.cpu_count() or 1, len(group_items))
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_group_worker, group_items))
    else:
        results = [_group_worker(item) for item in group_items]

    col_index = {t: i for i, t in enumerate(tableaux)}
    if weight2 is not None:
        rows = tuple(enumerate_tabloids(shape, weight2))
    else:
        seen: set[Tabloid] = set()
        for mu, _tabs in group_items:
            seen.update(enumerate_tabloids(shape, mu))
        rows = tuple(sorted(seen, key=tabloid_sort_key))
    row_index = {t: i for i, t in enumerate(rows)}

    entries: dict[tuple[int, int], LaurentPoly] = {}
    gamma: list[tuple[int, int, LaurentPoly]] = []
    for (mu, tabs), (vecs, log) in zip(group_items, results):
        for t, v in zip(tabs, vecs):
            ci = col_index[t]
            for tau, coeff in v.terms:
                assert coeff.min_exp() >= 0, "entry escaped Z[q]"
                assert weight2_of_tabloid(tau) == mu, "entry escaped the weight space"
                assert tabloid_sort_key(tau) <= tabloid_sort_key(t), "entry above the diagonal"
                entries[(row_index[tau], ci)] = coeff
        for idx, j, g in log:
            gamma.append((col_index[tabs[idx]], col_index[tabs[j]], g))
    gamma.sort()
    return CanonicalMatrix(kind, tuple(lam), weight2, rows, tuple(tableaux), entries, tuple(gamma))
