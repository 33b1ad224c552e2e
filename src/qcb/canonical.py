"""The three-stage canonical basis computation.

Stage one walks an admissible column up to its highest-weight vertex by
raising the leftmost movable letter, recording the divided powers whose
product rebuilds the column's global basis vector (Marsh's algorithm).
Stage two extends the walk to a whole orthogonal tableau, producing the
bar-invariant monomial vector A(T); each step lands on a tableau whose own
walk is the rest, so A(T) = f_i^(r) A(next(T)) costs one divided power,
and each shape keeps every step and every A(T) made so far for every
later walk and request.  Stage three corrects A(T) down the total order
with bar-symmetric coefficients until the expansion is regular at q=0,
which pins the canonical basis G(T); the corrections are logged and the
expansions assembled, row by row, into one matrix in compressed sparse rows.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Container, ItemsView, Iterator, Mapping, ValuesView
from functools import lru_cache
from itertools import chain, pairwise

from .crystal import Word, raise_to_highest, signature_rule, vec_edge, word_apply, word_eps_phi
from .laurent import ONE_TERMS, LaurentPoly, SparseVector, plus, times
from .modvec import CodedVector, apply_monomial, decoded
from .rootdata import AlgebraKind, InvariantViolation, Value, Weight2
from .shapes import (
    Column,
    ShapeTables,
    Tabloid,
    enumerate_tableaux,
    enumerate_tabloids,
    is_admissible,
    is_orthogonal_tableau,
    shape_for_lambda,
    shape_tables,
    tabloid_of_codes,
)
from .wedge import _alt_word, wedge_f_divided


class NotAdmissible(ValueError):
    """The column's reading is not a vertex of a fundamental crystal."""


class NotOrthogonalTableau(ValueError):
    """The tabloid's reading does not lie in the target crystal."""


class IterationLimit(RuntimeError):
    """The raising loop failed to make progress; indicates a bug."""


MAX_RAISING_STEPS = 100_000


class APath(Value):
    """The monomial recipe for A(T): steps in composition order.

    ``steps[0]`` is the outermost divided power (applied last), matching the
    order the raising walk discovers them.  ``base`` is the tabloid whose
    unit vector the monomial is applied to: the highest tableau normally, or
    the spin early-exit tableau when ``direct`` is set (its vector already
    is the canonical one, by weight-space uniqueness).
    """

    def __init__(self, steps: tuple[tuple[int, int], ...], direct: bool, base: Tabloid, intermediates: tuple[Tabloid, ...]):
        self._init(steps, direct, base, intermediates)


@lru_cache(maxsize=None)
def _marsh_color(col: Column) -> int:
    """The node of the edge that raises the leftmost movable letter of the column.

    In type B every letter has at most one raising edge.  In type D only
    -(n-1) has two, and it takes node n-1; n and -n take the node their run
    of alternating n, -n letters selects.
    """
    kind = col.kind
    n = kind.rank
    letters = col.letters
    blocked = {None, *letters}  # no edge, or an edge onto a letter the column holds
    z, color = next(((x, i) for x in letters for i in range(1, n + 1) if vec_edge(x, i, "e", kind) not in blocked), (None, 0))
    if z is None:
        raise NotAdmissible(f"no movable letter in {col}")
    if kind.family == "B":
        return color
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
    return color


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


def _spin_step(cur: Tabloid, tables: ShapeTables) -> tuple[int, int, Tabloid]:
    """Raise the spin column alone, by the smallest color that stays in the crystal."""
    codes = cur.codes
    component = tables.component
    for j, rows in tables.crystal.items():
        g = rows[0][codes[0]][2]
        if g is not None and (cand := tables.tabloid((g, *codes[1:]))) in component:
            return j, 1, cand
    raise InvariantViolation(f"no spin raise leaves {cur} in the crystal")


def _raise_once(cur: Tabloid, tables: ShapeTables) -> tuple[int, int, Tabloid] | None:
    """One step (i, r, next) of the raising walk, with next = e_i^r cur.

    None means the walk ends at cur: it is the highest tableau, or a spin
    tableau whose weight space holds one tabloid.  ``tables`` are cur's
    shape's, and a tabloid is an orthogonal tableau when it lies in their
    ``component``.  The step runs on slot codes: each filling's crystal is
    a row (``tables.crystal[i][x][code]`` for slot x at node i), and a
    reading's is the signature rule over its slots' rows.  Slots follow the
    reading, so the columns come right to left after the spin column.
    Where the block's target leaves the component, the step climbs a whole
    crystal string instead (``_string_step``).
    """
    codes = cur.codes
    if codes == tables.highest.codes:
        return None
    crystal = tables.crystal
    slots = cur.shape.slots
    s = int(cur.shape.has_spin())  # the first column slot
    n = len(codes)
    if s and not any(signature_rule([rows[x][codes[x]] for x in range(s, n)])[0] for rows in crystal.values()):
        if tables.suffix_counts[0][tables.packed_weight(codes)] == 1:
            # alone in its weight space: the tabloid vector is already
            # the canonical one and the walk may stop here
            return None
        return _spin_step(cur, tables)
    # the rightmost column that is not highest
    k = next(x for x in range(s, n) if not crystal[1][x][codes[x]][4])
    i1 = _marsh_color(slots[k].fillings[codes[k]])
    rows = crystal[i1]
    if s and rows[0][codes[0]][3] is not None:
        # the spin column blocks this node (its t-eigenvalue spoils the
        # unit coefficient); raise the spin itself instead
        return _spin_step(cur, tables)
    # the block: columns left of k join while the one to their right has no
    # f_i1 and they can be raised by i1
    end = k
    while (
        end + 1 < n
        and wedge_f_divided(slots[end].fillings[codes[end]], i1, 1).is_zero()
        and rows[end + 1][codes[end + 1]][0] > 0
    ):
        end += 1
    new = list(codes)
    r = 0
    for x in range(k, end + 1):
        for _ in range(rows[x][codes[x]][0]):
            new[x] = rows[x][new[x]][2]
            r += 1
    if s and rows[0][codes[0]][0] == 1:
        # the spin column sits leftmost in the tensor order; when it can
        # absorb a raising step it must, or the replayed divided power
        # picks up a stray power of q_i on the target tabloid
        new[0] = rows[0][codes[0]][2]
        r += 1
    nxt = tables.tabloid(tuple(new))
    if nxt not in tables.component:
        return _string_step(cur, tables)
    return i1, r, nxt


def _string_step(cur: Tabloid, tables: ShapeTables) -> tuple[int, int, Tabloid]:
    """A step (i, eps_i, e_i^eps_i cur) up a whole i-string, for the first node i
    at which f_i^(eps_i) A(next) has coefficient 1 at cur and no tabloid above it.

    The crystal operators keep next in the component, and an accepted A(cur) is
    again a unitriangular divided-power monomial on the highest vector, so the
    correction pins the same G(cur).  A(next) is built and kept by ``_build``.
    """
    codes = cur.codes
    for i in tables.crystal:
        eps = tables.eps_phi(codes, i)[0]
        if not eps:
            continue
        up = codes
        for _ in range(eps):
            up = tables.apply(up, i, "e")
        nxt = tables.tabloid(up)
        _build([nxt])
        v = apply_monomial(CodedVector(tables.shape, tables.vectors[nxt], {}), [(i, eps)]).terms
        if v.get(codes) == ONE_TERMS and max(v) == codes:
            return i, eps, nxt
    raise InvariantViolation(f"raising left the crystal at {cur}: no string step passes")


def _walk(tab: Tabloid, tables: ShapeTables, known: Container[Tabloid] = ()) -> Iterator[Tabloid]:
    """The tableaux of the raising walk from tab, tab first, up to the first in
    ``known`` or the last (whose step is None).  Each step is read from the
    shape's ``steps``; the first walk to reach a tableau makes its step."""
    steps = tables.steps
    t = tab
    for _ in range(MAX_RAISING_STEPS):
        yield t
        if t in known:
            return
        try:
            step = steps[t]
        except KeyError:
            step = steps[t] = _raise_once(t, tables)
        if step is None:
            return
        t = step[2]
    raise IterationLimit(f"raising walk from {tab} did not terminate")


def a_path(tab: Tabloid) -> APath:
    """The raising walk from an orthogonal tableau to the highest tableau."""
    if not is_orthogonal_tableau(tab):
        raise NotOrthogonalTableau(f"{tab} is not an orthogonal tableau of its shape")
    tables = shape_tables(tab.shape)
    walk = list(_walk(tab, tables))
    base = walk[-1]
    return APath(tuple(tables.steps[t][:2] for t in walk[:-1]), base != tables.highest, base, tuple(walk[1:]))


def a_vector(path: APath) -> SparseVector:
    """The bar-invariant monomial vector A(T) of the tableau the path starts at."""
    return decoded(apply_monomial(CodedVector.unit(path.base), list(path.steps)))


def _build(tabs: list[Tabloid]) -> None:
    """Store A(T) for a set of tableaux of one shape, each as f_i^(r) A(next(T)).

    The shape's tables hold each tableau's raising step (``steps``) and
    A(T) (``vectors``, a flat (codes, terms, ...) tuple), shared by every
    request on the shape and by ``a_path``.  A tableau whose A(T) is stored
    needs nothing.  First each other tableau is walked until it meets one
    whose step is already stored, or ends, so every step the request needs
    is made before any algebra.  (On whole-module runs that order is faster
    than raising and building tableau by tableau.)
    Then each walk follows the stored steps to the first tableau whose A(T)
    is stored and builds down them, storing every A(T) it makes, so each
    A(T) is built once while the shape stays cached.  ``memo`` keeps each
    tabloid's divided powers (``modvec.module_f_divided``) for this request
    alone, and goes when it returns.
    """
    tables = shape_tables(tabs[0].shape)
    steps, vectors = tables.steps, tables.vectors
    tabs = [t for t in tabs if t not in vectors]
    for t in tabs:
        for _ in _walk(t, tables, steps):
            pass
    memo: dict = {}
    for tab in tabs:
        walked = list(_walk(tab, tables, vectors))  # ends in the table, or at the end of the walk
        t = walked.pop()
        flat = vectors.get(t)
        if flat is None:
            flat = vectors[t] = (t.codes, ONE_TERMS)
        for c in reversed(walked):
            i, r, _next = steps[c]
            flat = vectors[c] = apply_monomial(CodedVector(tables.shape, flat, memo), [(i, r)]).flat


def _gamma_symmetrize(c) -> LaurentPoly:
    """Bar-invariant part forced by the non-positive exponents of c, given as
    (exponent, coefficient) pairs (a LaurentPoly iterates as its pairs)."""
    terms: dict[int, int] = {}
    for e, a in c:
        if e <= 0:
            terms[e] = terms.get(e, 0) + a
            if e < 0:
                terms[-e] = terms.get(-e, 0) + a
    return LaurentPoly(terms)


class Entries(Mapping):
    """A canonical matrix's entries, {(r, c): LaurentPoly}, read-only, in
    compressed sparse rows: row r holds the columns ``cols[starts[r]:starts[r + 1]]``,
    ascending, and entry k the coefficient ``polys[ids[k]]``, one LaurentPoly
    per distinct coefficient.  It iterates row by row, and ``[]`` bisects
    within the key's row; ``items()`` and ``values()`` walk the entries in
    the same order and read each once."""

    __slots__ = ("starts", "cols", "ids", "polys")

    def __init__(self, starts: array, cols: array, ids: array, polys: tuple[LaurentPoly, ...]):
        self.starts, self.cols, self.ids, self.polys = starts, cols, ids, polys

    def __len__(self) -> int:
        return len(self.cols)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        cols = self.cols
        for r, (lo, hi) in enumerate(pairwise(self.starts)):
            for k in range(lo, hi):
                yield r, cols[k]

    def __getitem__(self, key: tuple[int, int]) -> LaurentPoly:
        r, c = key
        if 0 <= r < len(self.starts) - 1:
            hi = self.starts[r + 1]
            k = bisect_left(self.cols, c, self.starts[r], hi)
            if k < hi and self.cols[k] == c:
                return self.polys[self.ids[k]]
        raise KeyError(key)

    def items(self) -> ItemsView:
        return _EntryItems(self)

    def values(self) -> ValuesView:
        return _EntryValues(self)

    def __repr__(self) -> str:
        return f"Entries({dict(self)!r})"

    def __reduce__(self):
        return (Entries, (self.starts, self.cols, self.ids, self.polys))


class _EntryItems(ItemsView):
    __slots__ = ()

    def __iter__(self):  # the keys come in entry order
        return zip(self._mapping, _EntryValues(self._mapping))


class _EntryValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return map(self._mapping.polys.__getitem__, self._mapping.ids)


class CanonicalMatrix(Value):
    """One weight space (or all of them) of a canonical basis expansion."""

    def __init__(
        self,
        kind: AlgebraKind,
        lam: tuple[int, ...],
        weight2: Weight2 | None,
        rows: tuple[Tabloid, ...],
        cols: tuple[Tabloid, ...],
        entries: Entries,
        gamma: tuple[tuple[int, int, LaurentPoly], ...],
    ):
        self._init(kind, lam, weight2, rows, cols, entries, gamma)

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
            "entries": [[r, c, poly.json_terms()] for (r, c), poly in self.entries.items()],
            "gamma": [[c, j, g.json_terms()] for c, j, g in self.gamma],
        }


def _correct_group(
    vectors: list[tuple], tableaux: list[Tabloid]
) -> tuple[list[tuple], list[tuple[int, int, LaurentPoly]]]:
    """Unitriangular correction of one weight space, in increasing order.

    Each A(T) comes and each G(T) leaves as a flat (codes, terms, ...) tuple;
    a G(T) that no gamma touched is its A(T)'s own tuple, so it costs nothing.
    The correction runs on the term tuples too: a coefficient at an earlier
    G(T) whose lowest exponent is 1 or more already lies in qZ[q], so its
    gamma is 0 and nothing is built for it.  A non-zero gamma adds minus
    gamma times that G(T) with ``laurent.times`` and ``laurent.plus``, and a
    coefficient that cancels leaves the vector.
    """
    codes = [t.codes for t in tableaux]
    out: list[tuple] = []
    log: list[tuple[int, int, LaurentPoly]] = []
    for idx, flat in enumerate(vectors):
        pairs = iter(flat)
        v = dict(zip(pairs, pairs))
        logged = len(log)
        for j in range(idx - 1, -1, -1):
            c = v.get(codes[j])
            if c is None or c[0][0] > 0:
                continue
            gamma = _gamma_symmetrize(c)
            if not gamma:
                continue
            minus_gamma = (-gamma).terms()
            pairs = iter(out[j])
            for k, terms in zip(pairs, pairs):
                if s := plus(v.get(k, ()), times(terms, minus_gamma)):
                    v[k] = s
                else:
                    del v[k]
            rest = v.get(codes[j], ())
            if rest and rest[0][0] < 1:
                raise InvariantViolation(f"correction left {LaurentPoly(rest)} at {tableaux[j]}")
            log.append((idx, j, gamma))
        if v.get(codes[idx]) != ONE_TERMS:
            raise InvariantViolation(f"diagonal of {tableaux[idx]} is not 1")
        out.append(flat if len(log) == logged else tuple(chain.from_iterable(v.items())))
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
        return CanonicalMatrix(kind, tuple(lam), weight2, (), (), Entries(array("i", [0]), array("i"), array("i"), ()), ())
    tables = shape_tables(shape)
    groups = tables.by_weight if weight2 is None else {weight2: tableaux}
    _build(tableaux)
    vectors = tables.vectors
    results = [_correct_group([vectors[t] for t in tabs], tabs) for tabs in groups.values()]

    if weight2 is not None:
        rows = tuple(enumerate_tabloids(shape, weight2))
        row_weights = [weight2] * len(rows)
    else:
        # One sorted pass over all tabloids, with no weight tuple per row: their
        # packed weights are summed slot by slot in enumerate_tabloids' order.
        sums = [0]
        for slot in tables.packs:
            sums = [a + b for a in sums for b in slot]
        weight_of = {tables.pack(mu): mu for mu in groups}  # the module's own tuples
        kept: list[Tabloid] = []
        row_weights = []
        for t, p in zip(enumerate_tabloids(shape), sums):
            mu = weight_of.get(p)
            if mu is not None:
                kept.append(t)
                row_weights.append(mu)
        rows = tuple(kept)
    # the rows ascend in the total order, so row indices compare readings
    row_index = {t.codes: i for i, t in enumerate(rows)}
    col_index = {t: i for i, t in enumerate(tableaux)}
    # each row's column, coefficient id, column, ...: a row's columns are one
    # weight space's, which come in ascending order, so each row's arrive sorted
    # (an array holds an entry in 8 bytes, a list in 16)
    by_row = [array("i") for _ in rows]
    ids: dict[tuple, int] = {}  # an id per distinct terms
    gamma: list[tuple[int, int, LaurentPoly]] = []
    for (mu, tabs), (vecs, log) in zip(groups.items(), results):
        for k, t in enumerate(tabs):
            pairs, vecs[k] = iter(vecs[k]), None  # G(T) goes once it is copied
            ci, diag = col_index[t], row_index[t.codes]
            for codes, terms in zip(pairs, pairs):
                r = row_index.get(codes)
                if terms[0][0] < 0:
                    tau = tabloid_of_codes(shape, codes)
                    raise InvariantViolation(f"entry {LaurentPoly(terms)} at {tau} in G({t}) escaped Z[q]: first exponent < 0")
                if r is None or row_weights[r] != mu:
                    raise InvariantViolation(f"G({t}) escaped its weight space at {tabloid_of_codes(shape, codes)}")
                if r > diag:
                    raise InvariantViolation(f"G({t}) has {rows[r]} above the diagonal")
                if r != diag and terms[0][0] < 1:
                    raise InvariantViolation(f"entry {LaurentPoly(terms)} at {rows[r]} in G({t}) is off the diagonal but not in qZ[q]")
                i = ids.get(terms)
                if i is None:
                    i = ids[terms] = len(ids)
                row = by_row[r]
                row.append(ci)
                row.append(i)
        for idx, j, g in log:
            gamma.append((col_index[tabs[idx]], col_index[tabs[j]], g))
    gamma.sort()
    starts, flat = array("i", [0]), array("i")
    for row in by_row:
        flat += row
        starts.append(len(flat) >> 1)
    del by_row
    entries = Entries(starts, flat[::2], flat[1::2], tuple(map(LaurentPoly, ids)))
    return CanonicalMatrix(kind, tuple(lam), weight2, rows, tuple(tableaux), entries, tuple(gamma))
