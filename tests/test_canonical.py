import itertools
import json
import random
import re

import pytest

from qcb.canonical import (
    NotAdmissible,
    NotOrthogonalTableau,
    a_path,
    a_vector,
    canonical_matrix,
    global_column,
    marsh_path,
)
from qcb.laurent import LaurentPoly
from qcb.rootdata import AlgebraKind
from qcb.shapes import (
    Column,
    enumerate_columns,
    enumerate_tableaux,
    enumerate_tabloids,
    highest_tabloid,
    is_orthogonal_tableau,
    orthogonal_tableaux,
    parse_tabloid,
    shape_for_lambda,
    shape_tables,
    tabloid_sort_key,
    weight2_of_tabloid,
)

B2 = AlgebraKind("B", 2)
B3 = AlgebraKind("B", 3)
B4 = AlgebraKind("B", 4)
D3 = AlgebraKind("D", 3)
D4 = AlgebraKind("D", 4)


def terms_of(vec):
    return {str(c): str(v) for c, v in vec.terms}


def test_marsh_path_examples():
    assert marsh_path(Column(B3, (1, 2, 3))) == []
    assert marsh_path(Column(B2, (0, 0))) == [(2, 1), (1, 1), (2, 1)]
    ten = marsh_path(Column(B4, (0, 0, 0, 0)))
    assert ten == [(4, 1), (3, 1), (2, 1), (1, 1), (4, 1), (3, 1), (2, 1), (4, 1), (3, 1), (4, 1)]
    with pytest.raises(NotAdmissible):
        marsh_path(Column(B2, (1, -1)))


def test_global_column_small():
    g = global_column(Column(B2, (0, 0)))
    assert terms_of(g) == {"0,0": "1", "2,-2": "q+q^3"}
    top = Column(B3, (1, 2))
    assert terms_of(global_column(top)) == {"1,2": "1"}


def test_global_column_printed_expansion():
    g = global_column(Column(B4, (0, 0, 0, 0)))
    assert terms_of(g) == {
        "0,0,0,0": "1",
        "4,0,0,-4": "q+q^7",
        "3,0,0,-3": "q-q^5",
        "2,0,0,-2": "q+q^3",
        "3,4,-4,-3": "q^2+q^4-q^6-q^8",
        "2,4,-4,-2": "q^2+2*q^4+q^6",
    }


def test_global_column_congruence():
    for kind in (B2, B3, D3):
        for p in range(1, kind.rank + 1):
            for col in enumerate_columns(kind, p, admissible_only=True):
                g = global_column(col)
                assert g.coeff(col).coeff(0) == 1
                for c, v in g.terms:
                    assert v.min_exp() >= (0 if c == col else 1)


def test_marsh_path_of_D_minus_column():
    col = Column(D3, (2, 3, -3))
    path = marsh_path(col)
    v = global_column(col)
    assert v.coeff(col).coeff(0) == 1
    assert all(p in (1, 2) for _i, p in path)


def test_a_path_worked_example():
    T = parse_tabloid("2,0,0/2,-3/3", B3)
    ap = a_path(T)
    assert list(ap.steps) == [(2, 1), (1, 3), (3, 3), (2, 2), (3, 1)]
    assert not ap.direct
    assert [str(t) for t in ap.intermediates] == [
        "2,0,0/2,-3/2",
        "1,0,0/1,-3/1",
        "1,3,0/1,3/1",
        "1,2,0/1,2/1",
        "1,2,3/1,2/1",
    ]
    v = a_vector(ap)
    assert v.coeff(T) == LaurentPoly.one()


def test_a_path_rejects_non_tableaux():
    with pytest.raises(NotOrthogonalTableau):
        a_path(parse_tabloid("2,-3,-1/2,0/1", B3))


def test_a_path_highest_is_empty():
    from qcb.shapes import highest_tabloid, shape_for_lambda

    top = highest_tabloid(shape_for_lambda((1, 1, 2), B3))
    ap = a_path(top)
    assert ap.steps == () and not ap.direct and ap.base == top


def test_a_path_matches_marsh_on_columns():
    for kind in (B2, B3, D3):
        for p in range(1, kind.rank + 1):
            lam = [0] * kind.rank
            if kind.family == "B":
                if p == kind.rank:
                    lam[p - 1] = 2
                else:
                    lam[p - 1] = 1
            else:
                if p == kind.rank:
                    lam[p - 1] = 2
                elif p == kind.rank - 1:
                    lam[p - 1] = 1
                    lam[p] = 1
                else:
                    lam[p - 1] = 1
            for t in enumerate_tableaux(tuple(lam), kind):
                col = t.columns[0]
                mp = marsh_path(col)
                ap = a_path(t)
                assert list(ap.steps) == mp
                # the two stage-one/stage-two vectors coincide on fundamentals
                assert terms_of(a_vector(ap)) == {
                    str(parse_tabloid(str(c), kind, d_sign=t.shape.d_sign)): str(v)
                    for c, v in global_column(col).terms
                }


def test_a_vector_properties_weight_space():
    tabs = enumerate_tableaux((1, 1, 2), B3, weight2=(0, 4, -2))
    assert len(tabs) == 11
    for t in tabs:
        v = a_vector(a_path(t))
        assert v.coeff(t) == LaurentPoly.one()
        for tau, _c in v.terms:
            assert tabloid_sort_key(tau) <= tabloid_sort_key(t)
            assert weight2_of_tabloid(tau) == weight2_of_tabloid(t)


def test_spin_shape_a_vectors():
    for kind, lam in ((B3, (1, 0, 1)), (B3, (0, 1, 1)), (D3, (0, 1, 1)), (D3, (1, 1, 1))):
        for t in enumerate_tableaux(lam, kind):
            v = a_vector(a_path(t))
            assert v.coeff(t) == LaurentPoly.one(), t
            for tau, _c in v.terms:
                assert tabloid_sort_key(tau) <= tabloid_sort_key(t)


# small modules for the stage-two oracles: two B and one D module with a
# spin column, and one D module without
ORACLE_MODULES = [(B2, (1, 1)), (B3, (0, 1, 1)), (D4, (1, 0, 1, 1)), (D4, (0, 0, 1, 2))]


def _shape_a_vectors(shape):
    """Each A(T) in the shape's table, read through the builder (which builds nothing new)."""
    from qcb.canonical import _MonomialBuilder

    built = list(shape_tables(shape).vectors)
    build = _MonomialBuilder(built)
    return {t: build.vector(t) for t in built}


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_memoised_a_vectors_match_replay(kind, lam):
    """The shape's A(T) table, built as f_i^(r) A(next(T)), equals the replayed
    monomial of a_path: after one weight space on cold tables, and after a
    whole-module request."""
    shape = shape_for_lambda(lam, kind)
    tabs = enumerate_tableaux(lam, kind)
    replayed = {t: a_vector(a_path(t)) for t in tabs}
    mu = weight2_of_tabloid(tabs[len(tabs) // 2])

    _clear_shape_tables()
    canonical_matrix(lam, kind, mu)
    cold = _shape_a_vectors(shape)
    assert {t for t in tabs if weight2_of_tabloid(t) == mu} <= cold.keys()
    assert cold == {t: replayed[t] for t in cold}
    canonical_matrix(lam, kind)
    assert _shape_a_vectors(shape) == replayed
    _clear_shape_tables()


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_builder_builds_each_tabloid_once(kind, lam):
    """Within one request, equal fillings in the A(T) vectors, the rows and the
    columns are one Tabloid object."""
    from qcb.canonical import _MonomialBuilder

    tabs = enumerate_tableaux(lam, kind)
    build = _MonomialBuilder(tabs)
    vectors = [build.vector(t) for t in tabs]
    seen = {}
    for v in vectors:
        for t, _c in v.terms:
            assert seen.setdefault(t, t) is t, t
    assert len(seen) > len(tabs)
    M = canonical_matrix(lam, kind)
    for t in (*M.rows, *M.cols):
        assert seen.setdefault(t, t) is t, t


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_highest_tableau_and_raising_steps_are_interned(kind, lam):
    """The highest tableau is the component's own object, and each raising step
    lands on the shape's one object for next(T)."""
    from qcb.canonical import _in_component, _raise_once

    shape = shape_for_lambda(lam, kind)
    own = {t: t for t in orthogonal_tableaux(shape)}
    top = highest_tabloid(shape)
    assert own[top] is top
    steps = [step for t in own if (step := _raise_once(t, _in_component)) is not None]
    assert steps
    for _i, _r, nxt in steps:
        assert own[nxt] is nxt, nxt


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_a_vector_coefficients_are_interned(kind, lam):
    """After a whole-module request on cold tables, equal coefficients across
    the shape's A(T) vectors are one LaurentPoly object."""
    _clear_shape_tables()
    canonical_matrix(lam, kind)
    coefficients = [c for v in _shape_a_vectors(shape_for_lambda(lam, kind)).values() for _t, c in v.terms]
    seen = {}
    for c in coefficients:
        assert seen.setdefault(c, c) is c, c
    assert len(seen) < len(coefficients)
    _clear_shape_tables()


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_canonical_json_writer_matches_json_dumps(kind, lam):
    """The canonical JSON writer prints what json.dumps prints for the matrix's
    json() dict: the whole module, one weight space, and a weight outside it."""
    from qcb.cli import _canonical_json

    tabs = enumerate_tableaux(lam, kind)
    mu = weight2_of_tabloid(tabs[len(tabs) // 2])
    top = weight2_of_tabloid(highest_tabloid(shape_for_lambda(lam, kind)))
    outside = (top[0] + 2,) + top[1:]  # above the highest weight
    for weight2 in (None, mu, outside):
        M = canonical_matrix(lam, kind, weight2)
        assert bool(M.cols) == (weight2 != outside)
        assert _canonical_json(M) == json.dumps({**M.json(), "command": "canonical"}, indent=2) + "\n"


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_a_path_suffix_is_walk_of_next(kind, lam):
    """The raising walk is memoryless: a_path(T) minus its first step is
    a_path(next(T)), with the same base and exit."""
    for t in enumerate_tableaux(lam, kind):
        ap = a_path(t)
        if not ap.steps:
            continue
        nxt = a_path(ap.intermediates[0])
        assert ap.steps[1:] == nxt.steps, t
        assert ap.intermediates[1:] == nxt.intermediates, t
        assert (ap.base, ap.direct) == (nxt.base, nxt.direct), t


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_membership_by_lookup_matches_raising(kind, lam):
    """The cached table holds exactly the tabloids that raise to the highest
    tableau, each with its own weight, in ascending order."""
    shape = shape_for_lambda(lam, kind)
    table = orthogonal_tableaux(shape)
    for t in enumerate_tabloids(shape):
        assert is_orthogonal_tableau(t) == (t in table), t
    for t, mu in table.items():
        assert mu == weight2_of_tabloid(t), t
    keys = [tabloid_sort_key(t) for t in table]
    assert keys == sorted(keys)


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_weight_request_filters_the_whole_list(kind, lam):
    """One weight space of enumerate_tableaux is the whole list filtered by
    weight, in the same order."""
    tabs = enumerate_tableaux(lam, kind)
    for mu in {weight2_of_tabloid(t) for t in tabs}:
        assert enumerate_tableaux(lam, kind, mu) == [t for t in tabs if weight2_of_tabloid(t) == mu], mu


def _clear_shape_tables():
    """Empty the per-shape tables, and the slot tables and coded powers that shapes share."""
    from qcb.modvec import _coded_powers
    from qcb.shapes import slot_table

    for table in (shape_tables, slot_table, _coded_powers):
        table.cache_clear()


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_shared_tables_match_cold_requests(kind, lam):
    """Every weight space requested in one process, in a shuffled order after
    a whole-module request, equals the same request made on cold tables."""
    weights = sorted(shape_tables(shape_for_lambda(lam, kind)).by_weight)
    random.Random(12).shuffle(weights)
    canonical_matrix(lam, kind)
    warm = {mu: canonical_matrix(lam, kind, mu) for mu in weights}
    for mu in weights:
        _clear_shape_tables()
        assert canonical_matrix(lam, kind, mu) == warm[mu], mu
    _clear_shape_tables()


# the modules whose raising walk leaves the crystal (ROADMAP item 1); the fix empties this set
KNOWN_RAISING_FAILURES = {
    (B2, (2, 3)),
    (B2, (3, 3)),
    (B2, (2, 5)),
    (B2, (4, 3)),
    (D3, (2, 0, 3)),
    (D3, (2, 3, 0)),
    (D3, (2, 1, 2)),
    (D3, (2, 2, 1)),
}


def test_raising_sweep_fails_only_on_known_modules():
    """One raising step from every tableau of every small module (B2 |lam| <= 7,
    B3 and D3 <= 5, D4 <= 4, dimension <= 500) stays in the crystal, except on
    the known spin modules."""
    from test_dimensions import weyl_dim

    from qcb.canonical import _in_component, _raise_once
    from qcb.rootdata import InvariantViolation

    modules = [
        (kind, lam)
        for kind, top in ((B2, 7), (B3, 5), (D3, 5), (D4, 4))
        for lam in itertools.product(range(top + 1), repeat=kind.rank)
        if 1 <= sum(lam) <= top and weyl_dim(lam, kind) <= 500
    ]
    assert len(modules) == 136
    failing = set()
    for kind, lam in modules:
        try:
            for t in enumerate_tableaux(lam, kind):
                _raise_once(t, _in_component)
        except InvariantViolation:
            failing.add((kind, lam))
    assert failing == KNOWN_RAISING_FAILURES


def test_repeated_request_raises_nothing(monkeypatch):
    """A second request for a weight space reads every raising step and every
    A(T) from the shape's tables: it raises nothing and applies no divided power."""
    import qcb.canonical as canonical
    import qcb.modvec as modvec

    calls = []
    raise_once = canonical._raise_once

    def counting_raise_once(cur, member):
        calls.append(cur)
        return raise_once(cur, member)

    divided = []
    f_divided = modvec.module_f_divided

    def counting_f_divided(v, i, m):
        divided.append(i)
        return f_divided(v, i, m)

    monkeypatch.setattr(canonical, "_raise_once", counting_raise_once)
    monkeypatch.setattr(modvec, "module_f_divided", counting_f_divided)
    _clear_shape_tables()
    lam = (0, 1, 1)
    tabs = enumerate_tableaux(lam, B3)
    mu = weight2_of_tabloid(tabs[len(tabs) // 2])
    first = canonical_matrix(lam, B3, mu)
    made, built = len(calls), len(divided)
    assert made and built
    assert canonical_matrix(lam, B3, mu) == first
    assert (len(calls), len(divided)) == (made, built)
    _clear_shape_tables()


def test_per_shape_tables_stay_bounded():
    """Weight requests on more shapes than a cache keeps leave every per-shape
    table bounded.  The slot tables and coded powers are shared by the shapes:
    B2 has three slot kinds (heights 1 and 2, and the spin class) and two nodes."""
    from qcb.modvec import _coded_powers
    from qcb.shapes import slot_table

    _clear_shape_tables()
    lams = [(1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (0, 3), (2, 2), (1, 2), (3, 0), (0, 4)]
    assert len({shape_for_lambda(lam, B2) for lam in lams}) == len(lams)
    for lam in lams:
        tabs = enumerate_tableaux(lam, B2)
        assert canonical_matrix(lam, B2, weight2_of_tabloid(tabs[len(tabs) // 2])).cols
    assert shape_tables.cache_info().currsize <= 8
    assert slot_table.cache_info().currsize <= 3
    assert _coded_powers.cache_info().currsize <= 6


def _swap_last_letter(text: str, n: int) -> str:
    """A tabloid string with the letters n and -n swapped, in the columns and the spin column."""
    return re.sub(r"-?\d+", lambda m: str(-int(m[0])) if abs(int(m[0])) == n else m[0], text)


@pytest.mark.parametrize(
    "kind,lam,image,entries",
    [
        (D3, (0, 1, 2), (0, 2, 1), 78),
        (D3, (1, 0, 1), (1, 1, 0), 28),
        (D4, (1, 0, 0, 1), (1, 0, 1, 0), 80),
        (D4, (0, 0, 1, 2), (0, 0, 2, 1), 816),
    ],
)
def test_diagram_automorphism_of_D(kind, lam, image, entries):
    """The D_n diagram automorphism swaps the nodes n-1 and n, so it swaps
    lambda_{n-1} and lambda_n and the letters n and -n.  The canonical matrix
    of lambda maps onto that of its image entry by entry, on row and column
    strings; the correction logs may differ, since the total order breaks
    the n/-n tie one way."""
    n = kind.rank
    assert image == lam[: n - 2] + (lam[n - 1], lam[n - 2])

    def cells(M, rename):
        rows = [rename(str(t)) for t in M.rows]
        cols = [rename(str(t)) for t in M.cols]
        return sorted(rows), sorted(cols), {(rows[r], cols[c]): str(v) for (r, c), v in M.entries.items()}

    mapped = cells(canonical_matrix(lam, kind), lambda s: _swap_last_letter(s, n))
    assert len(mapped[2]) == entries
    assert mapped == cells(canonical_matrix(image, kind), str)


def _drop_first_letter(text: str) -> str:
    """A tabloid string restricted to the nodes 2..n: the letters 1 and -1 dropped
    from every column and the spin column, emptied columns dropped, and every
    other letter moved one step toward 0."""

    def factor(part):
        spin = "s:" if part.startswith("s:") else ""
        letters = [int(x) for x in part[len(spin) :].split(",") if abs(int(x)) != 1]
        return spin + ",".join(str(x - 1 if x > 0 else x + 1 if x < 0 else 0) for x in letters) if letters else None

    return "/".join(f for f in map(factor, text.split("/")) if f is not None)


@pytest.mark.parametrize(
    "kind,lam,entries",
    [(B3, (1, 1, 1), 24), (B3, (0, 1, 1), 24), (D4, (1, 0, 1, 1), 18), (D4, (0, 1, 1, 1), 142)],
)
def test_levi_restriction(kind, lam, entries):
    """The weight spaces of V(lambda) whose epsilon_1 coordinate is the highest
    weight's form the module of the Levi subalgebra of the nodes 2..n with
    highest weight lambda[1:], and the global basis restricts to its global
    basis.  So those weight spaces of the canonical matrix, with the letter 1
    dropped, equal the whole canonical matrix at rank n-1 entry by entry, on
    row and column strings."""
    top = weight2_of_tabloid(highest_tabloid(shape_for_lambda(lam, kind)))[0]

    def cells(M, keep, rename):
        rows = {r: rename(str(t)) for r, t in enumerate(M.rows) if keep(t)}
        cols = {c: rename(str(t)) for c, t in enumerate(M.cols) if keep(t)}
        kept = {(rows[r], cols[c]): str(v) for (r, c), v in M.entries.items() if c in cols}
        return sorted(rows.values()), sorted(cols.values()), kept

    restricted = cells(canonical_matrix(lam, kind), lambda t: weight2_of_tabloid(t)[0] == top, _drop_first_letter)
    assert len(restricted[2]) == entries
    levi = AlgebraKind(kind.family, kind.rank - 1)
    assert restricted == cells(canonical_matrix(lam[1:], levi), lambda t: True, str)


def test_canonical_matrix_fundamental_matches_global():
    M = canonical_matrix((0, 2), B2)
    assert not M.gamma
    for ci, t in enumerate(M.cols):
        g = global_column(t.columns[0])
        got = {str(M.rows[r].columns[0]): str(v) for (r, c), v in M.entries.items() if c == ci}
        assert got == {str(c): str(v) for c, v in g.terms}


def test_canonical_matrix_empty_weight_space():
    M = canonical_matrix((1, 0), B2, weight2=(6, 0))
    assert M.rows == () and M.cols == () and not M.entries


def test_component_is_computed_once_per_shape(monkeypatch):
    """Two single-weight requests on one module share one crystal BFS."""
    import qcb.shapes as shapes

    calls = []
    bfs = shapes.component_bfs

    def counting_bfs(w0):
        calls.append(w0)
        return bfs(w0)

    monkeypatch.setattr(shapes, "component_bfs", counting_bfs)
    shape_tables.cache_clear()
    lam = (1, 1)
    first, second = sorted({weight2_of_tabloid(t) for t in enumerate_tableaux(lam, B2)})[:2]
    assert canonical_matrix(lam, B2, weight2=first).cols
    assert canonical_matrix(lam, B2, weight2=second).cols
    assert len(calls) == 1
    shape_tables.cache_clear()


def test_canonical_matrix_gamma_log_is_bar_symmetric():
    for kind, lam in ((B2, (0, 3)), (B3, (0, 1, 1))):
        M = canonical_matrix(lam, kind)
        for _c, _j, g in M.gamma:
            assert g.bar() == g


# -- the rank-3 weight-space regression ---------------------------------------
#
# Full 40 x 11 matrix for lambda = (1,1,2), weight (0,2,-1).  This snapshot
# agrees with the independently cross-checked print except one cell
# (row 26, column 4) where the printed table drops a q.
EXPECTED_MATRIX = {
    1: {1: "q^8"},
    2: {1: "q^6", 2: "q^8"},
    3: {2: "q^6"},
    4: {4: "q^8"},
    5: {1: "q^6", 4: "q^6", 7: "q^8"},
    6: {1: "q^4", 2: "q^6", 7: "q^6", 10: "q^8"},
    7: {2: "q^4", 10: "q^6"},
    8: {1: "q^4", 7: "q^6", 9: "q^8"},
    9: {1: "q^2", 4: "q^6+q^8", 5: "q^7+q^9", 7: "q^4", 9: "q^6"},
    10: {4: "q^5", 5: "q^6"},
    11: {1: "q^2", 2: "q^4", 4: "q^6", 6: "q^8", 7: "q^4", 9: "q^6", 10: "q^6"},
    12: {1: "1", 2: "q^2", 3: "q^8", 4: "q^4+q^6", 5: "q^5+q^7", 6: "q^6", 7: "q^2", 9: "q^4", 10: "q^4"},
    13: {3: "q^6", 4: "q^4", 5: "q^5-q^9"},
    14: {5: "q^4"},
    15: {2: "q^2", 3: "q^4", 6: "q^6", 10: "q^4"},
    16: {2: "1", 6: "q^4", 10: "q^2"},
    17: {3: "q^2", 4: "q^4+q^6", 5: "q^5+q^7", 6: "q^4", 9: "q^6+q^8"},
    18: {4: "q^3", 5: "q^4", 9: "q^5"},
    19: {4: "q^4", 6: "q^6"},
    20: {4: "q^2", 5: "q^3+q^5", 6: "q^4", 9: "q^4+q^6"},
    21: {5: "q^2", 9: "q^3"},
    22: {6: "q^2", 9: "q^4"},
    23: {9: "q^2"},
    24: {3: "1", 4: "q^2+q^4", 5: "q^3+q^5", 6: "q^2", 7: "q^6", 8: "q^8", 9: "q^4+q^6", 10: "q^4"},
    25: {4: "q^4", 7: "q^6"},
    26: {4: "q", 5: "q^2", 7: "q^3", 8: "q^5", 9: "q^3"},
    27: {4: "q^2", 6: "q^4", 7: "q^4", 9: "q^6", 10: "q^6", 11: "q^8"},
    28: {4: "1", 5: "q+q^3", 6: "q^2", 7: "q^2", 8: "q^4+q^6", 9: "q^2+2*q^4", 10: "q^4", 11: "q^6"},
    29: {5: "1", 8: "q^3", 9: "q"},
    30: {6: "1", 9: "q^2", 10: "q^2", 11: "q^4"},
    31: {7: "q^4", 10: "q^6"},
    32: {7: "q^2", 8: "q^4", 10: "q^4"},
    33: {7: "q^2", 9: "q^4", 10: "q^4", 11: "q^6"},
    34: {7: "1", 8: "q^2+q^4", 9: "q^2", 10: "q^2", 11: "q^4"},
    35: {8: "q"},
    36: {8: "1", 9: "q^2", 11: "q^4"},
    37: {9: "1", 11: "q^2"},
    38: {10: "q^2"},
    39: {10: "1", 11: "q^2"},
    40: {11: "1"},
}

EXPECTED_COLS = [
    "2,0,-2/2,-3/2", "1,0,-3/2,-1/2", "2,0,-3/2,-3/3", "2,3,-3/2,-3/0",
    "2,0,0/2,-3/0", "1,2,-3/2,-1/0", "2,3,-3/2,0/-3", "2,3,0/2,-3/-3",
    "1,2,0/2,-1/-3", "1,2,-3/2,0/-1", "1,2,0/2,-3/-1",
]


@pytest.fixture(scope="module")
def weight_space_matrix():
    return canonical_matrix((1, 1, 2), B3, weight2=(0, 4, -2))


def test_weight_space_shape(weight_space_matrix):
    M = weight_space_matrix
    assert [str(t) for t in M.cols] == EXPECTED_COLS
    assert len(M.rows) == 40


def test_weight_space_entries(weight_space_matrix):
    M = weight_space_matrix
    for r in range(40):
        for c in range(11):
            want = EXPECTED_MATRIX.get(r + 1, {}).get(c + 1, "0")
            assert str(M.entry(r, c)) == want, (r + 1, c + 1)


def test_weight_space_gamma_log(weight_space_matrix):
    M = weight_space_matrix
    got = [(c, j, str(g)) for c, j, g in M.gamma]
    assert got == [(3, 2, "1"), (4, 2, "q^-1+q"), (8, 5, "1")]


def test_spin_weight_space_with_multiplicity():
    """Shapes where the non-spin part tops out while the spin column still
    has room expose weight spaces with several tabloids; the walk must keep
    raising the spin instead of stopping early."""
    M = canonical_matrix((0, 1, 3), B3, weight2=(-3, 3, 1))
    assert len(M.cols) == 8
    rows = {str(t): r for r, t in enumerate(M.rows)}
    cols = {str(t): c for c, t in enumerate(M.cols)}
    for (r, c), v in M.entries.items():
        assert v.min_exp() >= 0
    got = str(M.entry(rows["s:-1,2,-3/2,3,-2/2,-1"], cols["s:-1,-2,3/2,0,0/2,-1"]))
    assert got == "q^5+q^7"
    got = str(M.entry(rows["s:-1,-2,3/2,3,-1/2,-3"], cols["s:-1,-2,3/2,0,0/2,-1"]))
    assert got == "q+q^3"


def test_gamma_loop_matches_order_free_fixpoint():
    """The one-pass descending correction equals an order-free fixpoint that
    symmetrizes every tableau coefficient until nothing changes."""
    from qcb.canonical import _gamma_symmetrize

    cases = [(B3, (1, 0, 1), None), (B3, (0, 1, 3), (-3, 3, 1)), (D3, (0, 2, 1), None)]
    for kind, lam, mu in cases:
        tabs = enumerate_tableaux(lam, kind, weight2=mu)
        groups = {}
        for t in tabs:
            groups.setdefault(weight2_of_tabloid(t), []).append(t)
        M = canonical_matrix(lam, kind, weight2=mu)
        rows = {t: r for r, t in enumerate(M.rows)}
        cols = {t: c for c, t in enumerate(M.cols)}
        for _w, ts in sorted(groups.items()):
            G = {t: a_vector(a_path(t)) for t in ts}
            changed = True
            while changed:
                changed = False
                for t in ts:
                    for s in ts:
                        if s is not t:
                            gam = _gamma_symmetrize(G[t].coeff(s))
                            if not gam.is_zero():
                                G[t] = G[t] - G[s].scale(gam)
                                changed = True
            for t in ts:
                expect = {rows[tau]: c for tau, c in G[t].terms}
                got = {r: v for (r, cc), v in M.entries.items() if cc == cols[t]}
                assert expect == got, (kind, lam, t)
