import itertools
import json
import random
import re
import tracemalloc

import pytest

from qcb.canonical import (
    NotAdmissible,
    NotOrthogonalTableau,
    a_path,
    a_vector,
    canonical_matrix,
    marsh,
)
from qcb.crystal import raise_to_highest
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
    tabloid_reading,
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
    assert marsh(Column(B3, (1, 2, 3)))[0] == []
    assert marsh(Column(B2, (0, 0)))[0] == [(2, 1), (1, 1), (2, 1)]
    ten = marsh(Column(B4, (0, 0, 0, 0)))[0]
    assert ten == [(4, 1), (3, 1), (2, 1), (1, 1), (4, 1), (3, 1), (2, 1), (4, 1), (3, 1), (4, 1)]
    with pytest.raises(NotAdmissible):
        marsh(Column(B2, (1, -1)))


def test_global_column_small():
    g = marsh(Column(B2, (0, 0)))[1]
    assert terms_of(g) == {"0,0": "1", "2,-2": "q+q^3"}
    top = Column(B3, (1, 2))
    assert terms_of(marsh(top)[1]) == {"1,2": "1"}


def test_global_column_printed_expansion():
    g = marsh(Column(B4, (0, 0, 0, 0)))[1]
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
                g = marsh(col)[1]
                assert g.coeff(col).coeff(0) == 1
                for c, v in g.terms:
                    assert v.min_exp() >= (0 if c == col else 1)


def test_marsh_path_of_D_minus_column():
    col = Column(D3, (2, 3, -3))
    path, v = marsh(col)
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
                mp = marsh(col)[0]
                ap = a_path(t)
                assert list(ap.steps) == mp
                # the two stage-one/stage-two vectors coincide on fundamentals
                assert terms_of(a_vector(ap)) == {
                    str(parse_tabloid(str(c), kind, d_sign=t.shape.d_sign)): str(v)
                    for c, v in marsh(col)[1].terms
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


# D4 (1,0,2,0) has 32 tabloids whose weight is not one of the module's; the other modules have none
@pytest.mark.parametrize("kind,lam", ORACLE_MODULES + [(B3, (3, 1, 0)), (D4, (1, 0, 2, 0))])
def test_whole_module_rows_are_the_tabloids_of_its_weights(kind, lam):
    """The rows pass keeps, in order, exactly the tabloids whose weight is one
    of the module's, and every entry joins a row and a column of one weight."""
    shape = shape_for_lambda(lam, kind)
    M = canonical_matrix(lam, kind)
    weights = set(orthogonal_tableaux(shape).values())
    tabloids = enumerate_tabloids(shape)
    assert list(M.rows) == [t for t in tabloids if weight2_of_tabloid(t) in weights]
    if lam == (1, 0, 2, 0):
        assert len(tabloids) - len(M.rows) == 32
    for r, c in M.entries:
        assert weight2_of_tabloid(M.rows[r]) == weight2_of_tabloid(M.cols[c]), (r, c)


def _pairs(flat):
    """A flat (codes, terms, ...) tuple as a {codes: terms} dict."""
    return dict(zip(flat[::2], flat[1::2]))


def _shape_a_vectors(shape):
    """Each A(T) in the shape's table as {codes: terms}, after ``_build`` has
    run on them (which builds nothing new)."""
    from qcb.canonical import _build

    vectors = shape_tables(shape).vectors
    built = list(vectors)
    _build(built)
    return {t: _pairs(vectors[t]) for t in built}


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_memoised_a_vectors_match_replay(kind, lam):
    """The shape's A(T) table, built as f_i^(r) A(next(T)), equals the replayed
    monomial of a_path: after one weight space on cold tables, and after a
    whole-module request."""
    shape = shape_for_lambda(lam, kind)
    tabs = enumerate_tableaux(lam, kind)
    replayed = {t: {tau.codes: c.terms() for tau, c in a_vector(a_path(t)).terms} for t in tabs}
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
    """Within one request, equal fillings in the A(T) vectors are one codes
    tuple, and in the rows and the columns one Tabloid object."""
    from qcb.canonical import _build

    _clear_shape_tables()
    tabs = enumerate_tableaux(lam, kind)
    _build(tabs)
    vectors = [_pairs(shape_tables(tabs[0].shape).vectors[t]) for t in tabs]
    seen = {}
    for v in vectors:
        for codes in v:
            assert seen.setdefault(codes, codes) is codes, codes
    assert len(seen) > len(tabs)
    M = canonical_matrix(lam, kind)
    own = {}
    for t in (*M.rows, *M.cols):
        assert own.setdefault(t, t) is t, t
    assert seen.keys() <= {t.codes for t in M.rows}
    _clear_shape_tables()


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_highest_tableau_and_raising_steps_are_interned(kind, lam):
    """The highest tableau is the component's own object, and each raising step
    lands on the shape's one object for next(T)."""
    from qcb.canonical import _raise_once

    shape = shape_for_lambda(lam, kind)
    own = {t: t for t in orthogonal_tableaux(shape)}
    top = highest_tabloid(shape)
    assert own[top] is top
    steps = [step for t in own if (step := _raise_once(t, shape_tables(shape))) is not None]
    assert steps
    for _i, _r, nxt in steps:
        assert own[nxt] is nxt, nxt


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_a_vector_coefficients_are_interned(kind, lam):
    """After a whole-module request on cold tables, equal coefficients across
    the shape's A(T) vectors are one term tuple."""
    _clear_shape_tables()
    canonical_matrix(lam, kind)
    coefficients = [c for v in _shape_a_vectors(shape_for_lambda(lam, kind)).values() for c in v.values()]
    seen = {}
    for c in coefficients:
        assert seen.setdefault(c, c) is c, c
    assert len(seen) < len(coefficients)
    _clear_shape_tables()


def test_expansions_are_memoised_per_request(monkeypatch):
    """A whole-module B3 (3,1,0) request expands each (codes, i, m) once:
    7,905 single-tabloid expansions, where expanding every term of every
    divided power makes 11,643.  The memo lives with the request: after a
    whole-module and a weight request the shape's tables hold only their
    documented attributes, and the ones built on first use."""
    from functools import cached_property

    import qcb.modvec as modvec
    from qcb.shapes import ShapeTables

    calls = []
    expand = modvec._expand_divided
    monkeypatch.setattr(modvec, "_expand_divided", lambda *a: calls.append(a[1:]) or expand(*a))
    lazy = {name for name, attr in vars(ShapeTables).items() if isinstance(attr, cached_property)}
    documented = {"shape", "tabloids", "steps", "vectors", "terms"}
    lam = (3, 1, 0)
    shape = shape_for_lambda(lam, B3)
    _clear_shape_tables()
    canonical_matrix(lam, B3)
    assert len(calls) == 7905
    assert set(vars(shape_tables(shape))) - lazy == documented
    _clear_shape_tables()
    tabs = enumerate_tableaux(lam, B3)
    assert canonical_matrix(lam, B3, weight2_of_tabloid(tabs[len(tabs) // 2])).cols
    assert set(vars(shape_tables(shape))) - lazy == documented
    _clear_shape_tables()


def _reference_correct_group(vectors, tableaux):
    """The correction on SparseVector and LaurentPoly objects, kept as the
    reference for the coded ``_correct_group``."""
    from qcb.canonical import _gamma_symmetrize

    out, log = [], []
    for idx, v in enumerate(vectors):
        for j in range(idx - 1, -1, -1):
            gamma = _gamma_symmetrize(v.coeff(tableaux[j]))
            if gamma.is_zero():
                continue
            v = v - out[j].scale(gamma)
            rest = v.coeff(tableaux[j])
            assert rest.is_zero() or rest.min_exp() >= 1, (tableaux[j], rest)
            log.append((idx, j, gamma))
        assert v.coeff(tableaux[idx]) == LaurentPoly.one(), tableaux[idx]
        out.append(v)
    return out, log


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES + [(B3, (3, 1, 0)), (B2, (0, 0))])
def test_coded_correction_matches_reference(kind, lam):
    """On every weight space, the coded correction gives the reference's G(T),
    term for term, and its gamma log.  The lambda = 0 shape has no slots, so
    its one tabloid's codes are ()."""
    from qcb.canonical import _build, _correct_group
    from qcb.laurent import SparseVector
    from qcb.shapes import tabloid_of_codes

    shape = shape_for_lambda(lam, kind)
    tables = shape_tables(shape)
    groups = tables.by_weight
    _build(enumerate_tableaux(lam, kind))
    gammas = 0
    for tabs in groups.values():
        flats = [tables.vectors[t] for t in tabs]
        got, log = _correct_group(flats, list(tabs))
        sparse = [SparseVector({tabloid_of_codes(shape, c): LaurentPoly(t) for c, t in _pairs(f).items()}) for f in flats]
        want, want_log = _reference_correct_group(sparse, tabs)
        assert got == [{tau.codes: c.terms() for tau, c in w.terms} for w in want]
        assert log == want_log
        gammas += len(log)
    assert gammas == len(canonical_matrix(lam, kind).gamma)
    if not any(lam):
        assert [t.codes for t in groups[weight2_of_tabloid(highest_tabloid(shape))]] == [()]


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_canonical_json_writer_matches_json_dumps(kind, lam):
    """The canonical JSON writer prints what json.dumps prints for the matrix's
    json() dict: the whole module, one weight space, and a weight outside it."""
    from qcb.cli import _canonical_json_chunks

    tabs = enumerate_tableaux(lam, kind)
    mu = weight2_of_tabloid(tabs[len(tabs) // 2])
    top = weight2_of_tabloid(highest_tabloid(shape_for_lambda(lam, kind)))
    outside = (top[0] + 2,) + top[1:]  # above the highest weight
    for weight2 in (None, mu, outside):
        M = canonical_matrix(lam, kind, weight2)
        assert bool(M.cols) == (weight2 != outside)
        assert "".join(_canonical_json_chunks(M)) == json.dumps({**M.json(), "command": "canonical"}, indent=2) + "\n"


@pytest.mark.parametrize(
    "terms",
    [
        ((0, 1),),
        ((-3, -2),),
        ((-5, 1), (2, -1)),
        ((-1, 10**39 + 7), (0, -(10**39)), (4, 3)),
        ((-7, -1), (-2, 2), (0, -(10**40 - 1)), (3, 1)),
    ],
)
def test_terms_block_matches_json_dumps(terms):
    """A coefficient's block, rendered from its term tuple, is json.dumps of
    its [[exponent, coefficient], ...] list, indented as a triple's last item."""
    from qcb.cli import _terms_block

    want = json.dumps([list(t) for t in terms], indent=2).replace("\n", "\n      ")
    assert _terms_block(terms) == want


def _dense_cells(M, render, blank):
    """Each row label with all its cells, read one by one off M.entry."""
    for r, row in enumerate(M.rows):
        yield row, [render(e) if e else blank for e in (M.entry(r, c) for c in range(len(M.cols)))]


def _dense_csv(M):
    lines = [",".join([""] + [f'"{c}"' for c in M.cols])]
    for row, cells in _dense_cells(M, lambda e: f'"{e}"', '"."'):
        lines.append(",".join([f'"{row}"'] + cells))
    return "\n".join(lines) + "\n"


def _dense_tex(M):
    lines = [r"\begin{array}{l|" + "c" * len(M.cols) + "}"]
    lines.append(" & " + " & ".join(r"\text{" + str(c) + "}" for c in M.cols) + r" \\ \hline")
    for row, cells in _dense_cells(M, LaurentPoly.latex, "."):
        lines.append(r"\text{" + str(row) + "} & " + " & ".join(cells) + r" \\")
    lines.append(r"\end{array}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_canonical_csv_and_tex_writers_match_a_dense_renderer(kind, lam):
    """The row-by-row CSV and TeX writers print what a plain nested loop over
    M.entry(r, c) prints: the whole module and one weight space."""
    from qcb.cli import _canonical_csv_rows, _canonical_tex_rows

    tabs = enumerate_tableaux(lam, kind)
    for weight2 in (None, weight2_of_tabloid(tabs[len(tabs) // 2])):
        M = canonical_matrix(lam, kind, weight2)
        assert M.entries
        for chunks, want in ((_canonical_csv_rows(M), _dense_csv(M)), (_canonical_tex_rows(M), _dense_tex(M))):
            got = "".join(chunks)
            same = got == want  # a bare flag: pytest's own diff of two dense matrices takes minutes
            assert same, _first_difference(got, want)


def _first_difference(got, want):
    for k, (a, b) in enumerate(zip(got.split("\n"), want.split("\n"))):
        if a != b:
            return f"line {k}: {a[:200]!r} != {b[:200]!r}"
    return f"lengths {len(got)} != {len(want)}"


def _write_peak(M, fmt, path):
    """(peak bytes traced while the CLI writes M to path, bytes written)."""
    from argparse import Namespace

    from qcb.cli import _emit, _write

    tracemalloc.start()
    try:
        _write(_emit(M, Namespace(format=fmt)), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, path.stat().st_size


@pytest.mark.parametrize("fmt,kind,lam", [("json", B3, (3, 1, 0)), ("csv", D4, (1, 0, 1, 1))])
def test_writer_holds_no_whole_document(fmt, kind, lam, tmp_path):
    """Writing a built matrix out takes less memory than a quarter of the
    bytes it writes: the writer streams, it never holds the document."""
    M = canonical_matrix(lam, kind)
    peak, size = _write_peak(M, fmt, tmp_path / f"out.{fmt}")
    assert size > 100_000
    assert peak < size / 4, (peak, size)


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
    """The cached table holds exactly the tabloids whose readings raise to the
    highest tableau's by the ``Word`` crystal, each with its own weight, in
    ascending order; ``is_orthogonal_tableau`` looks a tabloid up in it."""
    shape = shape_for_lambda(lam, kind)
    table = orthogonal_tableaux(shape)
    top = tabloid_reading(highest_tabloid(shape))
    for t in enumerate_tabloids(shape):
        assert (raise_to_highest(tabloid_reading(t))[0] == top) == (t in table) == is_orthogonal_tableau(t), t
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
    """Empty the per-shape tables, the slot tables (with their crystal rows and
    coded powers) that shapes share, and the shapes by weight, whose cached
    ``slots`` would keep the old slot tables."""
    from qcb.shapes import _shape_for_lambda, slot_table

    for table in (shape_tables, slot_table, _shape_for_lambda):
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


# SHA-256 of every step of the sweep below, one line per step
RAISING_STEPS_DIGEST = "9f3d1086a1b7c011464650711b2b23c86aa8168fe04cf8f1615ab89e23ad16c2"


def sweep_modules():
    """The small modules, B2 |lam| <= 7, B3 and D3 <= 5, D4 <= 4, of dimension <= 500."""
    from test_dimensions import weyl_dim

    return [
        (kind, lam)
        for kind, top in ((B2, 7), (B3, 5), (D3, 5), (D4, 4))
        for lam in itertools.product(range(top + 1), repeat=kind.rank)
        if 1 <= sum(lam) <= top and weyl_dim(lam, kind) <= 500
    ]


def test_raising_sweep_stays_in_the_crystal():
    """One raising step from every tableau of every small module
    (``sweep_modules``) is made, the spin modules' crystal-string steps
    among them, and every step is the one pinned by ``RAISING_STEPS_DIGEST``."""
    import hashlib

    from qcb.canonical import _raise_once

    modules = sweep_modules()
    assert len(modules) == 136
    digest = hashlib.sha256()
    for kind, lam in modules:
        for t in enumerate_tableaux(lam, kind):
            step = _raise_once(t, shape_tables(t.shape))
            if step is not None:
                i, r, nxt = step
                digest.update(f"{kind} {lam} {t} {i} {r} {nxt}\n".encode())
    assert digest.hexdigest() == RAISING_STEPS_DIGEST


def test_code_crystal_matches_word_crystal():
    """The crystal on slot codes (eps, phi and both operators at every node)
    equals the ``Word`` crystal on the reading of every orthogonal tableau of
    the oracle modules and of a B and a D minus spin module with two columns."""
    from qcb.checks import CODE_CRYSTAL_MODULES, check_code_crystal

    modules = ORACLE_MODULES + [(B3, (1, 1, 1)), (D4, (0, 1, 1, 0))]
    assert list(CODE_CRYSTAL_MODULES) == modules
    assert [r.ok for r in check_code_crystal()] == [True]


def test_raising_and_component_build_no_word(monkeypatch):
    """A cold whole-module D5 (0,1,0,0,1) request builds no ``Word`` in the
    raising walk or the component search: both read the crystal rows of slot
    codes, which are filled during the request without Words."""
    import sys

    import qcb.canonical as canonical
    import qcb.shapes as shapes
    from qcb.crystal import Word

    kind, lam = AlgebraKind("D", 5), (0, 1, 0, 0, 1)
    _clear_shape_tables()
    canonical._marsh_color.cache_clear()
    assert shape_for_lambda(lam, kind).slots  # the slot tables read their weights off Words
    counts = {"hot": 0, "rows": 0}
    post_init = Word.__post_init__

    def counting_post_init(self):
        post_init(self)
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        if names & {"_raise_once", "component"}:
            counts["hot"] += 1

    tensor_apply = shapes.tensor_apply

    def counting_tensor_apply(*args):
        counts["rows"] += 1
        return tensor_apply(*args)

    monkeypatch.setattr(Word, "__post_init__", counting_post_init)
    monkeypatch.setattr(shapes, "tensor_apply", counting_tensor_apply)
    assert canonical_matrix(lam, kind).cols
    assert counts["hot"] == 0
    assert counts["rows"] > 0  # the crystal rows were filled during the request
    _clear_shape_tables()


def test_a_path_builds_no_word(monkeypatch):
    """Once the slot tables are built, ``a_path`` on cold shape tables builds
    no ``Word`` and raises none: it tests membership by lookup in the shape's
    component and walks on slot codes."""
    import qcb.canonical as canonical
    import qcb.shapes as shapes
    from qcb.crystal import Word

    _clear_shape_tables()
    tab = parse_tabloid("s:-1,-2,3,-4/4,-2", B4)
    first = a_path(tab)  # fills the slot tables' crystal rows
    shape_tables.cache_clear()
    counts = {"words": 0, "raised": 0}
    post_init = Word.__post_init__

    def counting_post_init(self):
        counts["words"] += 1
        post_init(self)

    def counting_raise(w):
        counts["raised"] += 1
        return raise_to_highest(w)

    monkeypatch.setattr(Word, "__post_init__", counting_post_init)
    for module in (canonical, shapes):
        monkeypatch.setattr(module, "raise_to_highest", counting_raise)
    assert a_path(tab) == first
    assert counts == {"words": 0, "raised": 0}
    _clear_shape_tables()


def test_skipped_correction_is_refused(monkeypatch):
    """With the correction skipped, whole-module B3 (0,1,2) keeps constant terms
    off the diagonal; the assembly refuses them."""
    import qcb.canonical as canonical
    from qcb.rootdata import InvariantViolation

    monkeypatch.setattr(canonical, "_gamma_symmetrize", lambda c: LaurentPoly.zero())
    _clear_shape_tables()
    with pytest.raises(InvariantViolation, match=r"off the diagonal but not in qZ\[q\]"):
        canonical_matrix((0, 1, 2), B3)
    _clear_shape_tables()


@pytest.mark.parametrize(
    "kind,lam,calls",
    [(B3, (3, 1, 0), 109), (AlgebraKind("B", 5), (0, 1, 0, 0, 1), 95), (AlgebraKind("D", 5), (0, 1, 0, 0, 1), 28)],
)
def test_gamma_is_built_only_where_it_is_not_zero(kind, lam, calls, monkeypatch):
    """A coefficient whose lowest exponent is 1 or more has gamma 0, and the
    correction builds none for it: on a whole module ``_gamma_symmetrize``
    runs once for each logged gamma (1490, 1519 and 459 times without the skip)."""
    import qcb.canonical as canonical

    seen = []
    gamma = canonical._gamma_symmetrize
    monkeypatch.setattr(canonical, "_gamma_symmetrize", lambda c: seen.append(c) or gamma(c))
    M = canonical_matrix(lam, kind)
    assert len(seen) == len(M.gamma) == calls


def test_repeated_request_raises_nothing(monkeypatch):
    """A second request for a weight space reads every raising step and every
    A(T) from the shape's tables: it raises nothing and applies no divided power."""
    import qcb.canonical as canonical
    import qcb.modvec as modvec

    calls = []
    raise_once = canonical._raise_once

    def counting_raise_once(cur, tables):
        calls.append(cur)
        return raise_once(cur, tables)

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


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_builder_and_a_path_share_the_walk(kind, lam, monkeypatch):
    """The shape's stored raising steps serve both walks.  After a whole-module
    request, ``a_path`` on every tableau raises nothing, and its first step is
    the stored one.  After ``a_path`` on cold tables, a weight request raises
    none of the tableaux that walk visited."""
    import qcb.canonical as canonical

    calls = []
    raise_once = canonical._raise_once
    monkeypatch.setattr(canonical, "_raise_once", lambda cur, tables: calls.append(cur) or raise_once(cur, tables))
    shape = shape_for_lambda(lam, kind)
    _clear_shape_tables()
    tabs = canonical_matrix(lam, kind).cols
    calls.clear()
    steps = shape_tables(shape).steps
    for t in tabs:
        ap = a_path(t)
        step = steps[t]
        if step is None:
            assert ap.steps == () and ap.base == t, t
        else:
            assert (ap.steps[0], ap.intermediates[0]) == (step[:2], step[2]), t
    assert calls == []

    _clear_shape_tables()
    ap = a_path(tabs[0])
    visited = {tabs[0], *ap.intermediates}
    assert set(calls) == visited
    calls.clear()
    assert canonical_matrix(lam, kind, weight2_of_tabloid(tabs[0])).cols
    assert visited.isdisjoint(calls)
    _clear_shape_tables()


@pytest.mark.parametrize("kind,lam", [(B3, (3, 1, 0)), (AlgebraKind("B", 5), (0, 1, 0, 0, 1))])
def test_hot_paths_look_the_shape_up_once_a_step(kind, lam):
    """A whole-module request on cleared shape tables (the slot tables, with
    their crystal rows and coded powers, shared by the shapes and already
    filled) looks the shape's tables up at most 2 times a tableau: about
    once a divided power, while the raising walk and its membership tests
    read the tables the builder holds; then it indexes their per-node
    tuples."""
    canonical_matrix(lam, kind)
    shape_tables.cache_clear()
    before = shape_tables.cache_info().hits
    M = canonical_matrix(lam, kind)
    tables = shape_tables.cache_info().hits - before
    assert tables <= 2 * len(M.cols), tables / len(M.cols)
    _clear_shape_tables()


def test_per_shape_tables_stay_bounded():
    """Weight requests on more shapes than a cache keeps leave every per-shape
    table bounded.  The slot tables, which hold the crystal rows and coded
    powers, are shared by the shapes: B2 has three slot kinds (heights 1 and 2,
    and the spin class)."""
    from qcb.shapes import slot_table

    _clear_shape_tables()
    lams = [(1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (0, 3), (2, 2), (1, 2), (3, 0), (0, 4)]
    assert len({shape_for_lambda(lam, B2) for lam in lams}) == len(lams)
    for lam in lams:
        tabs = enumerate_tableaux(lam, B2)
        assert canonical_matrix(lam, B2, weight2_of_tabloid(tabs[len(tabs) // 2])).cols
    assert shape_tables.cache_info().currsize <= 8
    assert slot_table.cache_info().currsize <= 3


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
        # modules whose raising walks take crystal-string steps
        (D3, (2, 1, 2), (2, 2, 1), 5250),
        (D3, (2, 0, 3), (2, 3, 0), 4354),
        (D4, (2, 1, 0, 1), (2, 1, 1, 0), 55154),
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
        g = marsh(t.columns[0])[1]
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
