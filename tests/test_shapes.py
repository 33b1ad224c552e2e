import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from math import comb

import pytest
from test_canonical import ORACLE_MODULES

from qcb.crystal import SpinColumn, Word, component_bfs, enumerate_spin_columns, word_apply, word_eps_phi, word_sort_key
from qcb.rootdata import AlgebraKind, alphabet
from qcb.shapes import (
    Column,
    MalformedWord,
    Shape,
    Tabloid,
    decompose_lambda,
    enumerate_columns,
    enumerate_tableaux,
    enumerate_tabloids,
    highest_tabloid,
    is_admissible,
    is_valid_column_letters,
    is_orthogonal_tableau,
    orthogonal_tableaux,
    parse_tabloid,
    shape_for_lambda,
    shape_of,
    shape_tables,
    slot_table,
    tabloid_factors,
    tabloid_labels,
    tabloid_of_codes,
    tabloid_reading,
    tabloid_sort_key,
    weight2_of_tabloid,
    word_to_tabloid,
)

B2 = AlgebraKind("B", 2)
B3 = AlgebraKind("B", 3)
D3 = AlgebraKind("D", 3)

# tabloids of shape (3,2,1), weight (0,2,-1), in increasing reading order
WEIGHT_SPACE_ROWS = [
    "2,-3,-1/2,0/1", "2,0,-1/2,-3/1", "2,0,-3/2,-1/1", "0,-3,-1/1,2/2", "2,-3,-1/1,0/2",
    "2,0,-1/1,-3/2", "2,0,-3/1,-1/2", "1,-3,-1/2,0/2", "2,-3,-2/2,0/2", "0,0,-3/2,0/2",
    "1,0,-1/2,-3/2", "2,0,-2/2,-3/2", "3,0,-3/2,-3/2", "0,0,0/2,-3/2", "2,0,-3/2,-2/2",
    "1,0,-3/2,-1/2", "2,0,-3/3,-3/2", "2,0,-3/0,0/2", "1,2,-1/0,-3/2", "2,3,-3/0,-3/2",
    "2,0,0/0,-3/2", "1,2,-3/0,-1/2", "1,2,0/-3,-1/2", "2,0,-3/2,-3/3", "2,-3,-1/1,2/0",
    "2,0,-3/2,0/0", "1,2,-1/2,-3/0", "2,3,-3/2,-3/0", "2,0,0/2,-3/0", "1,2,-3/2,-1/0",
    "2,0,-1/1,2/-3", "2,0,-3/2,3/-3", "1,2,-1/2,0/-3", "2,3,-3/2,0/-3", "2,0,0/2,0/-3",
    "2,3,0/2,-3/-3", "1,2,0/2,-1/-3", "2,0,-3/1,2/-1", "1,2,-3/2,0/-1", "1,2,0/2,-3/-1",
]


def test_column_validation():
    Column(B2, (1, 0, 0, -1))
    Column(D3, (3, -3, 3))
    Column(D3, (2, 3))
    Column(D3, (2, -3))
    with pytest.raises(ValueError):
        Column(B2, (1, 1))
    with pytest.raises(ValueError):
        Column(D3, (3, 3))
    with pytest.raises(ValueError):
        Column(D3, (1, 0))
    with pytest.raises(ValueError):
        Column(B2, (2, 1))


def test_decompose_lambda():
    assert decompose_lambda((1, 1, 3), B3) == ("B", (1, 1, 2))
    assert decompose_lambda((0, 0, 2), B3) == (None, (0, 0, 2))
    assert decompose_lambda((0, 1, 2), D3) == ("D+", (0, 1, 1))
    assert decompose_lambda((0, 2, 1), D3) == ("D-", (0, 1, 1))
    assert decompose_lambda((1, 2, 2), D3) == (None, (1, 2, 2))


def test_shape_of():
    s = shape_of((1, 1, 2), None, B3)
    assert s.heights == (3, 2, 1) and s.d_sign is None and not s.has_spin()
    s = shape_of((1, 0, 2), None, D3)
    assert s.heights == (3, 1) and s.d_sign == "+"
    s = shape_of((0, 0, 0), None, B3)
    assert s.heights == ()
    s = shape_of((0, 2, 0), "D-", D3)  # 2*Lambda_2 is one height-3 minus column
    assert s.heights == (3,) and s.spin_class == "D-" and s.d_sign == "-"
    s = shape_of((0, 2, 2), None, D3)  # two height-2 columns
    assert s.heights == (2, 2) and s.d_sign == "0"
    from qcb.shapes import NotInOmegaPlus

    with pytest.raises(NotInOmegaPlus):
        shape_of((0, 0, 1), None, B3)


def test_shape_for_lambda_is_injective():
    """Distinct dominant weights with |lambda| <= 3 get distinct shapes, at B3 and at D3."""
    for kind in (B3, D3):
        lams = [lam for lam in itertools.product(range(4), repeat=3) if sum(lam) <= 3]
        shapes = {shape_for_lambda(lam, kind) for lam in lams}
        assert len(shapes) == len(lams), kind


def test_shape_for_lambda_is_one_object_per_weight():
    """A weight given as a list or a tuple finds the same cached shape."""
    for kind, lam in ORACLE_MODULES:
        assert shape_for_lambda(list(lam), kind) is shape_for_lambda(lam, kind)


def test_highest_tabloid():
    t = highest_tabloid(shape_for_lambda((1, 1, 2), B3))
    assert str(t) == "1,2,3/1,2/1"
    t = highest_tabloid(shape_for_lambda((0, 2, 2), D3))  # 2 omega_2 = two height-2 columns
    assert [c.letters for c in t.columns] == [(1, 2), (1, 2)]
    # minus shape fills the bottom of full columns with -n
    minus = shape_for_lambda((0, 2, 0), D3)
    assert minus.d_sign == "-"
    t = highest_tabloid(minus)
    assert t.columns[0].letters == (1, 2, -3)
    spin_minus = shape_for_lambda((0, 1, 0), D3)
    assert spin_minus.spin_class == "D-"
    assert highest_tabloid(spin_minus).spin.letters() == (1, 2, -3)


def test_reading_and_parse():
    t = parse_tabloid("2,0,-2/2,-3/2", B3)
    assert tabloid_reading(t).letters == (2, 2, -3, 2, 0, -2)
    spin_t = parse_tabloid("s:1,-2/1", B2)
    w = tabloid_reading(spin_t)
    assert w.spin.letters() == (1, -2) and w.letters == (1,)
    assert str(spin_t) == "s:1,-2/1"


def test_word_to_tabloid_roundtrip():
    for text in ("2,0,-2/2,-3/2", "2,0,0/2,-3/3"):
        t = parse_tabloid(text, B3)
        assert word_to_tabloid(tabloid_reading(t), t.shape) == t
    spin_t = parse_tabloid("s:1,-2,3/2,0/1", B3)
    assert tabloid_factors(spin_t) == (spin_t.spin, *reversed(spin_t.columns))
    assert spin_t.shape.codes_of(tabloid_factors(spin_t)) == spin_t.codes
    assert word_to_tabloid(tabloid_reading(spin_t), spin_t.shape) == spin_t
    shape = shape_for_lambda((1, 1, 2), B3)
    with pytest.raises(MalformedWord):
        word_to_tabloid(Word(B3, (1, 2)), shape)
    with pytest.raises(MalformedWord):  # the height-2 column 2,1 is not a filling
        word_to_tabloid(Word(B3, (1, 2, 1, 1, 2, 3)), shape)


def test_admissibility():
    assert not is_admissible(Column(B2, (1, -1)))
    assert is_admissible(Column(B3, (1, 2, 3)))
    assert is_admissible(Column(B2, (0, 0)))
    # type D height-n columns may raise to either class top
    assert is_admissible(Column(D3, (1, 2, -3)))
    assert is_admissible(Column(D3, (1, 2, 3)))


def test_orthogonal_tableau_examples():
    shape = shape_for_lambda((1, 1, 2), B3)
    assert is_orthogonal_tableau(highest_tabloid(shape))
    t1 = parse_tabloid("2,0,-2/2,-3/2", B3)
    assert is_orthogonal_tableau(t1)
    bad = parse_tabloid("2,-3,-1/2,0/1", B3)
    assert not is_orthogonal_tableau(bad)


def test_column_counts():
    assert len(enumerate_columns(B2, 2)) == 11
    assert len(enumerate_columns(B2, 2, admissible_only=True)) == 10
    for n in range(2, 5):
        kind = AlgebraKind("B", n)
        for p in range(1, n + 1):
            allc = enumerate_columns(kind, p)
            assert len(allc) == sum(comb(2 * n + 1, p - 2 * k) for k in range(p // 2 + 1))
            assert len(enumerate_columns(kind, p, admissible_only=True)) == comb(2 * n + 1, p)
    for n in range(3, 6):
        kind = AlgebraKind("D", n)
        for p in range(1, n + 1):
            # p - m letters off {n, -n}, and a run of m alternating n, -n begun either way
            allc = enumerate_columns(kind, p)
            assert len(allc) == comb(2 * n - 2, p) + 2 * sum(comb(2 * n - 2, p - m) for m in range(1, p + 1))
            assert len(enumerate_columns(kind, p, admissible_only=True)) == comb(2 * n, p)
    # brute force: every word the column condition accepts, in reading order
    for kind in (B2, B3, AlgebraKind("B", 4), D3, AlgebraKind("D", 4)):
        for p in range(1, kind.rank + 1):
            words = [w for w in itertools.product(alphabet(kind), repeat=p) if is_valid_column_letters(kind, w)]
            brute = sorted((Column(kind, w) for w in words), key=lambda c: word_sort_key(c.word()))
            assert enumerate_columns(kind, p) == tuple(brute)


def test_enumerate_tabloids_weight_space():
    shape = shape_for_lambda((1, 1, 2), B3)
    rows = enumerate_tabloids(shape, (0, 4, -2))
    assert [str(t) for t in rows] == WEIGHT_SPACE_ROWS
    # weight of the highest tableau picks out a singleton containing it
    top = highest_tabloid(shape)
    rows = enumerate_tabloids(shape, weight2_of_tabloid(top))
    assert top in rows
    empty = shape_of((0, 0, 0), None, B3)
    assert len(enumerate_tabloids(empty, (0, 0, 0))) == 1


def test_enumerate_tableaux():
    cols = enumerate_columns(B2, 2, admissible_only=True)
    tabs = enumerate_tableaux((0, 2), B2)
    assert [t.columns[0] for t in tabs] == list(cols)
    assert len(enumerate_tableaux((1, 0), B2)) == 5
    # whole component equals the BFS set
    shape = shape_for_lambda((1, 1), B2)
    comp = component_bfs(tabloid_reading(highest_tabloid(shape)))
    assert {tabloid_reading(t) for t in enumerate_tableaux((1, 1), B2)} == comp


def test_tabloid_order():
    t1 = parse_tabloid("2,-3,-1/2,0/1", B3)
    t2 = parse_tabloid("2,0,-2/2,-3/2", B3)
    assert tabloid_sort_key(t1) < tabloid_sort_key(t2)
    assert t1.shape == t2.shape and t1.codes < t2.codes


@pytest.mark.parametrize(
    "kind,lam,spin_class,d_sign",
    [
        (B3, (1, 1, 2), None, None),
        (B3, (0, 1, 1), "B", None),
        (AlgebraKind("D", 4), (0, 1, 0, 1), "D+", "0"),
        (AlgebraKind("D", 4), (1, 0, 2, 1), "D-", "0"),
        (AlgebraKind("D", 4), (0, 0, 3, 0), "D-", "-"),
        (B3, (0, 0, 1), "B", None),  # spin only: the first slot is the last
        (B3, (0, 0, 0), None, None),  # no slot at all
    ],
)
def test_enumeration_is_in_reading_order(kind, lam, spin_class, d_sign):
    """Both enumerations list tabloids strictly ascending; a weight's list is the whole list filtered."""
    shape = shape_for_lambda(lam, kind)
    assert (shape.spin_class, shape.d_sign) == (spin_class, d_sign)
    rows = enumerate_tabloids(shape)
    keys = [tabloid_sort_key(t) for t in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # code order is the total order, and the codes name the same object
    codes = [t.codes for t in rows]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert all(tabloid_of_codes(shape, t.codes) is t for t in rows)
    assert len(rows) == sum(shape_tables(shape).suffix_counts[0].values())
    by_weight: dict = {}
    for t in rows:
        by_weight.setdefault(weight2_of_tabloid(t), []).append(t)
    for mu, want in by_weight.items():
        assert enumerate_tabloids(shape, mu) == want
    assert enumerate_tabloids(shape, (2 * shape.boxes + 2,) * kind.rank) == []


def test_weight_of_tabloid():
    t1 = parse_tabloid("2,0,-2/2,-3/2", B3)
    assert weight2_of_tabloid(t1) == (0, 4, -2)
    top = highest_tabloid(shape_for_lambda((1, 1, 2), B3))
    assert weight2_of_tabloid(top) == (6, 4, 2)  # epsilon coordinates (3,2,1)
    spin = Tabloid(shape_for_lambda((0, 0, 1), B3), SpinColumn.highest(B3), ())
    assert weight2_of_tabloid(spin) == (1, 1, 1)


@pytest.mark.parametrize(
    "kind,lam,spin,columns",
    [
        (B3, (1, 1, 0), None, (Column(B3, (1,)), Column(B3, (1, 2)))),  # heights differ from the shape's
        (B3, (1, 0, 1), None, (Column(B3, (1,)),)),  # the shape needs a spin column
        (B3, (1, 0, 0), SpinColumn.highest(B3), (Column(B3, (1,)),)),  # the shape has no spin slot
        (D3, (0, 1, 0), SpinColumn.highest(D3), ()),  # class D+ in a D- slot
        (B3, (0, 0, 1), SpinColumn.highest(D3), ()),  # a D spin column in a B slot
        (B3, (1, 0, 0), None, (Column(D3, (1,)),)),  # a D column in a B shape
    ],
    ids=["heights", "spin-missing", "spin-extra", "spin-class", "spin-type", "column-kind"],
)
def test_spin_tabloid_validation(kind, lam, spin, columns):
    with pytest.raises(ValueError):
        Tabloid(shape_for_lambda(lam, kind), spin, columns)


def test_spin_tabloid_of_its_class():
    Tabloid(shape_for_lambda((0, 1, 0), D3), SpinColumn.highest_minus(D3), ())  # spin class D-


def test_membership_splits_weight_space():
    shape = shape_for_lambda((1, 1, 2), B3)
    rows = enumerate_tabloids(shape, (0, 4, -2))
    flags = [is_orthogonal_tableau(t) for t in rows]
    assert sum(flags) == 11
    members = {str(t) for t, ok in zip(rows, flags) if ok}
    assert {str(t) for t in enumerate_tableaux((1, 1, 2), B3, weight2=(0, 4, -2))} == members


def test_weight_outside_the_packing_range_has_no_tabloids():
    """A requested weight is packed only when every coordinate lies in
    (-base/2, base/2): (base, -1) packs to 0 like the zero weight, and one of
    another rank would pack like its first coordinates; both have no tabloid."""
    shape = shape_for_lambda((2, 0), B2)
    tables = shape_tables(shape)
    base = 4 * shape.boxes + 4
    zero = enumerate_tabloids(shape, (0, 0))
    assert zero and all(weight2_of_tabloid(t) == (0, 0) for t in zero)
    assert sum(x * base**j for j, x in enumerate((base, -1))) == 0
    for w in ((base, -1), (-base, 1), (base // 2, 0), (0, -(base // 2)), (0,), (0, 0, 0)):
        assert tables.pack(w) is None, w
        assert enumerate_tabloids(shape, w) == [], w
    # every tabloid weight packs, distinct weights to distinct ints
    packed = {mu: tables.pack(mu) for mu in map(weight2_of_tabloid, enumerate_tabloids(shape))}
    assert None not in packed.values() and len(set(packed.values())) == len(packed)
    assert set(packed.values()) == set(tables.suffix_counts[0])


@pytest.mark.parametrize(
    "kind,lam", ORACLE_MODULES + [(AlgebraKind("B", 5), (0, 1, 0, 0, 1)), (AlgebraKind("D", 5), (0, 1, 0, 0, 1))]
)
def test_component_weights_are_the_tableaux_weights(kind, lam):
    """The component finds each tableau's weight by its packed sum; it is the
    weight of the reading, and each distinct weight is one tuple."""
    table = orthogonal_tableaux(shape_for_lambda(lam, kind))
    assert all(mu == weight2_of_tabloid(t) for t, mu in table.items())
    assert len({id(mu) for mu in table.values()}) == len(set(table.values()))


@pytest.mark.parametrize(
    "kind,lam", [(B2, (1, 1)), (B3, (1, 1, 2)), (D3, (1, 1, 1)), (AlgebraKind("D", 4), (0, 0, 1, 2))]
)
def test_tabloid_weight_counts(kind, lam):
    """The shape's weight counts (``ShapeTables.suffix_counts``) count its tabloids of each weight."""
    shape = shape_for_lambda(lam, kind)
    tables = shape_tables(shape)
    assert tables.suffix_counts[0] == Counter(tables.pack(weight2_of_tabloid(t)) for t in enumerate_tabloids(shape))


@pytest.mark.parametrize(
    "kind,lam",
    [
        (B2, (1, 1)),
        (B3, (0, 1, 1)),
        (AlgebraKind("D", 4), (1, 0, 1, 1)),
        (AlgebraKind("D", 4), (0, 0, 1, 2)),
        (AlgebraKind("B", 4), (1, 1, 0, 1)),
    ],
)
def test_cached_component_shares_one_column_per_filling(kind, lam):
    shape = shape_for_lambda(lam, kind)
    columns = {h: {c.letters: c for c in enumerate_columns(kind, h)} for h in set(shape.heights)}
    spins = {s: s for s in enumerate_spin_columns(kind)}
    weights = {}
    for t, mu in orthogonal_tableaux(shape).items():
        for c in t.columns:
            assert c is columns[c.height][c.letters]
        assert t.spin is None or t.spin is spins[t.spin]
        assert weights.setdefault(mu, mu) is mu


@pytest.mark.parametrize("kind,lam", [(B3, (0, 1, 1)), (AlgebraKind("D", 4), (1, 0, 2, 0))])
def test_one_filling_is_one_object(kind, lam):
    """Readings, enumerations, tableaux and divided powers hand out the shape's one object per filling."""
    from qcb.modvec import decoded, highest_vector, module_f_divided

    shape = shape_for_lambda(lam, kind)
    assert shape.has_spin() or shape.d_sign == "-"
    table = orthogonal_tableaux(shape)
    tableau_of = {t: t for t in table}
    rows = {mu: {id(r) for r in enumerate_tabloids(shape, mu)} for mu in set(table.values())}
    for t, mu in table.items():
        assert word_to_tabloid(tabloid_reading(t), shape) is t
        assert id(t) in rows[mu]
    seen = 0
    frontier = [highest_vector(lam, kind)]
    for _ in range(4):
        nxt = []
        for v in frontier:
            for i in range(1, kind.rank + 1):
                for m in (1, 2):
                    w = module_f_divided(v, i, m)
                    for tau, _c in decoded(w).terms:
                        assert word_to_tabloid(tabloid_reading(tau), shape) is tau
                        mu = weight2_of_tabloid(tau)
                        if mu not in rows:
                            rows[mu] = {id(r) for r in enumerate_tabloids(shape, mu)}
                        assert id(tau) in rows[mu]
                        assert tableau_of.get(tau, tau) is tau
                        seen += tau in tableau_of
                    if w.terms:
                        nxt.append(w)
        frontier = nxt[:6]
    assert seen > 0


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_tabloid_is_a_value_of_its_shape_and_codes(kind, lam):
    """Rebuilt from its spin column and columns a tabloid is the shape's one
    object; rebuilt after the shape's tables are dropped it is another
    object, equal, with an equal hash; its factors lead back to the shape's
    one object; its text is that of its parts; and none of its attributes
    can be set or deleted."""
    shape = shape_for_lambda(lam, kind)
    rows = enumerate_tabloids(shape)
    shape_tables.cache_clear()
    for t in rows:
        u = Tabloid(shape, t.spin, t.columns)
        assert u == t and hash(u) == hash(t) and u is not t
    for t in enumerate_tabloids(shape):
        assert Tabloid(shape, t.spin, t.columns) is t
        assert tabloid_of_codes(shape, shape.codes_of(tabloid_factors(t))) is t
        parts = [str(c) for c in t.columns]
        assert str(t) == "/".join(parts if t.spin is None else [str(t.spin), *parts])
        for name in ("shape", "codes", "spin", "columns", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)


PICKLE_SCRIPT = """
import pickle, sys
from qcb.rootdata import AlgebraKind
from qcb.shapes import parse_tabloid

tab = parse_tabloid("s:-1,2,3/2,0,-3/2,-3/1", AlgebraKind("B", 3))
if sys.argv[1] == "dump":
    hash(tab)  # fill the cached hashes before pickling
    sys.stdout.buffer.write(pickle.dumps(tab))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert hash(loaded) == hash(tab) and {tab: 1}[loaded] == 1
    assert {loaded.spin: 1}[tab.spin] == 1 and {loaded.columns[0]: 1}[tab.columns[0]] == 1
"""


def test_cached_hash_does_not_travel_through_pickle():
    """Hashes involve salted string hashes, so a pickled cache would be wrong
    in an interpreter with another hash seed."""

    def run(seed, mode, data=None):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-c", PICKLE_SCRIPT, mode], input=data, capture_output=True, env=env, check=True
        ).stdout

    run("2", "load", run("1", "dump"))


def test_slot_texts_need_no_json_escaping():
    """The writers print labels from the slot texts between bare quotes: every
    text of every slot of B2-B6 and D3-D6 is its own JSON string body."""
    for family, ranks in (("B", range(2, 7)), ("D", range(3, 7))):
        for n in ranks:
            kind = AlgebraKind(family, n)
            spins = ("B",) if family == "B" else ("D+", "D-")
            for slot in (*range(1, n + 1), *spins):
                for text in slot_table(kind, slot).texts:
                    assert json.dumps(text) == f'"{text}"', (family, n, slot, text)


def test_slot_crystal_matches_word_crystal_on_every_filling():
    """Each slot kind's crystal rows, on every filling of B2-B5 and D3-D5 and
    not only those in some tableau: at every node (eps, phi) is the ``Word``
    crystal's, the e and f codes code the words ``word_apply`` gives, and
    highest says every eps is 0."""
    fillings = 0
    for family, ranks in (("B", range(2, 6)), ("D", range(3, 6))):
        for n in ranks:
            kind = AlgebraKind(family, n)
            spins = ("B",) if family == "B" else ("D+", "D-")
            for slot in (*range(1, n + 1), *spins):
                table = slot_table(kind, slot)
                assert sorted(table.crystal) == list(range(1, n + 1))
                for c, f in enumerate(table.fillings):
                    w = Word(kind, (), f) if isinstance(f, SpinColumn) else f.word()
                    for i in range(1, n + 1):
                        eps, phi, e, fc, highest = table.crystal[i][c]
                        assert (eps, phi) == word_eps_phi(w, i), (kind, slot, str(f), i)
                        for code, d in ((e, "e"), (fc, "f")):
                            v = word_apply(w, i, d)
                            want = None if v is None else table.index[v.spin if v.spin is not None else Column(kind, v.letters)]
                            assert code == want, (kind, slot, str(f), i, d)
                        assert highest == all(word_eps_phi(w, j)[0] == 0 for j in range(1, n + 1)), (kind, slot, str(f))
                fillings += len(table.fillings)
    assert fillings == 2844


@pytest.mark.parametrize("kind,lam", ORACLE_MODULES)
def test_tabloid_labels_print_each_tabloid(kind, lam):
    """The shared label rule prints every tabloid of the shape as str() does,
    and as its spin column and columns, left to right, print."""
    tabs = enumerate_tabloids(shape_for_lambda(lam, kind))
    labels = list(tabloid_labels(tabs))
    assert labels == [str(t) for t in tabs]
    for t, label in zip(tabs, labels):
        parts = [str(c) for c in t.columns]
        assert label == "/".join(parts if t.spin is None else [str(t.spin), *parts])
    assert list(tabloid_labels(())) == []
