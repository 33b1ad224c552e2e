import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from qcb.crystal import (
    SpinColumn,
    Word,
    component_bfs,
    enumerate_spin_columns,
    raise_to_highest,
    spin_apply,
    vec_edge,
    word_apply,
    word_eps_phi,
)
from qcb.checks import _simple_root2
from qcb.rootdata import AlgebraKind, alphabet, cartan_exponent, letter_weight2, weight2_add
from qcb.shapes import highest_tabloid, shape_for_lambda, tabloid_reading

B2 = AlgebraKind("B", 2)
B3 = AlgebraKind("B", 3)
D3 = AlgebraKind("D", 3)


def spin_eps_phi(s, i):
    """(eps_i, phi_i) of a spin column: the word of that one factor."""
    return word_eps_phi(Word(s.kind, (), s), i)


def W(kind, *letters):
    return Word(kind, letters)


def test_vector_edges_B():
    assert vec_edge(3, 3, "f", B3) == 0
    assert vec_edge(0, 3, "f", B3) == -3
    assert vec_edge(2, 1, "f", B3) is None
    assert vec_edge(-3, 2, "f", B3) == -2
    assert vec_edge(0, 3, "e", B3) == 3


def test_vector_edges_D_diamond():
    assert vec_edge(2, 3, "f", D3) == -3
    assert vec_edge(3, 3, "f", D3) == -2
    assert vec_edge(2, 2, "f", D3) == 3
    assert vec_edge(-3, 2, "f", D3) == -2
    assert vec_edge(-3, 3, "e", D3) == 2
    assert vec_edge(3, 2, "e", D3) == 2


def test_word_eps_phi_examples():
    assert word_eps_phi(W(B2, 1), 1) == (0, 1)
    assert word_eps_phi(W(B2, 1, 1), 1)[1] == 2
    assert word_eps_phi(W(B2, 0, 0), 2) == (1, 1)


def test_word_apply_examples():
    assert word_apply(W(B2, 1, 1), 1, "f") == W(B2, 2, 1)
    assert word_apply(W(B2, 0, 0), 2, "e") == W(B2, 2, 0)
    assert word_apply(W(B2, 1, 2), 1, "e") is None


def test_raise_to_highest():
    w, path = raise_to_highest(W(B2, 1, 2))
    assert w == W(B2, 1, 2) and path == []
    w, path = raise_to_highest(W(B2, 0, 0))
    assert w == W(B2, 1, 2)
    assert sum(c for _i, c in path) == 3
    w, path = raise_to_highest(W(B2, -2))
    assert w == W(B2, 1)
    assert sum(c for _i, c in path) == 3


def test_component_sizes():
    assert len(component_bfs(W(B2, 1))) == 5
    assert len(component_bfs(W(D3, 1))) == 6
    assert len(component_bfs(W(B2, 1, 2))) == 10
    # CPython hashes -1 and -2 alike, yet the words of a component hash apart
    B4, D4 = AlgebraKind("B", 4), AlgebraKind("D", 4)
    for kind, lam, size in [(B3, (3, 1, 0), 819), (B4, (1, 1, 0, 1), 2560), (D4, (0, 1, 1, 1), 840)]:
        words = component_bfs(tabloid_reading(highest_tabloid(shape_for_lambda(lam, kind))))
        assert len(words) == size
        assert len({hash(w) for w in words}) == size, (kind, lam)


def test_raising_is_schedule_independent():
    rng = random.Random(11)
    for kind in (B2, B3, D3):
        letters = alphabet(kind)
        for _ in range(60):
            w = Word(kind, tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))))
            hw, _ = raise_to_highest(w)
            x = w
            while True:
                options = [i for i in range(1, kind.rank + 1) if word_apply(x, i, "e") is not None]
                if not options:
                    break
                x = word_apply(x, rng.choice(options), "e")
            assert x == hw


@settings(max_examples=120)
@given(
    st.sampled_from([B2, B3, D3]).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            st.lists(st.sampled_from(alphabet(kind)), min_size=1, max_size=6),
            st.integers(1, kind.rank),
        )
    )
)
def test_edge_symmetry(data):
    kind, letters, i = data
    w = Word(kind, tuple(letters))
    v = word_apply(w, i, "f")
    if v is not None:
        assert word_apply(v, i, "e") == w
    u = word_apply(w, i, "e")
    if u is not None:
        assert word_apply(u, i, "f") == w


def test_eps_phi_count_operator_applications():
    rng = random.Random(5)
    for kind in (B3, D3):
        letters = alphabet(kind)
        for _ in range(80):
            w = Word(kind, tuple(rng.choice(letters) for _ in range(rng.randint(1, 5))))
            for i in range(1, kind.rank + 1):
                eps, phi = word_eps_phi(w, i)
                x, cnt = w, 0
                while (x := word_apply(x, i, "e")) is not None:
                    cnt += 1
                assert cnt == eps
                x, cnt = w, 0
                while (x := word_apply(x, i, "f")) is not None:
                    cnt += 1
                assert cnt == phi


def test_letter_table_matches_edges():
    """Letters and spin columns: eps/phi count the steps, e undoes f, f_i lowers the weight by alpha_i."""
    for kind in (B2, B3, AlgebraKind("B", 4), D3, AlgebraKind("D", 4)):
        n = kind.rank
        for x in (*alphabet(kind), *enumerate_spin_columns(kind)):
            if isinstance(x, SpinColumn):
                move, eps_phi, weight = spin_apply, spin_eps_phi, SpinColumn.weight2
            else:
                move = partial(vec_edge, kind=kind)
                eps_phi = lambda x, i: word_eps_phi(Word(kind, (x,)), i)
                weight = partial(letter_weight2, n=n)
            for i in range(1, n + 1):
                counts = []
                for direction in ("e", "f"):
                    y, cnt = x, 0
                    while (y := move(y, i, direction)) is not None:
                        cnt += 1
                    counts.append(cnt)
                assert eps_phi(x, i) == tuple(counts)
                y = move(x, i, "f")
                if y is not None:
                    assert move(y, i, "e") == x
                    assert weight2_add(weight(y), _simple_root2(kind, i)) == weight(x)
    with pytest.raises(ValueError):
        vec_edge(1, 1, "x", B2)
    with pytest.raises(ValueError):
        spin_apply(SpinColumn.highest(B2), 1, "x")


def test_spin_apply_B():
    top = SpinColumn.highest(B3)
    down = spin_apply(top, 3, "f")
    assert down is not None and down.letters() == (1, 2, -3)
    assert spin_apply(down, 3, "f") is None
    assert spin_apply(down, 3, "e") == top


def test_spin_apply_D():
    top = SpinColumn.highest(D3)
    down = spin_apply(top, 3, "f")
    assert down is not None and down.letters() == (1, -3, -2)
    assert down.sign_class() == "+"
    assert spin_apply(down, 3, "f") is None


def test_spin_counts_and_classes():
    assert len(enumerate_spin_columns(B3)) == 8
    assert len(enumerate_spin_columns(D3, "+")) == 4
    assert len(enumerate_spin_columns(D3, "-")) == 4
    d2 = AlgebraKind("D", 2, experimental=True)
    assert len(enumerate_spin_columns(d2, "+")) == 2
    for s in enumerate_spin_columns(D3):
        for i in range(1, 4):
            t = spin_apply(s, i, "f")
            if t is not None:
                assert t.sign_class() == s.sign_class()
                assert spin_apply(t, i, "f") is None  # strings have length <= 1


def test_spin_eps_phi_is_boolean():
    for s in enumerate_spin_columns(B3):
        for i in range(1, 4):
            eps, phi = spin_eps_phi(s, i)
            assert eps in (0, 1) and phi in (0, 1)


def test_spin_word_factor():
    top = SpinColumn.highest(B2)
    w = Word(B2, (1,), spin=top)
    assert word_eps_phi(w, 2) == (0, 1)
    v = word_apply(w, 2, "f")
    assert v.spin.letters() == (1, -2) and v.letters == (1,)
    assert str(v) == "s:1,-2/1"


def test_spin_t_exponents():
    top = SpinColumn.highest(B3)
    assert cartan_exponent(top.weight2(), 3, B3) == 1
    assert cartan_exponent(top.weight2(), 1, B3) == 0
    mixed = SpinColumn(B3, frozenset({2}))  # letters 1, 3, -2
    assert cartan_exponent(mixed.weight2(), 1, B3) == 1


def test_spin_orbit_of_highest_generates_everything():
    for kind, want in ((B3, 8), (D3, 4)):
        seen = {SpinColumn.highest(kind)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for s in frontier:
                for i in range(1, kind.rank + 1):
                    t = spin_apply(s, i, "f")
                    if t is not None and t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        assert len(seen) == want
