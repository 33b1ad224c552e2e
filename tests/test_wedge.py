import pytest

from qcb.checks import divided_powers_match_plain
from qcb.cli import _json_terms
from qcb.crystal import word_sort_key
from qcb.laurent import LaurentPoly, SparseVector
from qcb.rootdata import AlgebraKind, cartan_exponent, letter_weight2, weight2_add
from qcb.shapes import Column, enumerate_columns, slot_table
from qcb.wedge import (
    StepLimitExceeded,
    straighten,
    tensor_lift_f,
    wedge_f,
    wedge_f_divided,
)

B2 = AlgebraKind("B", 2)
B3 = AlgebraKind("B", 3)
D2 = AlgebraKind("D", 2, experimental=True)
D3 = AlgebraKind("D", 3)


def P(*terms):
    return LaurentPoly(list(terms))


def terms_of(vec):
    return {str(c): str(v) for c, v in vec.terms}


def test_straighten_identity_on_columns():
    v = straighten(B2, (1, 0, 0, -1))
    assert terms_of(v) == {"1,0,0,-1": "1"}


def test_straighten_equal_letters():
    assert straighten(B2, (2, 2)).is_zero()
    assert straighten(D3, (3, 3)).is_zero()
    assert not straighten(B2, (0, 0)).is_zero()


def test_straighten_mirror_pair_B():
    v = straighten(B2, (-1, 1))
    assert terms_of(v) == {"1,-1": "-q^4", "2,-2": "-q^2+q^6", "0,0": "q^3"}


def test_straighten_mirror_pair_D():
    v = straighten(D2, (-1, 1))
    assert terms_of(v) == {"1,-1": "-q^2", "2,-2": "-q", "-2,2": "-q"}


def test_straighten_swap():
    assert terms_of(straighten(B2, (2, 1))) == {"1,2": "-q^2"}
    assert terms_of(straighten(D3, (2, 1))) == {"1,2": "-q"}


def test_wedge_f_examples():
    v = wedge_f(Column(B2, (1, -2)), 1)
    assert terms_of(v) == {"2,-2": "1", "1,-1": "q^2"}
    v = wedge_f(Column(B2, (0, 0)), 2)
    assert terms_of(v) == {"0,-2": "q^-1-q^3"}
    v = wedge_f(Column(D3, (2, 3)), 3)
    assert terms_of(v) == {"-3,3": "1", "2,-2": "q"}


def test_wedge_t_exponent():
    def t_exponent(col, i):
        return cartan_exponent(col.weight2(), i, col.kind)

    assert t_exponent(Column(B2, (1, 2)), 1) == 0
    assert t_exponent(Column(B2, (1, 2)), 2) == 2
    assert t_exponent(Column(B3, (0, 0)), 2) == 0


def test_divided_powers():
    n = 3
    v = wedge_f_divided(Column(B3, (n,)), n, 2)
    assert terms_of(v) == {"-3": "1"}
    v = wedge_f_divided(Column(B2, (1, 2)), 1, 2)
    assert v.is_zero()
    v = wedge_f_divided(Column(B2, (1, 2)), 1, 0)
    assert terms_of(v) == {"1,2": "1"}


def test_oracle_equivalence_small_ranks():
    for kind in (B2, D2, B3, D3):
        for p in range(1, kind.rank + 1):
            for col in enumerate_columns(kind, p):
                for i in range(1, kind.rank + 1):
                    assert wedge_f(col, i) == tensor_lift_f(col, i), (kind, col, i)


def test_oracle_equivalence_long_D_patterns():
    # alternating n/-n blocks of length >= 4 only exist at rank >= 4
    for kind in (AlgebraKind("D", 4), AlgebraKind("D", 5)):
        n = kind.rank
        for p in (n - 1, n):
            for col in enumerate_columns(kind, p):
                if not any(abs(x) == n for x in col.letters):
                    continue
                for i in (n - 1, n):
                    assert wedge_f(col, i) == tensor_lift_f(col, i), (kind, col, i)


def test_weight_homogeneity():
    for kind in (B2, D3):
        n = kind.rank
        for p in range(1, n + 1):
            for col in enumerate_columns(kind, p):
                for i in range(1, n + 1):
                    out = wedge_f(col, i)
                    alpha = [0] * n
                    if i < n:
                        alpha[i - 1], alpha[i] = 2, -2
                    elif kind.family == "B":
                        alpha[n - 1] = 2
                    else:
                        alpha[n - 2], alpha[n - 1] = 2, 2
                    for c, _v in out.terms:
                        assert weight2_add(c.weight2(), tuple(alpha)) == col.weight2()


def test_straighten_integrality():
    import itertools
    from qcb.rootdata import alphabet

    for kind in (B2, D3):
        letters = alphabet(kind)
        for p in (1, 2):
            for mono in itertools.product(letters, repeat=p):
                for _c, v in straighten(kind, mono).terms:
                    assert v.min_exp() >= 0


def test_step_limit_env(monkeypatch):
    import qcb.wedge
    from qcb.wedge import _straighten_cached, step_limit

    assert step_limit(1) == 16 and step_limit(3) == 90
    monkeypatch.setattr(qcb.wedge, "step_limit", lambda p: 1)
    _straighten_cached.cache_clear()
    with pytest.raises(StepLimitExceeded):
        straighten(B3, (-1, 1, 0))
    monkeypatch.undo()
    _straighten_cached.cache_clear()
    straighten(B3, (-1, 1, 0))


def test_vector_addition_and_json():
    a = SparseVector.unit(Column(B2, (1, 2)))
    b = a.scale(P((1, 1)))
    s = a + b
    assert terms_of(s) == {"1,2": "1+q"}
    doc = _json_terms(s, "column", lambda col: word_sort_key(col.word()))
    assert [(t["column"], t["coeff"].json_terms()) for t in doc] == [("1,2", [[0, 1], [1, 1]])]
    # the JSON form lists columns in the letter order, whatever the insertion order
    v = SparseVector({Column(B2, (2, -2)): P((0, 1)), Column(B2, (1, 2)): P((1, 1))})
    assert [t["column"] for t in _json_terms(v, "column", lambda col: word_sort_key(col.word()))] == ["1,2", "2,-2"]


@pytest.mark.parametrize("kind", [AlgebraKind("B", n) for n in range(2, 6)] + [AlgebraKind("D", n) for n in range(3, 6)], ids=str)
def test_divided_powers_match_plain_powers(kind):
    """On every filling of every column slot table, at every node, each f_i^(k)
    equals k plain f_i steps divided exactly by [k]_i!, up to the first zero:
    the ``qcb check`` property ``wedge.divided_powers_exact``."""
    nodes = range(1, kind.rank + 1)
    bad = [(str(col), i) for p in nodes for col in slot_table(kind, p).fillings for i in nodes if not divided_powers_match_plain(col, i)]
    assert not bad
