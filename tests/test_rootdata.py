import pytest

from qcb.rootdata import (
    AlgebraKind,
    alphabet,
    cartan_exponent,
    letter_key,
    letter_weight2,
    parse_weight,
    qi_exponent,
    weight2_add,
    weight2_zero,
)


def test_kind_validation():
    AlgebraKind("B", 2)
    AlgebraKind("D", 3)
    with pytest.raises(ValueError):
        AlgebraKind("B", 1)
    with pytest.raises(ValueError):
        AlgebraKind("D", 2)
    AlgebraKind("D", 2, experimental=True)
    with pytest.raises(ValueError):
        AlgebraKind("C", 3)


def test_letter_order_examples():
    assert letter_key(1, 2) < letter_key(0, 2)
    assert letter_key(3, 3) < letter_key(-3, 3)
    assert letter_key(-2, 3) < letter_key(-1, 3)
    assert letter_key(0, 2) > letter_key(2, 2)


def test_order_is_total():
    for kind in (AlgebraKind("B", 3), AlgebraKind("D", 3)):
        keys = [letter_key(x, kind.rank) for x in alphabet(kind)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_letter_weights():
    assert letter_weight2(1, 2) == (2, 0)
    assert letter_weight2(0, 2) == (0, 0)
    assert letter_weight2(-2, 2) == (0, -2)
    total = weight2_zero(3)
    for x in alphabet(AlgebraKind("B", 3)):
        total = weight2_add(total, letter_weight2(x, 3))
    assert total == (0, 0, 0)


def test_cartan_exponent():
    b2 = AlgebraKind("B", 2)
    assert cartan_exponent(letter_weight2(2, 2), 2, b2) == 2
    assert cartan_exponent((2, 2), 1, b2) == 0
    d3 = AlgebraKind("D", 3)
    assert cartan_exponent((0, 2, 2), 3, d3) == 2
    # spin weights have odd doubled coordinates
    assert cartan_exponent((1, 1, 1), 3, AlgebraKind("B", 3)) == 1


def test_qi_exponent():
    b4 = AlgebraKind("B", 4)
    assert qi_exponent(b4, 1) == 2
    assert qi_exponent(b4, 4) == 1
    assert qi_exponent(AlgebraKind("D", 3), 2) == 1


def test_parse_weight():
    assert parse_weight("0,2,-1", 3) == (0, 4, -2)
    assert parse_weight("1/2,1/2,-1/2", 3) == (1, 1, -1)
    with pytest.raises(ValueError):
        parse_weight("1,2", 3)
    assert parse_weight("4/2,-1", 2) == (4, -2)


def test_parse_weight_refuses_mixed_parity():
    # a weight's coordinates are all integers or all half-integers
    for text in ("1/2,1", "0,-3/2", "1/2,2/2"):
        with pytest.raises(ValueError, match="mixes integer and half-integer"):
            parse_weight(text, 2)
