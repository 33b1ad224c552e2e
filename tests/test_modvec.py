"""The divided-power recursion is checked against an independent route:
apply the plain coproduct f_i repeatedly and divide by the quantum
factorial.  The plain action needs no binomial exponents, so agreement
pins the recursion's q-powers."""

import random

from test_canonical import ORACLE_MODULES, _clear_shape_tables

from qcb.canonical import canonical_matrix
from qcb.crystal import SpinColumn, enumerate_spin_columns, spin_apply
from qcb.laurent import LaurentPoly, SparseVector, divide_exact, quantum_factorial
from qcb.modvec import apply_monomial, highest_vector, module_f_divided
from qcb.rootdata import AlgebraKind, cartan_exponent, qi_exponent
from qcb.shapes import (
    enumerate_columns,
    shape_for_lambda,
    shape_tables,
    tabloid_factors,
    tabloid_of_factors,
    tabloid_sort_key,
    weight2_of_tabloid,
)
from qcb.wedge import wedge_f, wedge_f_divided

B2 = AlgebraKind("B", 2)
B3 = AlgebraKind("B", 3)
D3 = AlgebraKind("D", 3)


def plain_f(v: SparseVector, i: int, kind: AlgebraKind) -> SparseVector:
    d = qi_exponent(kind, i)
    acc = {}
    for tab, coeff in v.terms:
        shape = tab.shape
        factors = tabloid_factors(tab)
        tpref = LaurentPoly.one()
        for j, f in enumerate(factors):
            if isinstance(f, SpinColumn):
                g = spin_apply(f, i, "f")
                rows = [(g, LaurentPoly.one())] if g is not None else []
            else:
                rows = list(wedge_f(f, i).terms)
            for g, c in rows:
                t = tabloid_of_factors(shape, factors[:j] + (g,) + factors[j + 1 :])
                acc[t] = acc.get(t, LaurentPoly.zero()) + coeff * c * tpref
            tpref = tpref * LaurentPoly.q(d * cartan_exponent(f.weight2(), i, kind))
    return SparseVector(acc)


def brute_divided(v: SparseVector, i: int, m: int, kind: AlgebraKind) -> SparseVector:
    out = v
    for _ in range(m):
        out = plain_f(out, i, kind)
    fact = quantum_factorial(m, qi_exponent(kind, i))
    return SparseVector({t: divide_exact(c, fact) for t, c in out.terms})


def test_divided_power_example():
    v = highest_vector((2, 0), B2)
    out = module_f_divided(v, 1, 2)
    assert [(str(t), str(c)) for t, c in out.terms] == [("2/2", "1")]


def test_base_cases():
    v = highest_vector((0, 2), B2)  # single wedge factor
    assert module_f_divided(v, 2, 0) == v
    out = module_f_divided(v, 2, 1)
    assert [(str(t), str(c)) for t, c in out.terms] == [("1,0", "1")]


def test_recursion_matches_brute_force():
    rng = random.Random(7)
    cases = [
        (B3, (1, 1, 2)), (B3, (1, 0, 1)), (B3, (0, 0, 1)),
        (D3, (1, 1, 0)), (D3, (0, 1, 2)), (D3, (0, 1, 1)),
        (B2, (2, 1)),
    ]
    for kind, lam in cases:
        v = highest_vector(lam, kind)
        for _ in range(10):
            i = rng.randrange(1, kind.rank + 1)
            m = rng.randrange(0, 4)  # 3 is past the reach of most factors
            assert module_f_divided(v, i, m) == brute_divided(v, i, m, kind)
            nv = module_f_divided(v, rng.randrange(1, kind.rank + 1), rng.randrange(1, 3))
            if not nv.is_zero():
                v = nv


def test_divided_power_past_the_reach_is_zero():
    """f_i^(m) on a tabloid is non-zero at the summed reach R of its factors and
    zero at R + 1, where the brute-force route agrees."""
    from qcb.modvec import _factor_powers

    for kind, lam in [(B3, (1, 1, 2)), (D3, (0, 1, 2)), (B2, (2, 1))]:
        v = highest_vector(lam, kind)
        for i in range(1, kind.rank + 1):
            nv = module_f_divided(v, i, 1)
            if not nv.is_zero():
                v = nv
        tab = min((t for t, _c in v.terms), key=tabloid_sort_key)
        unit = SparseVector.unit(tab)
        for i in range(1, kind.rank + 1):
            reach = sum(len(_factor_powers(f, i)[1]) - 1 for f in tabloid_factors(tab))
            assert not module_f_divided(unit, i, reach).is_zero()
            assert module_f_divided(unit, i, reach + 1).is_zero()
            assert brute_divided(unit, i, reach + 1, kind).is_zero()


def test_weight_homogeneity():
    v = highest_vector((1, 1, 2), B3)
    ((top, _c),) = v.terms
    mu = weight2_of_tabloid(top)
    out = module_f_divided(v, 3, 2)
    for t, _c in out.terms:
        assert weight2_of_tabloid(t) == (mu[0], mu[1], mu[2] - 4)


def test_apply_monomial():
    v = highest_vector((1, 1, 2), B3)
    assert apply_monomial(v, []) == v
    # f_2 f_1^(3) f_3^(3) f_2^(2) f_3 applied rightmost-first
    path = [(2, 1), (1, 3), (3, 3), (2, 2), (3, 1)]
    out = apply_monomial(v, path)
    lhs = module_f_divided(
        module_f_divided(
            module_f_divided(module_f_divided(module_f_divided(v, 3, 1), 2, 2), 3, 3), 1, 3
        ),
        2,
        1,
    )
    assert out == lhs


def test_highest_vector_spin_shapes():
    ((t, _c),) = highest_vector((1, 1, 3), B3).terms
    assert t.spin.letters() == (1, 2, 3)
    assert str(t) == "s:1,2,3/1,2,3/1,2/1"
    ((t, _c),) = highest_vector((0, 2, 1), D3).terms
    assert t.spin.letters() == (1, 2, -3)
    assert [c.letters for c in t.columns] == [(1, 2)]


def test_factor_powers_table():
    """Each (factor, i) entry holds the t_i exponent and the terms of every non-zero f_i^(k)."""
    from qcb.modvec import _factor_powers

    for kind in (B2, B3, AlgebraKind("B", 4), D3, AlgebraKind("D", 4)):
        columns = [c for p in range(1, kind.rank + 1) for c in enumerate_columns(kind, p)]
        for f in columns + enumerate_spin_columns(kind):
            for i in range(1, kind.rank + 1):
                a, terms = _factor_powers(f, i)
                powers = tuple(SparseVector(dict(t)) for t in terms)
                assert a == cartan_exponent(f.weight2(), i, kind)
                assert powers[0] == SparseVector.unit(f)
                if isinstance(f, SpinColumn):
                    g = spin_apply(f, i, "f")
                    assert powers[1:] == ((SparseVector.unit(g),) if g is not None else ())
                    # f_i^2 vanishes on the spin module
                    assert g is None or spin_apply(g, i, "f") is None
                else:
                    for k, vec in enumerate(powers):
                        assert vec == wedge_f_divided(f, i, k) and not vec.is_zero()
                    assert wedge_f_divided(f, i, len(powers)).is_zero()


def test_recursion_split_associativity():
    """Splitting the factor chain at any point gives the same coefficients."""
    from qcb.modvec import _expand_divided, _heads
    from qcb.rootdata import weight2_add, weight2_zero

    def polys(pairs):
        return {codes: LaurentPoly(poly) for codes, poly in pairs if LaurentPoly(poly)}

    rng = random.Random(3)
    for kind, lam in [(B3, (1, 1, 2)), (D3, (1, 1, 1)), (B3, (1, 1, 3))]:
        d_by_i = {i: qi_exponent(kind, i) for i in range(1, kind.rank + 1)}
        v = highest_vector(lam, kind)
        for _ in range(8):
            i = rng.randrange(1, kind.rank + 1)
            nv = module_f_divided(v, i, rng.randrange(1, 3))
            if not nv.is_zero():
                v = nv
        tab = min((t for t, _c in v.terms), key=tabloid_sort_key)
        factors = tabloid_factors(tab)
        for i in range(1, kind.rank + 1):
            d = d_by_i[i]
            heads = _heads(tab.shape, tab.codes, i)
            for m in (1, 2, 3):
                whole = polys(_expand_divided(heads, m, d))
                for cut in range(1, len(factors)):
                    left, right = heads[:cut], heads[cut:]
                    wl = weight2_zero(kind.rank)
                    for f in factors[:cut]:
                        wl = weight2_add(wl, f.weight2())
                    a = cartan_exponent(wl, i, kind)
                    combined = {}
                    for k in range(m + 1):
                        lt = polys(_expand_divided(left, k, d))
                        rt = polys(_expand_divided(right, m - k, d))
                        scale = LaurentPoly.q(d * (m - k) * (a - k))
                        for lf, lc in lt.items():
                            for rf, rc in rt.items():
                                key = lf + rf
                                add = lc * rc * scale
                                combined[key] = combined.get(key, LaurentPoly.zero()) + add
                    combined = {k: c for k, c in combined.items() if not c.is_zero()}
                    assert combined == whole, (kind, lam, i, m, cut)


def test_each_factor_power_is_computed_once(monkeypatch):
    """``_heads`` computes a (slot, code, node) entry once, on a miss in the coded
    tables: after whole-module requests the calls equal the filled entries, and a
    rerun on cleared shape tables, which runs the divided powers again, adds none."""
    import qcb.modvec as modvec

    calls, heads = [], []
    factor_powers, real_heads = modvec._factor_powers, modvec._heads
    monkeypatch.setattr(modvec, "_factor_powers", lambda f, i: calls.append((f, i)) or factor_powers(f, i))
    monkeypatch.setattr(modvec, "_heads", lambda *a: heads.append(a) or real_heads(*a))
    _clear_shape_tables()
    for kind, lam in ORACLE_MODULES:
        canonical_matrix(lam, kind)
    slots = {(s, kind.rank) for kind, lam in ORACLE_MODULES for s in shape_for_lambda(lam, kind).slots}
    filled = sum(h is not None for s, n in slots for i in range(1, n + 1) for h in modvec._coded_powers(s, i))
    assert len(calls) == filled > 0
    shape_tables.cache_clear()
    del heads[:]
    for kind, lam in ORACLE_MODULES:
        canonical_matrix(lam, kind)
    assert heads and len(calls) == filled
    _clear_shape_tables()
