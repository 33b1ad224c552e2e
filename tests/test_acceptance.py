"""Acceptance suite: one test per criterion, each printing a PASS line.

All equalities are bit-exact; the polynomials are compared in canonical
form.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import time
from math import comb

from qcb.canonical import canonical_matrix
from qcb.checks import run_all
from qcb.cli import main
from qcb.crystal import enumerate_spin_columns
from qcb.laurent import LaurentPoly
from qcb.rootdata import AlgebraKind
from qcb.shapes import enumerate_columns
from qcb.wedge import tensor_lift_f, wedge_f


def _report(num, label, elapsed, limit):
    print(f"ACCEPTANCE {num}: PASS {label} ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit


def test_acceptance_1_marsh_example(capsys):
    t0 = time.time()
    code = main(["--type", "B", "--rank", "4", "marsh", "--column", "0,0,0,0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["path"] == [[4, 1], [3, 1], [2, 1], [1, 1], [4, 1], [3, 1], [2, 1], [4, 1], [3, 1], [4, 1]]
    got = {t["column"]: str(LaurentPoly([(e, c) for e, c in t["coeff"]])) for t in doc["terms"]}
    assert got == {
        "0,0,0,0": "1",
        "4,0,0,-4": "q+q^7",
        "3,0,0,-3": "q-q^5",
        "2,0,0,-2": "q+q^3",
        "3,4,-4,-3": "q^2+q^4-q^6-q^8",
        "2,4,-4,-2": "q^2+2*q^4+q^6",
    }
    with capsys.disabled():
        _report(1, "height-4 global column: six printed terms, ten operator indices", time.time() - t0, 1.0)


def test_acceptance_2_apath_example(capsys):
    t0 = time.time()
    code = main(["--type", "B", "--rank", "3", "apath", "--tabloid", "2,0,0/2,-3/3"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["path"] == [[2, 1], [1, 3], [3, 3], [2, 2], [3, 1]]  # f2 f1^(3) f3^(3) f2^(2) f3
    assert doc["intermediates"] == [
        "2,0,0/2,-3/2",
        "1,0,0/1,-3/1",
        "1,3,0/1,3/1",
        "1,2,0/1,2/1",
        "1,2,3/1,2/1",
    ]
    with capsys.disabled():
        _report(2, "raising walk: printed monomial and five intermediate tableaux", time.time() - t0, 1.0)


def test_acceptance_3_weight_space(capsys):
    t0 = time.time()
    M = canonical_matrix((1, 1, 2), AlgebraKind("B", 3), weight2=(0, 4, -2))
    rows = {str(t): r for r, t in enumerate(M.rows)}
    cols = {str(t): c for c, t in enumerate(M.cols)}

    # correction log: three bar-symmetric subtractions, all others identity.
    # (In the printed column order; the source text numbers the same three
    # relations in a 10-element list that skips the second column.)
    got = [(c, j, str(g)) for c, j, g in M.gamma]
    assert got == [(3, 2, "1"), (4, 2, "q^-1+q"), (8, 5, "1")]

    t1 = cols["2,0,-2/2,-3/2"]
    t4 = cols["2,3,-3/2,-3/0"]
    assert str(M.entry(rows["2,-3,-1/2,0/1"], t1)) == "q^8"
    assert str(M.entry(rows["2,0,-1/2,-3/1"], t1)) == "q^6"
    assert str(M.entry(rows["2,-3,-2/2,0/2"], t1)) == "q^2"
    assert str(M.entry(rows["2,-3,-2/2,0/2"], t4)) == "q^6+q^8"
    assert str(M.entry(rows["3,0,-3/2,-3/2"], t4)) == "q^4"
    for c, t in enumerate(M.cols):
        assert M.entry(rows[str(t)], c) == LaurentPoly.one()
    # the negative-coefficient entry sits in the fifth column
    t5 = cols["2,0,0/2,-3/0"]
    assert str(M.entry(rows["3,0,-3/2,-3/2"], t5)) == "q^5-q^9"
    dim = len(M.cols)
    assert dim == 11 and len(M.rows) == 40
    with capsys.disabled():
        print(f"  computed weight-space dimension: {dim} (the source text says 10, prints 11)")
        _report(3, "rank-3 weight space: correction log and spot entries", time.time() - t0, 60.0)


def test_acceptance_4_oracle_equivalence(capsys):
    t0 = time.time()
    total = 0
    for kind in (AlgebraKind("B", 2), AlgebraKind("B", 3), AlgebraKind("D", 2, experimental=True), AlgebraKind("D", 3)):
        for p in range(1, kind.rank + 1):
            for col in enumerate_columns(kind, p):
                for i in range(1, kind.rank + 1):
                    assert wedge_f(col, i) == tensor_lift_f(col, i), (kind, col, i)
                    total += 1
    with capsys.disabled():
        _report(4, f"closed-form action equals tensor-lift oracle on {total} cases", time.time() - t0, 60.0)


def test_acceptance_5_counting_identities(capsys):
    t0 = time.time()
    for n in range(2, 5):
        kind = AlgebraKind("B", n)
        for p in range(1, n + 1):
            n_all = len(enumerate_columns(kind, p))
            n_adm = len(enumerate_columns(kind, p, admissible_only=True))
            assert n_adm == comb(2 * n + 1, p)
            assert n_all == sum(comb(2 * n + 1, p - 2 * k) for k in range(p // 2 + 1))
    for n in (2, 3, 4):
        b = AlgebraKind("B", n)
        assert len(enumerate_spin_columns(b)) == 2**n
        if n >= 3:
            d = AlgebraKind("D", n)
            assert len(enumerate_spin_columns(d, "+")) == 2 ** (n - 1)
            assert len(enumerate_spin_columns(d, "-")) == 2 ** (n - 1)
    with capsys.disabled():
        _report(5, "column and spin-column counting identities through rank 4", time.time() - t0, 10.0)


def test_acceptance_6_property_suite(capsys):
    t0 = time.time()
    results = run_all(max_rank_b=3, max_rank_d=3)
    failed = [r.name for r in results if not r.ok]
    with capsys.disabled():
        for r in results:
            print(("  PASS " if r.ok else "  FAIL ") + r.name)
    assert not failed, failed
    with capsys.disabled():
        _report(6, f"invariant suite: {len(results)} properties", time.time() - t0, 300.0)
