"""Crystal component sizes against the Weyl dimension formula.

The formula is computed here from the root systems directly (in doubled
epsilon coordinates, so everything stays integral), giving an oracle for
the tableau enumeration that shares no code with the crystal machinery.
"""

from fractions import Fraction

import pytest

from qcb.rootdata import AlgebraKind
from qcb.shapes import enumerate_tableaux, shape_for_lambda, tableaux_by_weight


def positive_roots2(kind: AlgebraKind):
    n = kind.rank
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                r = [0] * n
                r[i], r[j] = 2, 2 * s
                roots.append(tuple(r))
    if kind.family == "B":
        for i in range(n):
            r = [0] * n
            r[i] = 2
            roots.append(tuple(r))
    return roots


def fundamental2(kind: AlgebraKind, i: int):
    n = kind.rank
    w = [0] * n
    if kind.family == "B":
        if i < n:
            for j in range(i):
                w[j] = 2
        else:
            w = [1] * n
    else:
        if i <= n - 2:
            for j in range(i):
                w[j] = 2
        elif i == n - 1:
            w = [1] * n
            w[n - 1] = -1
        else:
            w = [1] * n
    return tuple(w)


def weyl_dim(lam, kind: AlgebraKind) -> int:
    n = kind.rank
    lam2 = [0] * n
    for i, c in enumerate(lam, start=1):
        f = fundamental2(kind, i)
        lam2 = [a + c * b for a, b in zip(lam2, f)]
    roots = positive_roots2(kind)
    rho2 = [sum(r[j] for r in roots) // 2 for j in range(n)]
    dim = Fraction(1)
    for r in roots:
        num = sum((a + b) * c for a, b, c in zip(lam2, rho2, r))
        den = sum(b * c for b, c in zip(rho2, r))
        dim *= Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


def test_dimensions_match_weyl():
    cases = [
        (AlgebraKind("B", 2), [(1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (0, 3), (2, 2)]),
        (AlgebraKind("B", 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)]),
        (AlgebraKind("D", 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 2), (0, 2, 0), (1, 1, 1), (0, 1, 2)]),
        (AlgebraKind("B", 4), [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)]),
        (AlgebraKind("D", 4), [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]),
    ]
    for kind, lams in cases:
        for lam in lams:
            assert len(enumerate_tableaux(lam, kind)) == weyl_dim(lam, kind), (kind, lam)


def simple_reflections(kind: AlgebraKind):
    """The simple reflections acting on doubled epsilon coordinates."""
    n = kind.rank

    def swap(i):
        return lambda mu: mu[:i] + (mu[i + 1], mu[i]) + mu[i + 2 :]

    out = [swap(i) for i in range(n - 1)]
    if kind.family == "B":
        out.append(lambda mu: mu[:-1] + (-mu[-1],))
    else:
        out.append(lambda mu: mu[:-2] + (-mu[-1], -mu[-2]))
    return out


@pytest.mark.parametrize(
    "kind,lam",
    [
        (AlgebraKind("B", 2), (1, 1)),
        (AlgebraKind("B", 3), (0, 1, 1)),
        (AlgebraKind("D", 4), (1, 0, 1, 1)),
        (AlgebraKind("D", 4), (0, 0, 1, 2)),
        (AlgebraKind("B", 4), (1, 1, 0, 1)),
        (AlgebraKind("D", 4), (0, 1, 1, 1)),
    ],
)
def test_multiplicities_are_weyl_invariant(kind, lam):
    """The number of tableaux of each weight is fixed by every simple
    reflection, and the numbers add up to the Weyl dimension."""
    counts = {mu: len(tabs) for mu, tabs in tableaux_by_weight(shape_for_lambda(lam, kind)).items()}
    for s in simple_reflections(kind):
        assert {s(mu): c for mu, c in counts.items()} == counts
    assert sum(counts.values()) == weyl_dim(lam, kind)
