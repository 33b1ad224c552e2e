"""Crystal component sizes against the Weyl dimension formula.

The formula is computed here from the root systems directly (in doubled
epsilon coordinates, so everything stays integral), giving an oracle for
the tableau enumeration that shares no code with the crystal machinery.
"""

from fractions import Fraction

import pytest

from qcb.rootdata import AlgebraKind
from qcb.shapes import enumerate_tableaux, shape_for_lambda, shape_tables


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


def highest_weight2(lam, kind: AlgebraKind) -> tuple[int, ...]:
    lam2 = [0] * kind.rank
    for i, c in enumerate(lam, start=1):
        lam2 = [a + c * b for a, b in zip(lam2, fundamental2(kind, i))]
    return tuple(lam2)


def weyl_dim(lam, kind: AlgebraKind) -> int:
    n = kind.rank
    lam2 = highest_weight2(lam, kind)
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


# the oracle modules of test_canonical, then two larger ones
MULTIPLICITY_MODULES = [
    (AlgebraKind("B", 2), (1, 1)),
    (AlgebraKind("B", 3), (0, 1, 1)),
    (AlgebraKind("D", 4), (1, 0, 1, 1)),
    (AlgebraKind("D", 4), (0, 0, 1, 2)),
    (AlgebraKind("B", 4), (1, 1, 0, 1)),
    (AlgebraKind("D", 4), (0, 1, 1, 1)),
]


@pytest.mark.parametrize("kind,lam", MULTIPLICITY_MODULES)
def test_multiplicities_are_weyl_invariant(kind, lam):
    """The number of tableaux of each weight is fixed by every simple
    reflection, and the numbers add up to the Weyl dimension."""
    counts = {mu: len(tabs) for mu, tabs in shape_tables(shape_for_lambda(lam, kind)).by_weight.items()}
    for s in simple_reflections(kind):
        assert {s(mu): c for mu, c in counts.items()} == counts
    assert sum(counts.values()) == weyl_dim(lam, kind)


def simple_roots2(kind: AlgebraKind):
    n = kind.rank
    roots = []
    for i in range(n - 1):
        r = [0] * n
        r[i], r[i + 1] = 2, -2
        roots.append(tuple(r))
    last = [0] * n
    if kind.family == "B":
        last[n - 1] = 2
    else:
        last[n - 2] = last[n - 1] = 2
    roots.append(tuple(last))
    return roots


def freudenthal_multiplicities(lam, kind: AlgebraKind) -> dict:
    """The weight multiplicities of V(lam) by Freudenthal's formula

        ((lam+rho, lam+rho) - (mu+rho, mu+rho)) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} (mu + k alpha, alpha) m(mu + k alpha),

    over the weights lam minus simple roots whose coordinates stay within
    lam's largest one, highest first.  The pairing is scaled away, so the
    doubled coordinates serve as they are."""
    lam2 = highest_weight2(lam, kind)
    roots = positive_roots2(kind)
    rho2 = [sum(r[j] for r in roots) // 2 for j in range(kind.rank)]

    def norm(mu):
        return sum((a + b) ** 2 for a, b in zip(mu, rho2))

    bound, simple = max(lam2), simple_roots2(kind)
    weights, frontier = {lam2}, [lam2]
    while frontier:
        below = {tuple(x - y for x, y in zip(mu, a)) for mu in frontier for a in simple}
        frontier = [nu for nu in below - weights if max(map(abs, nu)) <= bound]
        weights.update(frontier)
    mult = {}
    for mu in sorted(weights, key=lambda mu: -sum(a * b for a, b in zip(mu, rho2))):
        if mu == lam2:
            mult[mu] = Fraction(1)
            continue
        total = 0
        for a in roots:
            nu = tuple(x + y for x, y in zip(mu, a))
            while max(map(abs, nu)) <= bound:  # beyond lam's largest coordinate no weight is left
                total += mult.get(nu, 0) * sum(x * y for x, y in zip(nu, a))
                nu = tuple(x + y for x, y in zip(nu, a))
        gap = norm(lam2) - norm(mu)
        if gap == 0:
            assert total == 0, mu
            mult[mu] = Fraction(0)
        else:
            mult[mu] = Fraction(2 * total, gap)
    assert all(m.denominator == 1 and m >= 0 for m in mult.values())
    return {mu: int(m) for mu, m in mult.items() if m}


@pytest.mark.parametrize("kind,lam", MULTIPLICITY_MODULES)
def test_multiplicities_match_freudenthal(kind, lam):
    """The number of tableaux of each weight is the multiplicity Freudenthal's formula gives."""
    counts = {mu: len(tabs) for mu, tabs in shape_tables(shape_for_lambda(lam, kind)).by_weight.items()}
    assert counts == freudenthal_multiplicities(lam, kind)
