"""The built-in invariant suite behind ``qcb check``.

Each check sweeps small ranks exhaustively (or with a seeded sample where
the space is unbounded) and returns one pass/fail record.  The suite covers
the ring axioms and bar involution, crystal edge symmetry and schedule
independence, the crystal on slot codes against the ``Word`` crystal (its
oracle), the counting identities, closed-form/oracle agreement on the
wedge modules, integrality and weight homogeneity of operator outputs, the
quantum Serre relations on the divided powers, and the congruence,
triangularity and bar-symmetry of the canonical bases.
"""

from __future__ import annotations

import itertools
import random
from math import comb, factorial

from .canonical import CanonicalMatrix, a_path, a_vector, canonical_matrix, marsh
from .crystal import (
    SpinColumn,
    Word,
    component_bfs,
    enumerate_spin_columns,
    raise_to_highest,
    spin_apply,
    word_apply,
    word_eps_phi,
)
from .laurent import InexactDivision, LaurentPoly, SparseVector, divide_exact, quantum_factorial, quantum_int
from .modvec import apply_monomial, decoded, highest_vector, module_f_divided
from .rootdata import (
    AlgebraKind,
    Value,
    alphabet,
    cartan_exponent,
    letter_key,
    letter_weight2,
    qi_exponent,
    weight2_add,
    weight2_zero,
)
from .shapes import (
    Column,
    enumerate_columns,
    enumerate_tableaux,
    enumerate_tabloids,
    shape_for_lambda,
    shape_tables,
    tabloid_reading,
    tabloid_sort_key,
    weight2_of_tabloid,
    word_to_tabloid,
)
from .wedge import straighten, tensor_lift_f, wedge_f, wedge_f_divided


class CheckResult(Value):
    def __init__(self, name: str, ok: bool):
        self._init(name, ok)


def _simple_root2(kind: AlgebraKind, i: int) -> tuple[int, ...]:
    n = kind.rank
    w = [0] * n
    if i < n:
        w[i - 1], w[i] = 2, -2
    elif kind.family == "B":
        w[n - 1] = 2
    else:
        w[n - 2], w[n - 1] = 2, 2
    return tuple(w)


def _kinds(max_rank_b: int, max_rank_d: int) -> list[AlgebraKind]:
    kinds = [AlgebraKind("B", n) for n in range(2, max_rank_b + 1)]
    kinds += [AlgebraKind("D", n) for n in range(3, max_rank_d + 1)]
    return kinds


def default_lambdas(kind: AlgebraKind) -> list[tuple[int, ...]]:
    """Dominant weights with coefficient sum at most 2."""
    n = kind.rank
    out = []
    for i in range(n):
        lam = [0] * n
        lam[i] = 1
        out.append(tuple(lam))
    for i in range(n):
        for j in range(i, n):
            lam = [0] * n
            lam[i] += 1
            lam[j] += 1
            out.append(tuple(lam))
    return out


def _sample_words(kind: AlgebraKind, rng: random.Random, count: int, max_len: int = 6) -> list[Word]:
    letters = alphabet(kind)
    out = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        out.append(Word(kind, tuple(rng.choice(letters) for _ in range(length))))
    return out


def check_laurent(rng: random.Random) -> list[CheckResult]:
    def rand_poly() -> LaurentPoly:
        return LaurentPoly({rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(rng.randint(0, 6))})

    res = []
    res.append(CheckResult("laurent.bar_involution", all((p := rand_poly()).bar().bar() == p for _ in range(200))))
    res.append(
        CheckResult(
            "laurent.quantum_int_bar_invariant",
            all(quantum_int(m, d).bar() == quantum_int(m, d) for m in range(8) for d in (1, 2)),
        )
    )
    ok = True
    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        if not b.is_zero() and divide_exact(a * b, b) != a:
            ok = False
    res.append(CheckResult("laurent.exact_division_roundtrip", ok))
    res.append(
        CheckResult(
            "laurent.factorial_at_one",
            all(quantum_factorial(m, d).eval_at_one() == factorial(m) for m in range(8) for d in (1, 2)),
        )
    )
    return res


def check_rootdata(kinds: list[AlgebraKind]) -> list[CheckResult]:
    res = []
    ok = True
    for kind in kinds:
        keys = [letter_key(x, kind.rank) for x in alphabet(kind)]
        ok = ok and keys == sorted(keys) and len(set(keys)) == len(keys)
    res.append(CheckResult("rootdata.total_order", ok))
    ok = True
    for kind in kinds:
        total = weight2_zero(kind.rank)
        for x in alphabet(kind):
            total = weight2_add(total, letter_weight2(x, kind.rank))
        ok = ok and total == weight2_zero(kind.rank)
    res.append(CheckResult("rootdata.alphabet_weight_symmetry", ok))
    ok = all(
        cartan_exponent(letter_weight2(x, kind.rank), i, kind) in (-2, -1, 0, 1, 2)
        for kind in kinds
        for x in alphabet(kind)
        for i in range(1, kind.rank + 1)
    )
    res.append(CheckResult("rootdata.letter_pairings_bounded", ok))
    return res


def check_crystal(kinds: list[AlgebraKind], rng: random.Random) -> list[CheckResult]:
    edge_ok = eps_ok = sched_ok = count_ok = spin_ok = orbit_ok = True
    for kind in kinds:
        n = kind.rank
        words = _sample_words(kind, rng, 120)
        for w in words:
            for i in range(1, n + 1):
                v = word_apply(w, i, "f")
                if v is not None and word_apply(v, i, "e") != w:
                    edge_ok = False
                u = word_apply(w, i, "e")
                if u is not None and word_apply(u, i, "f") != w:
                    edge_ok = False
                eps, phi = word_eps_phi(w, i)
                x, cnt = w, 0
                while (x := word_apply(x, i, "e")) is not None:
                    cnt += 1
                if cnt != eps:
                    eps_ok = False
                x, cnt = w, 0
                while (x := word_apply(x, i, "f")) is not None:
                    cnt += 1
                if cnt != phi:
                    eps_ok = False
        for w in words[:40]:
            hw, _ = raise_to_highest(w)
            x = w
            while True:
                choices = [i for i in range(1, n + 1) if word_apply(x, i, "e") is not None]
                if not choices:
                    break
                x = word_apply(x, rng.choice(choices), "e")
            if x != hw:
                sched_ok = False
        size = len(component_bfs(Word(kind, (1,))))
        count_ok = count_ok and size == (2 * n + 1 if kind.family == "B" else 2 * n)
        spins = enumerate_spin_columns(kind)
        if kind.family == "B":
            spin_ok = spin_ok and len(spins) == 2**n
        else:
            for sign in "+-":
                spin_ok = spin_ok and sum(s.sign_class() == sign for s in spins) == 2 ** (n - 1)
        for s in spins:
            for i in range(1, n + 1):
                t = spin_apply(s, i, "f")
                if t is not None:
                    if spin_apply(t, i, "e") != s or spin_apply(t, i, "f") is not None:
                        spin_ok = False
                    # the weight is read off the barred set, not from the crystal table
                    if weight2_add(t.weight2(), _simple_root2(kind, i)) != s.weight2():
                        spin_ok = False
                    if kind.family == "D" and t.sign_class() != s.sign_class():
                        spin_ok = False
        # the lowering orbit of the highest spin column is one whole class
        top = SpinColumn.highest(kind)
        seen, frontier = {top}, [top]
        while frontier:
            frontier = [
                t
                for s in frontier
                for i in range(1, n + 1)
                if (t := spin_apply(s, i, "f")) is not None and t not in seen and not seen.add(t)
            ]
        orbit_ok = orbit_ok and len(seen) == (2**n if kind.family == "B" else 2 ** (n - 1))
    return [
        CheckResult("crystal.edge_symmetry", edge_ok),
        CheckResult("crystal.eps_phi_match_operators", eps_ok),
        CheckResult("crystal.raising_schedule_independent", sched_ok),
        CheckResult("crystal.vector_component_size", count_ok),
        CheckResult("crystal.spin_columns", spin_ok),
        CheckResult("crystal.spin_orbit_generates_basis", orbit_ok),
    ]


# the tests' canonical oracle modules, then a B and a D minus spin module with two columns
CODE_CRYSTAL_MODULES = (
    (AlgebraKind("B", 2), (1, 1)),
    (AlgebraKind("B", 3), (0, 1, 1)),
    (AlgebraKind("D", 4), (1, 0, 1, 1)),
    (AlgebraKind("D", 4), (0, 0, 1, 2)),
    (AlgebraKind("B", 3), (1, 1, 1)),
    (AlgebraKind("D", 4), (0, 1, 1, 0)),
)


def check_code_crystal() -> list[CheckResult]:
    """The crystal on slot codes against the Word crystal on the readings of every orthogonal tableau."""
    ok = True
    for kind, lam in CODE_CRYSTAL_MODULES:
        shape = shape_for_lambda(lam, kind)
        tables = shape_tables(shape)
        for t in enumerate_tableaux(lam, kind):
            w = tabloid_reading(t)
            for i in range(1, kind.rank + 1):
                ok = ok and tables.eps_phi(t.codes, i) == word_eps_phi(w, i)
                for d in "ef":
                    v = word_apply(w, i, d)
                    ok = ok and tables.apply(t.codes, i, d) == (None if v is None else word_to_tabloid(v, shape).codes)
    return [CheckResult("crystal.codes_match_words", ok)]


def check_counting(max_rank_b: int) -> list[CheckResult]:
    """Column counts of B2 up to max_rank_b and of D3-D5 against closed forms."""
    ok = True
    for kind in [AlgebraKind("B", n) for n in range(2, max_rank_b + 1)] + [AlgebraKind("D", n) for n in range(3, 6)]:
        n = kind.rank
        for p in range(1, n + 1):
            if kind.family == "B":
                n_all = sum(comb(2 * n + 1, p - 2 * k) for k in range(p // 2 + 1))
            else:  # p - m letters off {n, -n}, and a run of m alternating n, -n begun either way
                n_all = comb(2 * n - 2, p) + 2 * sum(comb(2 * n - 2, p - m) for m in range(1, p + 1))
            counts = (len(enumerate_columns(kind, p)), len(enumerate_columns(kind, p, admissible_only=True)))
            ok = ok and counts == (n_all, comb(len(alphabet(kind)), p))
    return [CheckResult("shapes.column_counting_identities", ok)]


def check_shapes(kinds: list[AlgebraKind], lambdas) -> list[CheckResult]:
    order_ok = bfs_ok = True
    for kind in kinds:
        for lam in lambdas(kind):
            shape = shape_for_lambda(lam, kind)
            tableaux = enumerate_tableaux(lam, kind)
            keys = [tabloid_sort_key(t) for t in tableaux]
            order_ok = order_ok and keys == sorted(keys) and len(set(keys)) == len(keys)
            # the Word crystal decides membership independently of the component search:
            # a tabloid is a tableau when its reading raises to the highest tableau's
            listed, top = set(tableaux), tabloid_reading(shape_tables(shape).highest)
            bfs_ok = bfs_ok and all(
                (t in listed) == (raise_to_highest(tabloid_reading(t))[0] == top) for t in enumerate_tabloids(shape)
            )
    return [
        CheckResult("shapes.enumeration_sorted_unique", order_ok),
        CheckResult("shapes.tableaux_match_crystal_component", bfs_ok),
    ]


def check_wedge(kinds: list[AlgebraKind], rng: random.Random) -> list[CheckResult]:
    oracle_ok = integral_ok = congruence_ok = weight_ok = divided_ok = True
    for kind in kinds:
        n = kind.rank
        for p in range(1, n + 1):
            for col in enumerate_columns(kind, p):
                for i in range(1, n + 1):
                    closed = wedge_f(col, i)
                    if closed != tensor_lift_f(col, i):
                        oracle_ok = False
                    alpha = _simple_root2(kind, i)
                    for c, _v in closed.terms:
                        if weight2_add(c.weight2(), alpha) != col.weight2():
                            weight_ok = False
                    eps, phi = word_eps_phi(col.word(), i)
                    if eps == 0 and phi == 1:
                        moved = word_apply(col.word(), i, "f")
                        target = Column(kind, moved.letters)
                        head = closed.coeff(target)
                        if head.is_zero() or head.min_exp() < 0 or head.coeff(0) != 1:
                            congruence_ok = False
                        for c, v in closed.terms:
                            if c != target and v.min_exp() < 1:
                                congruence_ok = False
                    divided_ok &= divided_powers_match_plain(col, i)
        # straightening of arbitrary monomials stays in Z[q]
        letters = alphabet(kind)
        for _ in range(150):
            p = rng.randint(1, n)
            mono = tuple(rng.choice(letters) for _ in range(p))
            for _c, v in straighten(kind, mono).terms:
                if v.min_exp() < 0:
                    integral_ok = False
    return [
        CheckResult("wedge.closed_form_matches_tensor_oracle", oracle_ok),
        CheckResult("wedge.straightening_integral", integral_ok),
        CheckResult("wedge.crystal_congruence", congruence_ok),
        CheckResult("wedge.weight_homogeneous", weight_ok),
        CheckResult("wedge.divided_powers_exact", divided_ok),
    ]


def divided_powers_match_plain(col: Column, i: int) -> bool:
    """f_i^(k) on the column equals k plain ``wedge_f`` steps divided exactly
    by [k]_i!, for k = 1 up to the first k where both are zero."""
    d = qi_exponent(col.kind, i)
    plain = SparseVector.unit(col)
    for k in itertools.count(1):
        plain = sum((wedge_f(c, i).scale(s) for c, s in plain.terms), SparseVector.zero())
        try:
            if wedge_f_divided(col, i, k) != SparseVector({c: divide_exact(p, quantum_factorial(k, d)) for c, p in plain.terms}):
                return False
        except InexactDivision:
            return False
        if plain.is_zero():
            return True


def check_modvec(kinds: list[AlgebraKind], lambdas, rng: random.Random) -> list[CheckResult]:
    weight_ok = compose_ok = True
    for kind in kinds:
        n = kind.rank
        for lam in lambdas(kind):
            v = highest_vector(lam, kind)
            for _ in range(6):
                i = rng.randint(1, n)
                m = rng.randint(1, 2)
                w = module_f_divided(v, i, m)
                if not w.terms:
                    continue
                mu = weight2_of_tabloid(next(iter(decoded(v).terms))[0])
                alpha = _simple_root2(kind, i)
                target = tuple(a - m * b for a, b in zip(mu, alpha))
                if any(weight2_of_tabloid(t) != target for t, _c in decoded(w).terms):
                    weight_ok = False
                # f_i f_i = [2]_i f_i^(2) ties the recursion exponents down
                twice = module_f_divided(module_f_divided(v, i, 1), i, 1)
                half = module_f_divided(v, i, 2)
                two = quantum_int(2, qi_exponent(kind, i))
                if decoded(twice) != decoded(half).scale(two):
                    compose_ok = False
                v = w
    cases, failures = serre_relations([(kind, lam) for kind in kinds for lam in lambdas(kind)])
    return [
        CheckResult("modvec.weight_homogeneous", weight_ok),
        CheckResult("modvec.divided_power_composition", compose_ok),
        CheckResult("modvec.serre_relations", cases > 0 and not failures),
    ]


def serre_relations(modules: list[tuple[AlgebraKind, tuple[int, ...]]]) -> tuple[int, list]:
    """The quantum Serre relations on the divided powers: for i != j with
    a_ij = <alpha_i^vee, alpha_j> non-zero,
    sum_k (-1)^k f_i^(1-a_ij-k) f_j f_i^(k) kills the highest vector of each
    (kind, lam) and each of its non-zero lowerings by one or two f's.
    Returns the number of cases and the failing ones as (kind, lam, i, j)."""
    cases, failures = 0, []
    for kind, lam in modules:
        nodes = range(1, kind.rank + 1)
        level = [highest_vector(lam, kind)]
        vectors = list(level)
        for _depth in (1, 2):
            level = [w for v in level for k in nodes if (w := module_f_divided(v, k, 1)).terms]
            vectors += level
        for i in nodes:
            for j in nodes:
                a = cartan_exponent(_simple_root2(kind, j), i, kind)
                if i == j or a == 0:
                    continue
                for v in vectors:
                    acc = SparseVector.zero()
                    for k in range(2 - a):
                        w = decoded(apply_monomial(v, [(i, 1 - a - k), (j, 1), (i, k)]))
                        acc = acc - w if k % 2 else acc + w
                    if not acc.is_zero():
                        failures.append((kind, lam, i, j))
                    cases += 1
    return cases, failures


def _indices_by_weight(tabloids) -> dict[tuple, list[int]]:
    """The indices of the tabloids of each weight, ascending."""
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(tabloids):
        groups.setdefault(weight2_of_tabloid(t), []).append(i)
    return groups


def weight_requests_match_module(M: CanonicalMatrix) -> bool:
    """Every weight request of M's module equals the whole-module matrix M
    restricted to that weight: the rows by label, the columns, the entries
    and the gammas, with M's indices renumbered within the weight space."""
    rows, cols = _indices_by_weight(M.rows), _indices_by_weight(M.cols)
    local_row, local_col = ({i: k for members in g.values() for k, i in enumerate(members)} for g in (rows, cols))
    col_weight = {c: mu for mu, members in cols.items() for c in members}
    entries: dict[tuple, dict] = {mu: {} for mu in cols}
    for (r, c), poly in M.entries.items():
        entries[col_weight[c]][(local_row[r], local_col[c])] = poly
    gamma: dict[tuple, list] = {mu: [] for mu in cols}
    for c, j, g in M.gamma:
        gamma[col_weight[c]].append((local_col[c], local_col[j], g))
    for mu, members in cols.items():
        W = canonical_matrix(M.lam, M.kind, mu)
        if (
            [str(t) for t in W.rows] != [str(M.rows[r]) for r in rows[mu]]
            or list(W.cols) != [M.cols[c] for c in members]
            or W.entries != entries[mu]
            or list(W.gamma) != gamma[mu]
        ):
            return False
    return True


def check_canonical(kinds: list[AlgebraKind], lambdas) -> list[CheckResult]:
    cong_ok = triangle_ok = integral_ok = bar_ok = marsh_ok = apath_ok = requests_ok = True
    for kind in kinds:
        n = kind.rank
        for p in range(1, n + 1):
            for col in enumerate_columns(kind, p, admissible_only=True):
                path, g = marsh(col)
                diag = g.coeff(col)
                if diag.is_zero() or diag.min_exp() < 0 or diag.coeff(0) != 1:
                    marsh_ok = False
                for c, v in g.terms:
                    if c != col and v.min_exp() < 1:
                        marsh_ok = False
                if any(r not in (1, 2) for _i, r in path):
                    apath_ok = False
        for lam in lambdas(kind):
            M = canonical_matrix(lam, kind)
            row_index = {t: r for r, t in enumerate(M.rows)}
            col_weights = [weight2_of_tabloid(t) for t in M.cols]
            for (r, c), poly in M.entries.items():
                tau, t = M.rows[r], M.cols[c]
                if poly.min_exp() < 0:
                    integral_ok = False
                if weight2_of_tabloid(tau) != col_weights[c]:
                    triangle_ok = False
                if tabloid_sort_key(tau) > tabloid_sort_key(t):
                    triangle_ok = False
                if tau == t:
                    if poly != LaurentPoly.one():
                        cong_ok = False
                elif poly.coeff(0) != 0 or poly.min_exp() < 1:
                    cong_ok = False
            for ci, t in enumerate(M.cols):
                if M.entries.get((row_index[t], ci)) != LaurentPoly.one():
                    cong_ok = False
            for _c, _j, g in M.gamma:
                if g.bar() != g:
                    bar_ok = False
            requests_ok = requests_ok and weight_requests_match_module(M)
            for t in enumerate_tableaux(lam, kind)[:20]:
                v = a_vector(a_path(t))
                if v.coeff(t) != LaurentPoly.one():
                    apath_ok = False
                if any(tabloid_sort_key(tau) > tabloid_sort_key(t) for tau, _c in v.terms):
                    apath_ok = False
    return [
        CheckResult("canonical.congruence_at_q0", cong_ok),
        CheckResult("canonical.unitriangular", triangle_ok),
        CheckResult("canonical.entries_polynomial", integral_ok),
        CheckResult("canonical.gamma_bar_symmetric", bar_ok),
        CheckResult("canonical.marsh_congruence", marsh_ok),
        CheckResult("canonical.monomial_basis_properties", apath_ok),
        CheckResult("canonical.weight_requests_match_module", requests_ok),
    ]


def run_all(max_rank_b: int = 3, max_rank_d: int = 3, seed: int = 20240801) -> list[CheckResult]:
    rng = random.Random(seed)
    kinds = _kinds(max_rank_b, max_rank_d)
    results: list[CheckResult] = []
    results += check_laurent(rng)
    results += check_rootdata(kinds)
    results += check_crystal(kinds, rng)
    results += check_code_crystal()
    results += check_counting(min(max_rank_b + 1, 4))
    results += check_shapes(kinds, default_lambdas)
    results += check_wedge(kinds, rng)
    results += check_modvec(kinds, default_lambdas, rng)
    results += check_canonical(kinds, default_lambdas)
    return results
