"""Kashiwara crystal operators for types B and D.

The vector-representation crystal is a labeled chain for B (with the double
edge n -> 0 -> n-bar both labeled n) and a chain with a four-vertex diamond
at the middle for D.  Words are tensor products read left to right; an
optional spin column acts as a single leading tensor factor.  epsilon/phi of
a word are computed by folding the two-factor rules

    eps(u (x) v) = eps(u) + max(0, eps(v) - phi(u))
    phi(u (x) v) = phi(v) + max(0, phi(u) - eps(v))

and the operators act at the position the same recursion selects (the
signature rule).  ``signature_rule`` is that one fold over (eps, phi)
rows.  It serves the ``Word`` crystal here and the crystal on slot codes
(``shapes.SlotTable.crystal``), where a row is a whole column's or spin
column's: the component search and the raising walk run on codes, and
the ``Word`` crystal is their oracle (``checks.check_code_crystal``).
"""

from __future__ import annotations

from functools import lru_cache

from .rootdata import (
    AlgebraKind,
    InvariantViolation,
    Letter,
    Value,
    alphabet,
    check_letter,
    letter_key,
    letter_weight2,
    letters_hash_key,
    weight2_add,
    weight2_zero,
)


class SpinColumn(Value):
    """A height-n spin column: one letter from each pair {k, -k}.

    ``barred`` is the set of indices chosen barred.  For type D the parity
    of |barred| fixes the class: even = plus, odd = minus.
    """

    def __init__(self, kind: AlgebraKind, barred: frozenset[int]):
        self._init(kind, barred)

    def __post_init__(self):
        if not all(1 <= k <= self.kind.rank for k in self.barred):
            raise ValueError("barred indices out of range")

    @staticmethod
    def highest(kind: AlgebraKind) -> "SpinColumn":
        return _spin_columns(kind)[frozenset()]

    @staticmethod
    def highest_minus(kind: AlgebraKind) -> "SpinColumn":
        """The D spin column with only n barred (highest in the minus class)."""
        return _spin_columns(kind)[frozenset({kind.rank})]

    def letters(self) -> tuple[Letter, ...]:
        n = self.kind.rank
        sel = [(-k if k in self.barred else k) for k in range(1, n + 1)]
        return tuple(sorted(sel, key=lambda x: letter_key(x, n)))

    def sign_class(self) -> str:
        """'+' or '-' for type D (parity of barred letters); 'B' for type B."""
        if self.kind.family == "B":
            return "B"
        return "+" if len(self.barred) % 2 == 0 else "-"

    def weight2(self) -> tuple[int, ...]:
        return tuple(-1 if k in self.barred else 1 for k in range(1, self.kind.rank + 1))

    def __str__(self) -> str:
        # one letter per pair, in index order
        sel = ((-k if k in self.barred else k) for k in range(1, self.kind.rank + 1))
        return "s:" + ",".join(str(x) for x in sel)


@lru_cache(maxsize=None)
def _spin_columns(kind: AlgebraKind) -> dict[frozenset[int], SpinColumn]:
    """Every spin column keyed by its barred set, in ascending order (cached: do not mutate)."""
    n = kind.rank
    cols = (SpinColumn(kind, frozenset(k for k in range(1, n + 1) if mask >> (k - 1) & 1)) for mask in range(1 << n))
    return {s.barred: s for s in sorted(cols, key=lambda s: tuple(letter_key(x, n) for x in s.letters()))}


@lru_cache(maxsize=None)
def _node_table(kind: AlgebraKind, i: int) -> tuple[dict, dict, dict]:
    """The i-labeled edges of the vector-representation and spin-column crystals.

    Returns the f map, the e map, and (eps, phi) for every letter and spin column.
    """
    n = kind.rank
    if kind.family == "B" and i == n:
        edges = [(n, 0), (0, -n)]
        before, after = frozenset(), frozenset({n})
    elif kind.family == "D" and i == n:
        edges = [(n - 1, -n), (n, -(n - 1))]
        before, after = frozenset(), frozenset({n - 1, n})
    else:
        edges = [(i, i + 1), (-(i + 1), -i)]
        before, after = frozenset({i + 1}), frozenset({i})
    # f_i moves a spin column whose barred indices among those it touches are `before`
    spins = _spin_columns(kind)
    edges += [(s, spins[b - before | after]) for b, s in spins.items() if b & (before | after) == before]
    f = dict(edges)
    e = {b: a for a, b in edges}
    # an i-string has at most three vertices
    eps_phi = {x: ((x in e) + (e.get(x) in e), (x in f) + (f.get(x) in f)) for x in (*alphabet(kind), *spins.values())}
    return f, e, eps_phi


def _moves(kind: AlgebraKind, i: int, direction: str) -> tuple[dict, dict]:
    """The edge map of node i in one direction, and the (eps, phi) table."""
    f, e, eps_phi = _node_table(kind, i)
    if direction == "f":
        return f, eps_phi
    if direction == "e":
        return e, eps_phi
    raise ValueError("direction must be 'f' or 'e'")


def vec_edge(x: Letter, i: int, direction: str, kind: AlgebraKind) -> Letter | None:
    """Follow the i-labeled crystal edge from x (direction 'f' or 'e')."""
    return _moves(kind, i, direction)[0].get(x)


def spin_apply(s: SpinColumn, i: int, direction: str) -> SpinColumn | None:
    """Kashiwara operator on a spin column, or None when it vanishes."""
    return _moves(s.kind, i, direction)[0].get(s)


class Word(Value):
    """A vertex of the tensor crystal: letters, optionally led by a spin column."""

    def __init__(self, kind: AlgebraKind, letters: tuple[Letter, ...], spin: SpinColumn | None = None):
        self._init(kind, letters, spin)

    def __post_init__(self):
        for x in self.letters:
            check_letter(self.kind, x)
        if self.spin is not None and self.spin.kind != self.kind:
            raise ValueError("spin column kind mismatch")

    def _hash_key(self) -> tuple:
        return self.kind, letters_hash_key(self.letters), self.spin

    def factors(self) -> tuple:
        if self.spin is None:
            return self.letters
        return (self.spin,) + self.letters

    def weight2(self) -> tuple[int, ...]:
        n = self.kind.rank
        w = weight2_zero(n) if self.spin is None else self.spin.weight2()
        for x in self.letters:
            w = weight2_add(w, letter_weight2(x, n))
        return w

    def __str__(self) -> str:
        body = ",".join(str(x) for x in self.letters)
        if self.spin is None:
            return body
        return f"{self.spin}/{body}" if body else str(self.spin)


def signature_rule(rows, direction: str = "f") -> tuple[int, int, int | None]:
    """Fold the (eps, phi) rows of tensor factors, left to right, by the two-factor rules.

    Returns the product's (eps, phi) and the position of the factor the
    operator in ``direction`` acts on, None where it vanishes.  A row may
    carry more fields after its (eps, phi).
    """
    lower = direction == "f"
    eps = phi = pos = 0
    for j, row in enumerate(rows):
        fe = row[0]
        if fe > phi:
            eps, phi, pos = eps + fe - phi, row[1], j
        else:
            if lower and fe == phi:
                pos = j
            phi += row[1] - fe
    return eps, phi, pos if (phi if lower else eps) else None


def tensor_eps_phi(kind: AlgebraKind, factors: tuple, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) of a tensor product of letters and spin columns, left to right."""
    return signature_rule(map(_node_table(kind, i)[2].__getitem__, factors))[:2]


def tensor_apply(kind: AlgebraKind, factors: tuple, i: int, direction: str) -> tuple | None:
    """The Kashiwara operator on a tensor product of letters and spin columns:
    the factors with the one the signature rule selects moved, or None."""
    moves, table = _moves(kind, i, direction)
    pos = signature_rule([table[x] for x in factors], direction)[2]
    if pos is None:
        return None
    new = moves.get(factors[pos])
    if new is None:
        raise InvariantViolation("signature rule selected a dead factor")
    return factors[:pos] + (new,) + factors[pos + 1 :]


def word_eps_phi(w: Word, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) of a word via the two-factor fold."""
    return tensor_eps_phi(w.kind, w.factors(), i)


def word_apply(w: Word, i: int, direction: str) -> Word | None:
    """Apply the Kashiwara operator to the factor the signature rule selects."""
    new = tensor_apply(w.kind, w.factors(), i, direction)
    if new is None:
        return None
    return Word(w.kind, new) if w.spin is None else Word(w.kind, new[1:], new[0])


def raise_to_highest(w: Word) -> tuple[Word, list[tuple[int, int]]]:
    """Apply raising operators (smallest index first) until none applies.

    Returns the highest-weight word and the applied path as (i, count) runs.
    The result does not depend on the schedule; smallest-first makes it
    deterministic.
    """
    n = w.kind.rank
    path: list[tuple[int, int]] = []
    while True:
        for i in range(1, n + 1):
            nxt = word_apply(w, i, "e")
            if nxt is not None:
                w = nxt
                if path and path[-1][0] == i:
                    path[-1] = (i, path[-1][1] + 1)
                else:
                    path.append((i, 1))
                break
        else:
            return w, path


def word_lowerings(w: Word) -> list[Word]:
    """Each f_i w that does not vanish, by ascending i."""
    return [v for i in range(1, w.kind.rank + 1) if (v := word_apply(w, i, "f")) is not None]


def component_bfs(seed) -> set:
    """All vertices that lowering steps reach from a start vertex, the start included.

    ``seed`` is a ``Word``, lowered by ``word_lowerings``, or a (start, lower)
    pair whose ``lower(v)`` lists the vertices one lowering step below v.
    """
    start, lower = (seed, word_lowerings) if isinstance(seed, Word) else seed
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [v for w in frontier for v in lower(w) if v not in seen and not seen.add(v)]
    return seen


def word_sort_key(w: Word) -> tuple:
    """Lexicographic key on the reading: the spin block (compared through its
    height-n column) first, then the letters, mirroring the reading order."""
    n = w.kind.rank
    head = () if w.spin is None else tuple(letter_key(x, n) for x in w.spin.letters())
    return head + tuple(letter_key(x, n) for x in w.letters)


def enumerate_spin_columns(kind: AlgebraKind, sign: str | None = None) -> list[SpinColumn]:
    """All spin columns, optionally restricted to a D class ('+' or '-')."""
    return [s for s in _spin_columns(kind).values() if sign is None or kind.family != "D" or s.sign_class() == sign]
