"""Kashiwara crystal operators for types B and D.

The vector-representation crystal is a labeled chain for B (with the double
edge n -> 0 -> n-bar both labeled n) and a chain with a four-vertex diamond
at the middle for D.  Words are tensor products read left to right; an
optional spin column acts as a single leading tensor factor.  epsilon/phi of
a word are computed by folding the two-factor rules

    eps(u (x) v) = eps(u) + max(0, eps(v) - phi(u))
    phi(u (x) v) = phi(v) + max(0, phi(u) - eps(v))

and the operators act at the position the same recursion selects (the
signature rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootdata import (
    AlgebraKind,
    InvariantViolation,
    Letter,
    alphabet,
    cache_hash,
    check_letter,
    letter_key,
    letter_weight2,
    weight2_add,
    weight2_zero,
)


@cache_hash
@dataclass(frozen=True)
class SpinColumn:
    """A height-n spin column: one letter from each pair {k, -k}.

    ``barred`` is the set of indices chosen barred.  For type D the parity
    of |barred| fixes the class: even = plus, odd = minus.
    """

    kind: AlgebraKind
    barred: frozenset[int]

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


def letter_eps_phi(x: Letter, i: int, kind: AlgebraKind) -> tuple[int, int]:
    return _node_table(kind, i)[2][x]


def spin_apply(s: SpinColumn, i: int, direction: str) -> SpinColumn | None:
    """Kashiwara operator on a spin column, or None when it vanishes."""
    return _moves(s.kind, i, direction)[0].get(s)


def spin_eps_phi(s: SpinColumn, i: int) -> tuple[int, int]:
    return _node_table(s.kind, i)[2][s]


@dataclass(frozen=True)
class Word:
    """A vertex of the tensor crystal: letters, optionally led by a spin column."""

    kind: AlgebraKind
    letters: tuple[Letter, ...]
    spin: SpinColumn | None = None

    def __post_init__(self):
        for x in self.letters:
            check_letter(self.kind, x)
        if self.spin is not None and self.spin.kind != self.kind:
            raise ValueError("spin column kind mismatch")

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


def word_eps_phi(w: Word, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) of a word via the two-factor fold."""
    table = _node_table(w.kind, i)[2]
    eps, phi = 0, 0
    for x in w.factors():
        fe, fp = table[x]
        eps = eps + max(0, fe - phi)
        phi = fp + max(0, phi - fe)
    return eps, phi


def word_apply(w: Word, i: int, direction: str) -> Word | None:
    """Apply the Kashiwara operator to the factor the signature rule selects."""
    moves, table = _moves(w.kind, i, direction)
    factors = w.factors()
    if not factors:
        return None
    # prefix folds of (eps, phi) over factors[:j]
    prefix = [(0, 0)]
    for x in factors:
        fe, fp = table[x]
        eps, phi = prefix[-1]
        prefix.append((eps + max(0, fe - phi), fp + max(0, phi - fe)))
    total_eps, total_phi = prefix[-1]
    if direction == "f" and total_phi == 0:
        return None
    if direction == "e" and total_eps == 0:
        return None
    pos = 0
    for j in range(len(factors) - 1, 0, -1):
        fe = table[factors[j]][0]
        phi_left = prefix[j][1]
        if direction == "f":
            if phi_left <= fe:
                pos = j
                break
        else:
            if phi_left < fe:
                pos = j
                break
    new = moves.get(factors[pos])
    if new is None:
        raise InvariantViolation("signature rule selected a dead factor")
    if w.spin is None:
        letters = list(w.letters)
        letters[pos] = new
        return Word(w.kind, tuple(letters), None)
    if pos == 0:
        return Word(w.kind, w.letters, new)
    letters = list(w.letters)
    letters[pos - 1] = new
    return Word(w.kind, tuple(letters), w.spin)


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


def component_bfs(w0: Word) -> set[Word]:
    """All words reachable from w0 by lowering operators (w0 included)."""
    n = w0.kind.rank
    seen = {w0}
    frontier = [w0]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, n + 1):
                v = word_apply(w, i, "f")
                if v is not None and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
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
