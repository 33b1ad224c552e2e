"""Columns, tabloids, shapes and the total order on readings.

A dominant weight decomposes as a spin part (at most one fundamental spin
weight) plus a weight in the cone spanned by the wedge fundamental weights;
the latter is drawn as a Young diagram whose columns index tensor slots.  A
tabloid is an arbitrary filling of that diagram by valid columns (plus an
optional spin column in front); orthogonal tableaux are the tabloids whose
reading lies in the crystal of the irreducible module: the component of the
highest tableau's reading, or equivalently the readings that raise to it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .crystal import (
    SpinColumn,
    Word,
    component_bfs,
    enumerate_spin_columns,
    raise_to_highest,
    word_sort_key,
)
from .rootdata import (
    AlgebraKind,
    Letter,
    Weight2,
    cache_hash,
    check_letter,
    is_valid_letter,
    letter_key,
    letter_weight2,
    weight2_add,
    weight2_zero,
)


class NotInOmegaPlus(ValueError):
    """The weight is not a nonnegative combination of wedge fundamentals."""


class MalformedWord(ValueError):
    """A word does not parse back into a tabloid of the requested shape."""


class ShapeMismatch(ValueError):
    """Two tabloids of different shapes were compared."""


def _key_tie(x: Letter, n: int, family: str) -> int:
    # For D, n and -n share a key so stable sorts keep their relative order.
    if family == "D" and x == -n:
        return n
    return letter_key(x, n)


def first_violation(kind: AlgebraKind, letters: tuple[Letter, ...]) -> int | None:
    """The first j at which letters j, j+1 break the column order, or None."""
    n = kind.rank
    for j, (a, b) in enumerate(zip(letters, letters[1:])):
        if kind.family == "B":
            bad = letter_key(a, n) >= letter_key(b, n) and not a == b == 0
        else:
            # b must not be <= a in the D partial order (n, -n incomparable)
            bad = a == b or _key_tie(b, n, "D") < _key_tie(a, n, "D")
        if bad:
            return j
    return None


def is_valid_column_letters(kind: AlgebraKind, letters: tuple[Letter, ...]) -> bool:
    return all(is_valid_letter(kind, x) for x in letters) and first_violation(kind, letters) is None


@cache_hash
@dataclass(frozen=True)
class Column:
    """A column filling, letters top to bottom."""

    kind: AlgebraKind
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if not is_valid_column_letters(self.kind, self.letters):
            raise ValueError(f"invalid {self.kind} column {list(self.letters)}")

    @property
    def height(self) -> int:
        return len(self.letters)

    def word(self) -> Word:
        return Word(self.kind, self.letters)

    def weight2(self) -> Weight2:
        n = self.kind.rank
        w = weight2_zero(n)
        for x in self.letters:
            w = weight2_add(w, letter_weight2(x, n))
        return w

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)


@cache_hash
@dataclass(frozen=True)
class Shape:
    """Column heights plus the spin slot and the type-D height-n marker."""

    kind: AlgebraKind
    heights: tuple[int, ...]
    spin_class: str | None = None  # None | "B" | "D+" | "D-"
    d_sign: str | None = None  # "+" | "0" | "-" for D shapes, None for B

    def __post_init__(self):
        n = self.kind.rank
        if any(not 1 <= h <= n for h in self.heights):
            raise ValueError("column heights must lie in 1..n")
        if any(a < b for a, b in zip(self.heights, self.heights[1:])):
            raise ValueError("column heights must be weakly decreasing")
        if self.kind.family == "B":
            if self.spin_class not in (None, "B") or self.d_sign is not None:
                raise ValueError("bad spin/d_sign markers for a type-B shape")
        else:
            if self.spin_class not in (None, "D+", "D-"):
                raise ValueError("bad spin marker for a type-D shape")
            has_full = any(h == n for h in self.heights)
            if has_full and self.d_sign not in ("+", "-"):
                raise ValueError("height-n columns need d_sign '+' or '-'")
            if not has_full and self.d_sign != "0":
                raise ValueError("d_sign must be '0' without height-n columns")

    @property
    def boxes(self) -> int:
        return sum(self.heights)

    def has_spin(self) -> bool:
        return self.spin_class is not None


@cache_hash
@dataclass(frozen=True)
class Tabloid:
    """A filling of a shape: optional spin column plus one column per slot."""

    shape: Shape
    spin: SpinColumn | None
    columns: tuple[Column, ...]

    def __post_init__(self):
        if tuple(c.height for c in self.columns) != self.shape.heights:
            raise ValueError("column heights do not match the shape")
        if self.shape.has_spin():
            if self.spin is None:
                raise ValueError("shape requires a spin column")
            want = self.shape.spin_class
            if want == "B":
                if self.spin.kind.family != "B":
                    raise ValueError("spin column has the wrong type")
            elif self.spin.sign_class() != want[1]:
                raise ValueError("spin column is in the wrong class")
        elif self.spin is not None:
            raise ValueError("shape has no spin slot")
        for c in self.columns:
            if c.kind != self.shape.kind:
                raise ValueError("column kind mismatch")

    def __str__(self) -> str:
        parts = [] if self.spin is None else [str(self.spin)]
        parts.extend(str(c) for c in self.columns)
        return "/".join(parts)


# -- dominant weights and shapes ------------------------------------------


def decompose_lambda(lam: tuple[int, ...], kind: AlgebraKind) -> tuple[str | None, tuple[int, ...]]:
    """Split a dominant weight into its spin part tag and the wedge part.

    Returns (tag, lam') with tag in {None, "B", "D+", "D-"} naming the spin
    fundamental weight subtracted off, and lam' in the wedge cone.
    """
    n = kind.rank
    if len(lam) != n:
        raise ValueError(f"expected {n} fundamental-weight coefficients")
    if any(c < 0 for c in lam):
        raise ValueError("dominant weight needs nonnegative coefficients")
    lam = tuple(lam)
    if kind.family == "B":
        if lam[n - 1] % 2:
            return "B", lam[: n - 1] + (lam[n - 1] - 1,)
        return None, lam
    diff = lam[n - 1] - lam[n - 2]
    if diff % 2 == 0:
        return None, lam
    if diff > 0:
        return "D+", lam[: n - 1] + (lam[n - 1] - 1,)
    return "D-", lam[: n - 2] + (lam[n - 2] - 1, lam[n - 1])


def shape_of(lam_prime: tuple[int, ...], spin_tag: str | None, kind: AlgebraKind) -> Shape:
    """The diagram for a wedge-cone weight, with the spin slot per the tag."""
    n = kind.rank
    heights: list[int] = []
    if kind.family == "B":
        if lam_prime[n - 1] % 2:
            raise NotInOmegaPlus(f"{lam_prime} has odd last coefficient")
        for i in range(1, n):
            heights.extend([i] * lam_prime[i - 1])
        heights.extend([n] * (lam_prime[n - 1] // 2))
        spin = "B" if spin_tag == "B" else None
        if spin_tag not in (None, "B"):
            raise ValueError(f"bad spin tag {spin_tag!r} for type B")
        return Shape(kind, tuple(sorted(heights, reverse=True)), spin, None)
    a, b = lam_prime[n - 2], lam_prime[n - 1]
    if (b - a) % 2:
        raise NotInOmegaPlus(f"{lam_prime} has mixed parity in the last two slots")
    for i in range(1, n - 1):
        heights.extend([i] * lam_prime[i - 1])
    heights.extend([n - 1] * min(a, b))
    heights.extend([n] * (abs(b - a) // 2))
    d_sign = "+" if b > a else ("-" if b < a else "0")
    if spin_tag not in (None, "D+", "D-"):
        raise ValueError(f"bad spin tag {spin_tag!r} for type D")
    return Shape(kind, tuple(sorted(heights, reverse=True)), spin_tag, d_sign)


def shape_for_lambda(lam: tuple[int, ...], kind: AlgebraKind) -> Shape:
    tag, lam_prime = decompose_lambda(lam, kind)
    return shape_of(lam_prime, tag, kind)


def lambda_of_shape(shape: Shape) -> tuple[int, ...]:
    """Recover the dominant weight a shape encodes."""
    n = shape.kind.rank
    counts = [0] * (n + 1)
    for h in shape.heights:
        counts[h] += 1
    lam = [0] * n
    if shape.kind.family == "B":
        for i in range(1, n):
            lam[i - 1] = counts[i]
        lam[n - 1] = 2 * counts[n]
        if shape.spin_class == "B":
            lam[n - 1] += 1
        return tuple(lam)
    for i in range(1, n - 1):
        lam[i - 1] = counts[i]
    if shape.d_sign == "-":
        lam[n - 2] = counts[n - 1] + 2 * counts[n]
        lam[n - 1] = counts[n - 1]
    else:
        lam[n - 2] = counts[n - 1]
        lam[n - 1] = counts[n - 1] + 2 * counts[n]
    if shape.spin_class == "D+":
        lam[n - 1] += 1
    elif shape.spin_class == "D-":
        lam[n - 2] += 1
    return tuple(lam)


@lru_cache(maxsize=None)
def highest_tabloid(shape: Shape) -> Tabloid:
    """The tableau whose k-th row holds letter k (n-th row -n for minus shapes)."""
    kind = shape.kind
    n = kind.rank
    cols = []
    for h in shape.heights:
        letters = tuple(range(1, h + 1))
        if kind.family == "D" and h == n and shape.d_sign == "-":
            letters = tuple(range(1, n)) + (-n,)
        cols.append(Column(kind, letters))
    spin = None
    if shape.spin_class in ("B", "D+"):
        spin = SpinColumn.highest(kind)
    elif shape.spin_class == "D-":
        spin = SpinColumn.highest_minus(kind)
    return Tabloid(shape, spin, tuple(cols))


# -- readings and weights ---------------------------------------------------


def tabloid_reading(t: Tabloid) -> Word:
    """Columns read right to left, each top to bottom; spin column leads."""
    letters: list[Letter] = []
    for c in reversed(t.columns):
        letters.extend(c.letters)
    return Word(t.shape.kind, tuple(letters), t.spin)


def word_to_tabloid(w: Word, shape: Shape) -> Tabloid:
    """Inverse of tabloid_reading for a fixed shape."""
    if shape.has_spin() != (w.spin is not None):
        raise MalformedWord("spin factor does not match the shape")
    if len(w.letters) != shape.boxes:
        raise MalformedWord(f"word has {len(w.letters)} letters, shape has {shape.boxes} boxes")
    cols: list[Column] = []
    idx = 0
    for h in reversed(shape.heights):
        letters = w.letters[idx : idx + h]
        col = _columns_by_letters(shape.kind, h).get(letters)
        if col is None:
            raise MalformedWord(f"invalid {shape.kind} column {list(letters)}")
        cols.append(col)
        idx += h
    try:
        return Tabloid(shape, w.spin, tuple(reversed(cols)))
    except ValueError as exc:
        raise MalformedWord(str(exc)) from exc


def weight2_of_tabloid(t: Tabloid) -> Weight2:
    return tabloid_reading(t).weight2()


def tabloid_sort_key(t: Tabloid) -> tuple:
    return word_sort_key(tabloid_reading(t))


def tabloid_leq(t1: Tabloid, t2: Tabloid) -> bool:
    """The total order on tabloids of one shape (lexicographic on readings)."""
    if t1.shape != t2.shape:
        raise ShapeMismatch(f"{t1.shape} vs {t2.shape}")
    return tabloid_sort_key(t1) <= tabloid_sort_key(t2)


# -- membership tests -------------------------------------------------------


@lru_cache(maxsize=None)
def is_admissible(col: Column) -> bool:
    """True when the column's reading raises to a fundamental highest word."""
    kind = col.kind
    p = col.height
    hw, _ = raise_to_highest(col.word())
    if hw.letters == tuple(range(1, p + 1)):
        return True
    if kind.family == "D" and p == kind.rank:
        return hw.letters == tuple(range(1, p)) + (-p,)
    return False


def is_orthogonal_tableau(t: Tabloid) -> bool:
    hw, _ = raise_to_highest(tabloid_reading(t))
    return hw == tabloid_reading(highest_tabloid(t.shape))


# -- enumeration ------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_columns(kind: AlgebraKind, p: int, admissible_only: bool = False) -> tuple[Column, ...]:
    """All (or all admissible) height-p columns, sorted by their readings."""
    n = kind.rank
    if not 1 <= p <= n:
        raise ValueError(f"height must lie in 1..{n}")
    cols: list[Column] = []
    if kind.family == "B":
        nonzero = [x for x in range(1, n + 1)] + [-x for x in range(n, 0, -1)]
        for zeros in range(0, p + 1):
            for rest in itertools.combinations(nonzero, p - zeros):
                letters = sorted(rest + (0,) * zeros, key=lambda x: letter_key(x, n))
                cols.append(Column(kind, tuple(letters)))
    else:
        low = list(range(1, n))
        high = [-x for x in range(n - 1, 0, -1)]
        for mid_len in range(0, p + 1):
            mids: list[tuple[int, ...]]
            if mid_len == 0:
                mids = [()]
            else:
                # alternating n / -n runs; two of each positive length
                a = tuple(n if j % 2 == 0 else -n for j in range(mid_len))
                b = tuple(-n if j % 2 == 0 else n for j in range(mid_len))
                mids = [a, b]
            rest = p - mid_len
            for lo_len in range(0, rest + 1):
                hi_len = rest - lo_len
                for lo in itertools.combinations(low, lo_len):
                    for hi in itertools.combinations(high, hi_len):
                        for mid in mids:
                            cols.append(Column(kind, lo + mid + hi))
    if admissible_only:
        cols = [c for c in cols if is_admissible(c)]
    cols.sort(key=lambda c: word_sort_key(c.word()))
    return tuple(cols)


@lru_cache(maxsize=None)
def _columns_by_letters(kind: AlgebraKind, p: int) -> dict[tuple[Letter, ...], Column]:
    """The height-p columns keyed by their letters, so equal fillings share one object."""
    return {c.letters: c for c in enumerate_columns(kind, p)}


def _slot_choices(shape: Shape) -> list[list]:
    """The fillings of each slot: the spin column first, then the columns."""
    kind = shape.kind
    slots: list[list] = []
    if shape.has_spin():
        sign = None if shape.spin_class == "B" else shape.spin_class[1]
        slots.append(enumerate_spin_columns(kind, sign))
    for h in shape.heights:
        slots.append(list(enumerate_columns(kind, h)))
    return slots


@lru_cache(maxsize=8)
def tabloid_weight_counts(shape: Shape) -> Counter[Weight2]:
    """The number of tabloids of the shape of each weight (cached: do not mutate)."""
    counts = Counter({weight2_zero(shape.kind.rank): 1})
    for choices in _slot_choices(shape):
        slot = Counter(choice.weight2() for choice in choices)
        nxt: Counter[Weight2] = Counter()
        for w, c in counts.items():
            for sw, k in slot.items():
                nxt[weight2_add(w, sw)] += c * k
        counts = nxt
    return counts


def enumerate_tabloids(shape: Shape, weight2: Weight2 | None = None) -> list[Tabloid]:
    """All tabloids of the shape (optionally of one weight), sorted ascending."""
    n = shape.kind.rank
    slot_choices = _slot_choices(shape)
    remaining = [0] * (len(slot_choices) + 1)
    for j in range(len(slot_choices) - 1, -1, -1):
        cap = n if (shape.has_spin() and j == 0) else 2 * slot_choices[j][0].height
        remaining[j] = remaining[j + 1] + cap

    out: list[Tabloid] = []
    picks: list = []

    def rec(j: int, w: Weight2) -> None:
        if weight2 is not None:
            need = sum(abs(a - b) for a, b in zip(weight2, w))
            if need > remaining[j]:
                return
        if j == len(slot_choices):
            if weight2 is None or w == weight2:
                spin = picks[0] if shape.has_spin() else None
                cols = tuple(picks[1:] if shape.has_spin() else picks)
                out.append(Tabloid(shape, spin, cols))
            return
        for choice in slot_choices[j]:
            picks.append(choice)
            rec(j + 1, weight2_add(w, choice.weight2()))
            picks.pop()

    rec(0, weight2_zero(n))
    out.sort(key=tabloid_sort_key)
    return out


# each entry holds a whole crystal component, so keep only a few shapes
@lru_cache(maxsize=8)
def orthogonal_tableaux(shape: Shape) -> dict[Tabloid, Weight2]:
    """Each orthogonal tableau with its weight, in ascending order (cached: do not mutate).

    The tableaux are read off the crystal component of the highest tableau's reading.
    """
    words = sorted(component_bfs(tabloid_reading(highest_tabloid(shape))), key=word_sort_key)
    weights: dict[Weight2, Weight2] = {}  # one tuple per distinct weight
    return {word_to_tabloid(w, shape): weights.setdefault(mu := w.weight2(), mu) for w in words}


def enumerate_tableaux(lam: tuple[int, ...], kind: AlgebraKind, weight2: Weight2 | None = None) -> list[Tabloid]:
    """Orthogonal tableaux of highest weight lam, sorted ascending."""
    table = orthogonal_tableaux(shape_for_lambda(lam, kind))
    return [t for t, mu in table.items() if weight2 is None or mu == weight2]


# -- parsing / formatting ----------------------------------------------------


def parse_column(text: str, kind: AlgebraKind) -> Column:
    letters = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    for x in letters:
        check_letter(kind, x)
    return Column(kind, letters)


def parse_tabloid(text: str, kind: AlgebraKind, d_sign: str | None = None) -> Tabloid:
    """Parse 's:1,-2/2,0,-2/2,-3/2' style text into a tabloid.

    For type D fillings containing a height-n column the shape marker is
    ambiguous, so d_sign must be supplied.
    """
    parts = [p for p in text.split("/") if p.strip() != ""]
    spin = None
    if parts and parts[0].startswith("s:"):
        letters = [int(tok) for tok in parts[0][2:].split(",")]
        barred = frozenset(-x for x in letters if x < 0)
        if sorted(abs(x) for x in letters) != list(range(1, kind.rank + 1)):
            raise ValueError("spin column must pick one letter per pair")
        spin = SpinColumn(kind, barred)
        parts = parts[1:]
    cols = tuple(parse_column(p, kind) for p in parts)
    heights = tuple(c.height for c in cols)
    if kind.family == "B":
        shape = Shape(kind, heights, "B" if spin is not None else None, None)
    else:
        spin_class = None
        if spin is not None:
            spin_class = "D+" if spin.sign_class() == "+" else "D-"
        if any(h == kind.rank for h in heights):
            if d_sign not in ("+", "-"):
                raise ValueError("type D filling with height-n columns needs d_sign '+' or '-'")
            shape = Shape(kind, heights, spin_class, d_sign)
        else:
            shape = Shape(kind, heights, spin_class, "0")
    return Tabloid(shape, spin, cols)
