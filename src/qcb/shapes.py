"""Columns, tabloids, shapes and the total order on readings.

A dominant weight decomposes as a spin part (at most one fundamental spin
weight) plus a weight in the cone spanned by the wedge fundamental weights;
the latter is drawn as a Young diagram whose columns index tensor slots.  A
tabloid is an arbitrary filling of that diagram by valid columns (plus an
optional spin column in front); orthogonal tableaux are the tabloids whose
reading lies in the crystal of the irreducible module: the component of the
highest tableau's reading, or equivalently the readings that raise to it.
A tabloid's factors fill tensor slots; a slot's fillings depend only on its
kind, a column height or a spin class, which has one ``slot_table`` with
its fillings' weights and each weight's codes.  A tabloid carries its
codes, each a factor's index in its slot's ascending fillings.  What
depends only on the shape lives in its ``shape_tables``, which hands out
one tabloid object per filling.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .crystal import (
    SpinColumn,
    Word,
    component_bfs,
    enumerate_spin_columns,
    raise_to_highest,
    word_sort_key,
)
from .laurent import LaurentPoly
from .rootdata import (
    AlgebraKind,
    Letter,
    Weight2,
    cache_hash,
    check_letter,
    is_valid_letter,
    letter_key,
    letter_weight2,
    letters_hash_key,
    parse_int,
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

    def __hash__(self) -> int:
        return hash((self.kind, letters_hash_key(self.letters)))

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

    @cached_property
    def slots(self) -> tuple[SlotTable, ...]:
        """The slot tables in reading order: the spin class, then the heights right to left."""
        spin = () if self.spin_class is None else (slot_table(self.kind, self.spin_class),)
        return spin + tuple(slot_table(self.kind, h) for h in reversed(self.heights))

    def codes_of(self, factors: Sequence) -> tuple[int, ...]:
        """Each factor's code in its slot, in reading order; a ValueError unless the factors fill the slots."""
        try:
            return tuple(s.index[f] for s, f in zip(self.slots, factors, strict=True))
        except (KeyError, ValueError):
            raise ValueError(f"factors {'/'.join(map(str, factors))} do not fill the slots of {self.heights}") from None


@cache_hash
@dataclass(frozen=True)
class Tabloid:
    """A filling of a shape: optional spin column plus one column per slot.

    ``codes`` holds each factor's code in its slot, in reading order; finding
    them checks that every factor fills its slot.
    """

    shape: Shape
    spin: SpinColumn | None
    columns: tuple[Column, ...]
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "codes", self.shape.codes_of(tabloid_factors(self)))

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


def highest_tabloid(shape: Shape) -> Tabloid:
    """The tableau whose k-th row holds letter k (n-th row -n for minus shapes)."""
    return shape_tables(shape).highest


# -- tensor factors and readings ---------------------------------------------


def tabloid_factors(t: Tabloid) -> tuple:
    """The tensor factors in reading order: the spin column, then the columns right to left."""
    cols = t.columns[::-1]
    return cols if t.spin is None else (t.spin, *cols)


def tabloid_of_factors(shape: Shape, factors: Sequence) -> Tabloid:
    """Inverse of tabloid_factors: the shape's one tabloid with these factors."""
    return tabloid_of_codes(shape, shape.codes_of(factors))


def tabloid_of_columns(shape: Shape, spin: SpinColumn | None, columns: Sequence[Column]) -> Tabloid:
    """The shape's one tabloid with this spin column (or None) and these columns, left to right."""
    return tabloid_of_factors(shape, columns[::-1] if spin is None else (spin, *columns[::-1]))


def tabloid_reading(t: Tabloid) -> Word:
    """The letters of the column factors in order, led by the spin column."""
    letters: list[Letter] = []
    for c in tabloid_factors(t)[t.spin is not None :]:  # the column factors
        letters.extend(c.letters)
    return Word(t.shape.kind, tuple(letters), t.spin)


def word_to_tabloid(w: Word, shape: Shape) -> Tabloid:
    """Inverse of tabloid_reading for a fixed shape."""
    if shape.has_spin() != (w.spin is not None):
        raise MalformedWord("spin factor does not match the shape")
    if len(w.letters) != shape.boxes:
        raise MalformedWord(f"word has {len(w.letters)} letters, shape has {shape.boxes} boxes")
    factors = [] if w.spin is None else [w.spin]
    idx = 0
    for p in reversed(shape.heights):
        factors.append(_columns_by_letters(shape.kind, p).get(w.letters[idx : idx + p]))
        idx += p
    codes = tuple(s.index.get(f) for s, f in zip(shape.slots, factors))
    if None in codes:
        raise MalformedWord(f"{w} does not fill the slots of the shape")
    return tabloid_of_codes(shape, codes)


def weight2_of_tabloid(t: Tabloid) -> Weight2:
    """The weight of the reading: the sum of the factors' weights in their slots."""
    weights = (s.weights[c] for s, c in zip(t.shape.slots, t.codes))
    return tuple(map(sum, zip(weight2_zero(t.shape.kind.rank), *weights)))


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


@dataclass(frozen=True, eq=False)
class SlotTable:
    """The fillings of one kind of tensor slot (cached: do not mutate)."""

    fillings: tuple  # ascending; a filling's code is its position here
    index: dict  # each filling's code
    weights: tuple[Weight2, ...]  # each code's weight
    by_weight: dict[Weight2, tuple[int, ...]]  # each weight's codes, ascending


@lru_cache(maxsize=None)
def slot_table(kind: AlgebraKind, slot: int | str) -> SlotTable:
    """The table of a column height, or of a spin class ("B", "D+" or "D-")."""
    fillings = tuple(enumerate_spin_columns(kind, slot[-1]) if isinstance(slot, str) else enumerate_columns(kind, slot))
    weights = tuple(f.weight2() for f in fillings)
    by_weight: dict[Weight2, list[int]] = {}
    for c, w in enumerate(weights):
        by_weight.setdefault(w, []).append(c)
    return SlotTable(fillings, {f: c for c, f in enumerate(fillings)}, weights, {w: tuple(cs) for w, cs in by_weight.items()})


def tabloid_of_codes(shape: Shape, codes: tuple[int, ...]) -> Tabloid:
    """The tabloid with these codes: one object per filling while the shape's tables are kept."""
    tabloids = shape_tables(shape).tabloids
    t = tabloids.get(codes)
    if t is None:
        f = [s.fillings[c] for s, c in zip(shape.slots, codes)]
        t = Tabloid(shape, f[0], tuple(f[:0:-1])) if shape.has_spin() else Tabloid(shape, None, tuple(f[::-1]))
        tabloids[t.codes] = t  # the tabloid's own tuple: an equal copy as key would cost memory
    return t


def tabloid_weight_counts(shape: Shape) -> Counter[Weight2]:
    """The number of tabloids of the shape of each weight (cached: do not mutate)."""
    return shape_tables(shape).suffix_counts[0]


def enumerate_tabloids(shape: Shape, weight2: Weight2 | None = None) -> list[Tabloid]:
    """All tabloids of the shape (optionally of one weight), sorted ascending.

    Each factor's code is picked in reading order from its slot's ascending
    fillings, so the order of code tuples is the order of readings; each
    tabloid is the shape's one object for its filling (``tabloid_of_codes``).
    A weight is filled exactly: a slot's weight enters only when the weight
    it leaves missing is one the remaining factors can make, and the last
    slot's codes are those of the weight still missing.
    """
    slots = shape.slots
    if weight2 is None:
        return [tabloid_of_codes(shape, codes) for codes in itertools.product(*(range(len(s.fillings)) for s in slots))]
    suffix = shape_tables(shape).suffix_counts
    if weight2 not in suffix[0]:
        return []
    if not slots:
        return [tabloid_of_codes(shape, ())]
    partial = [((), weight2)]  # (codes so far, the weight still missing), ascending
    for j, slot in enumerate(slots[:-1]):
        nxt = []
        for prefix, need in partial:
            # each weight of the slot once: the weight it leaves missing, where the later slots make it
            rests = {w: rest for w in slot.by_weight if (rest := tuple(a - b for a, b in zip(need, w))) in suffix[j + 1]}
            nxt.extend((prefix + (c,), rests[w]) for c, w in enumerate(slot.weights) if w in rests)
        partial = nxt
    last = slots[-1].by_weight
    return [tabloid_of_codes(shape, prefix + (c,)) for prefix, need in partial for c in last.get(need, ())]


def orthogonal_tableaux(shape: Shape) -> dict[Tabloid, Weight2]:
    """Each orthogonal tableau with its weight, ascending: the crystal component of the highest tableau."""
    return shape_tables(shape).component


class ShapeTables:
    """What the requests on one shape share, each part built on first use.

    ``tabloids`` holds the tabloids built so far by their codes, so every
    route to a filling gets one object (``tabloid_of_codes``).  ``canonical``
    fills ``vectors`` with the A(T) built so far, each a flat (tabloid,
    coefficient, ...) tuple, and ``modvec`` fills ``coefficients`` with one
    LaurentPoly per value.  Do not mutate the other tables.
    """

    def __init__(self, shape: Shape):
        self.shape = shape
        self.tabloids: dict[tuple[int, ...], Tabloid] = {}
        self.vectors: dict[Tabloid, tuple] = {}
        self.coefficients: dict[LaurentPoly, LaurentPoly] = {LaurentPoly.one(): LaurentPoly.one()}

    @cached_property
    def highest(self) -> Tabloid:
        shape = self.shape
        kind = shape.kind
        n = kind.rank
        letters = [(*range(1, h), -n if h == n and shape.d_sign == "-" else h) for h in shape.heights]
        cols = [_columns_by_letters(kind, len(c))[c] for c in letters]
        spin = None
        if shape.spin_class in ("B", "D+"):
            spin = SpinColumn.highest(kind)
        elif shape.spin_class == "D-":
            spin = SpinColumn.highest_minus(kind)
        return tabloid_of_columns(shape, spin, cols)

    @cached_property
    def suffix_counts(self) -> tuple[Counter[Weight2], ...]:
        """Entry j counts the fillings of factors j, j+1, ... by weight."""
        counts = Counter({weight2_zero(self.shape.kind.rank): 1})
        table = [counts]
        for s in reversed(self.shape.slots):
            slot = Counter(s.weights)
            nxt: Counter[Weight2] = Counter()
            for w, c in counts.items():
                for sw, k in slot.items():
                    nxt[weight2_add(w, sw)] += c * k
            counts = nxt
            table.append(counts)
        return tuple(reversed(table))

    @cached_property
    def component(self) -> dict[Tabloid, Weight2]:
        words = sorted(component_bfs(tabloid_reading(self.highest)), key=word_sort_key)
        weights: dict[Weight2, Weight2] = {}  # one tuple per distinct weight
        return {word_to_tabloid(w, self.shape): weights.setdefault(mu := w.weight2(), mu) for w in words}

    @cached_property
    def by_weight(self) -> dict[Weight2, tuple[Tabloid, ...]]:
        """The orthogonal tableaux of each weight, ascending."""
        index: dict[Weight2, list[Tabloid]] = {}
        for t, mu in self.component.items():
            index.setdefault(mu, []).append(t)
        return {mu: tuple(tabs) for mu, tabs in index.items()}


# a whole crystal component and every A(T) built, so only a few shapes; not
# stored on the shape, so a tabloid held after eviction does not keep them
@lru_cache(maxsize=8)
def shape_tables(shape: Shape) -> ShapeTables:
    """The shape's tables."""
    return ShapeTables(shape)


def enumerate_tableaux(lam: tuple[int, ...], kind: AlgebraKind, weight2: Weight2 | None = None) -> list[Tabloid]:
    """Orthogonal tableaux of highest weight lam, sorted ascending."""
    shape = shape_for_lambda(lam, kind)
    if weight2 is None:
        return list(orthogonal_tableaux(shape))
    return list(shape_tables(shape).by_weight.get(weight2, ()))


# -- parsing / formatting ----------------------------------------------------


def parse_column(text: str, kind: AlgebraKind) -> Column:
    letters = tuple(parse_int(tok.strip(), "letter") for tok in text.split(",") if tok.strip() != "")
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
        letters = [parse_int(tok.strip(), "letter") for tok in parts[0][2:].split(",")]
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
    return tabloid_of_columns(shape, spin, cols)
