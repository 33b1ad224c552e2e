"""Columns, tabloids, shapes and the total order on readings.

A dominant weight decomposes as a spin part (at most one fundamental spin
weight) plus a weight in the cone spanned by the wedge fundamental weights;
the latter is drawn as a Young diagram whose columns index tensor slots.  A
tabloid is an arbitrary filling of that diagram by valid columns (plus an
optional spin column in front); orthogonal tableaux are the tabloids whose
reading lies in the crystal of the irreducible module: the component of the
highest tableau's reading, or equivalently the readings that raise to it.
A tabloid's factors fill tensor slots; a slot's fillings depend only on its
kind, a column height or a spin class, which has one ``slot_table``: its
fillings' weights, their crystal rows at each node, and the coded divided
powers ``modvec`` fills.  A tabloid is its shape and its codes, each a
factor's index in its slot's ascending fillings.  What depends only on the
shape lives in its ``shape_tables``, which hands out one tabloid object per
filling, its slots' tables per node and its packed weights.  The crystal
runs on those codes: a reading is the tensor product of its fillings, so the
signature rule over the fillings' own (eps_i, phi_i) rows
(``SlotTable.crystal``) gives the reading's (``ShapeTables.eps_phi``), and
the filling it selects moves by its own e_i or f_i code
(``ShapeTables.apply``).  The component is searched that way; the ``Word``
crystal on readings is the oracle.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache

from .crystal import (
    SpinColumn,
    Word,
    component_bfs,
    enumerate_spin_columns,
    raise_to_highest,
    signature_rule,
    tensor_apply,
    tensor_eps_phi,
    word_sort_key,
)
from .laurent import ONE_TERMS
from .rootdata import (
    AlgebraKind,
    Letter,
    Value,
    Weight2,
    alphabet,
    check_letter,
    is_valid_letter,
    letter_key,
    letters_hash_key,
    parse_int,
    weight2_zero,
)


class NotInOmegaPlus(ValueError):
    """The weight is not a nonnegative combination of wedge fundamentals."""


class MalformedWord(ValueError):
    """A word does not parse back into a tabloid of the requested shape."""


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


class Column(Value):
    """A column filling, letters top to bottom."""

    def __init__(self, kind: AlgebraKind, letters: tuple[Letter, ...]):
        self._init(kind, letters)

    def __post_init__(self):
        if not is_valid_column_letters(self.kind, self.letters):
            raise ValueError(f"invalid {self.kind} column {list(self.letters)}")

    def _hash_key(self) -> tuple:
        return self.kind, letters_hash_key(self.letters)

    @property
    def height(self) -> int:
        return len(self.letters)

    def word(self) -> Word:
        return Word(self.kind, self.letters)

    def weight2(self) -> Weight2:
        return self.word().weight2()

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)


class Shape(Value):
    """Column heights plus the spin slot (None, "B", "D+" or "D-") and the
    type-D height-n marker ("+", "0" or "-" for D shapes, None for B)."""

    def __init__(self, kind: AlgebraKind, heights: tuple[int, ...], spin_class: str | None = None, d_sign: str | None = None):
        self._init(kind, heights, spin_class, d_sign)

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


class Tabloid:
    """A filling of a shape: optional spin column plus one column per slot.

    A tabloid is its shape and its ``codes``, each factor's code in its
    slot, in reading order; equality and hash are on those two, and the
    spin column and the columns are read back from the slot tables.
    ``Tabloid(shape, spin, columns)`` finds the codes (``Shape.codes_of``,
    which checks that every factor fills its slot) and returns the shape's
    one object for them, as ``tabloid_of_codes`` does for codes it holds.
    """

    __slots__ = ("shape", "codes", "_hash")

    def __new__(cls, shape: Shape, spin: SpinColumn | None, columns: Sequence[Column]):
        cols = tuple(columns)[::-1]
        return tabloid_of_codes(shape, shape.codes_of(cols if spin is None else (spin, *cols)))

    __setattr__ = __delattr__ = Value.__setattr__
    __hash__ = Value.__hash__

    def __reduce__(self):
        # rebuilt from (shape, codes): the cached hash, salted per process
        # through the shape's strings, stays behind
        return tabloid_of_codes, (self.shape, self.codes)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Tabloid:
            return NotImplemented
        return self.codes == other.codes and self.shape == other.shape

    def _hash_key(self) -> tuple:
        return self.shape, self.codes

    @property
    def spin(self) -> SpinColumn | None:
        return self.shape.slots[0].fillings[self.codes[0]] if self.shape.has_spin() else None

    @property
    def columns(self) -> tuple[Column, ...]:
        """The columns left to right."""
        factors = tabloid_factors(self)
        return factors[:0:-1] if self.shape.has_spin() else factors[::-1]

    def __repr__(self) -> str:
        return f"Tabloid({self.shape!r}, {self.spin!r}, {self.columns!r})"

    def __str__(self) -> str:
        return next(tabloid_labels((self,)))


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


def shape_for_lambda(lam: Sequence[int], kind: AlgebraKind) -> Shape:
    """The shape of the dominant weight lam: one object per (lam, kind), lam
    read as a tuple, so a request finds the shape and its cached hash and
    slots without building or checking them again."""
    return _shape_for_lambda(tuple(lam), kind)


@lru_cache(maxsize=256)
def _shape_for_lambda(lam: tuple[int, ...], kind: AlgebraKind) -> Shape:
    tag, lam_prime = decompose_lambda(lam, kind)
    return shape_of(lam_prime, tag, kind)


def highest_tabloid(shape: Shape) -> Tabloid:
    """The tableau whose k-th row holds letter k (n-th row -n for minus shapes)."""
    return shape_tables(shape).highest


# -- tensor factors and readings ---------------------------------------------


def tabloid_factors(t: Tabloid) -> tuple:
    """The tensor factors in reading order: the spin column, then the columns right to left."""
    return tuple(s.fillings[c] for s, c in zip(t.shape.slots, t.codes))


def tabloid_labels(tabloids: Sequence[Tabloid]) -> Iterator[str]:
    """Each tabloid's printed form, lazily: the spin column, then the columns
    left to right (the reading order with its columns reversed), joined by "/".
    The tabloids share one shape, so its slot order is found once."""
    if not tabloids:
        return
    shape = tabloids[0].shape
    slots, k = shape.slots, shape.has_spin()
    order = [(i, slots[i].texts) for i in (*range(k), *range(len(slots) - 1, k - 1, -1))]
    for t in tabloids:
        codes = t.codes
        yield "/".join([texts[codes[i]] for i, texts in order])


def tabloid_reading(t: Tabloid) -> Word:
    """The letters of the column factors in order, led by the spin column."""
    factors = tabloid_factors(t)
    k = t.shape.has_spin()
    letters: list[Letter] = []
    for c in factors[k:]:  # the column factors
        letters.extend(c.letters)
    return Word(t.shape.kind, tuple(letters), factors[0] if k else None)


def word_to_tabloid(w: Word, shape: Shape) -> Tabloid:
    """Inverse of tabloid_reading for a fixed shape."""
    if shape.has_spin() != (w.spin is not None):
        raise MalformedWord("spin factor does not match the shape")
    if len(w.letters) != shape.boxes:
        raise MalformedWord(f"word has {len(w.letters)} letters, shape has {shape.boxes} boxes")
    ends = tuple(itertools.accumulate(reversed(shape.heights), initial=0))
    try:
        cols = [Column(shape.kind, w.letters[a:b]) for a, b in zip(ends, ends[1:])]
        codes = shape.codes_of(cols if w.spin is None else [w.spin, *cols])
    except ValueError as e:
        raise MalformedWord(f"{w} does not fill the slots of the shape") from e
    return tabloid_of_codes(shape, codes)


def weight2_of_tabloid(t: Tabloid) -> Weight2:
    """The weight of the reading: the sum of the factors' weights in their slots."""
    weights = (s.weights[c] for s, c in zip(t.shape.slots, t.codes))
    return tuple(map(sum, zip(weight2_zero(t.shape.kind.rank), *weights)))


def tabloid_sort_key(t: Tabloid) -> tuple:
    return word_sort_key(tabloid_reading(t))


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
    """True when the tabloid lies in the crystal component of its shape's highest tableau."""
    return t in shape_tables(t.shape).component


# -- enumeration ------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_columns(kind: AlgebraKind, p: int, admissible_only: bool = False) -> tuple[Column, ...]:
    """All (or all admissible) height-p columns, sorted by their readings.

    The words are grown a letter at a time over the alphabet, keeping each
    letter the column condition (``first_violation``) lets follow the last;
    trying the letters in alphabet order yields the words already sorted.
    """
    if not 1 <= p <= kind.rank:
        raise ValueError(f"height must lie in 1..{kind.rank}")
    words: list[tuple[Letter, ...]] = [()]
    for _ in range(p):
        words = [w + (x,) for w in words for x in alphabet(kind) if not w or first_violation(kind, (w[-1], x)) is None]
    cols = [Column(kind, w) for w in words]
    return tuple(c for c in cols if is_admissible(c)) if admissible_only else tuple(cols)


class SlotTable(Value):
    """The fillings of one kind of tensor slot (cached: do not mutate, but for
    the entries of ``powers`` that ``modvec`` fills), equal only to itself.

    ``fillings`` ascend, and a filling's code is its position there;
    ``index`` maps each filling to its code, and ``weights`` and ``texts``
    hold each code's weight and printed filling.  ``crystal`` holds each
    filling's crystal row at each node, all built on first use.  ``powers``
    holds, by node i and code, the filling's t_i exponent and coded divided
    f_i powers, None until ``modvec`` first asks for the code.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, fillings: tuple, index: dict, weights: tuple[Weight2, ...], texts: tuple[str, ...], powers: dict[int, list]):
        self._init(fillings, index, weights, texts, powers)

    @cached_property
    def crystal(self) -> dict[int, tuple[tuple, ...]]:
        """By node i, each code's row (eps_i, phi_i, e_i code, f_i code, highest).

        A code is None where the operator vanishes; highest says every eps_j
        is 0.  A row comes from the signature rule over the filling's letters
        (a spin column is one factor).
        """
        kind = self.fillings[0].kind
        nodes = range(1, kind.rank + 1)
        per_filling = []
        for f in self.fillings:
            spin = isinstance(f, SpinColumn)
            factors = (f,) if spin else f.letters
            rows = []
            for j in nodes:
                moved = [tensor_apply(kind, factors, j, d) for d in "ef"]
                codes = [None if m is None else self.index[m[0] if spin else Column(kind, m)] for m in moved]
                rows.append((*tensor_eps_phi(kind, factors, j), *codes))
            highest = not any(r[0] for r in rows)
            per_filling.append([(*r, highest) for r in rows])
        return {j: tuple(rows[j - 1] for rows in per_filling) for j in nodes}


@lru_cache(maxsize=None)
def slot_table(kind: AlgebraKind, slot: int | str) -> SlotTable:
    """The table of a column height, or of a spin class ("B", "D+" or "D-")."""
    fillings = tuple(enumerate_spin_columns(kind, slot[-1]) if isinstance(slot, str) else enumerate_columns(kind, slot))
    index = {f: c for c, f in enumerate(fillings)}
    powers = {i: [None] * len(fillings) for i in range(1, kind.rank + 1)}
    return SlotTable(fillings, index, tuple(f.weight2() for f in fillings), tuple(map(str, fillings)), powers)


def tabloid_of_codes(shape: Shape, codes: tuple[int, ...]) -> Tabloid:
    """The tabloid with these codes: one object per filling while the shape's tables are kept."""
    return shape_tables(shape).tabloid(codes)


def enumerate_tabloids(shape: Shape, weight2: Weight2 | None = None) -> list[Tabloid]:
    """All tabloids of the shape (optionally of one weight), sorted ascending.

    Each factor's code is picked in reading order from its slot's ascending
    fillings, so the order of code tuples is the order of readings; each
    tabloid is the shape's one object for its filling (``ShapeTables.tabloid``).
    A weight is filled exactly, on packed weights (``ShapeTables.pack``): a
    code enters only when the weight it leaves missing is one the remaining
    slots can make, and the last slot's codes are looked up by the weight
    still missing (``ShapeTables.tails``).
    """
    tables = shape_tables(shape)
    if weight2 is None:
        return [tables.tabloid(codes) for codes in itertools.product(*(range(len(s.fillings)) for s in shape.slots))]
    if (need := tables.pack(weight2)) not in tables.suffix_counts[0]:  # None: no tabloid's weight
        return []
    partial = [((), need)]  # (codes so far, the packed weight still missing), ascending
    for packs, rest in zip(tables.packs[:-1], tables.suffix_counts[1:]):
        partial = [(codes + (c,), left) for codes, missing in partial for c, w in enumerate(packs) if (left := missing - w) in rest]
    tails = tables.tails
    return [tables.tabloid(codes + tail) for codes, missing in partial for tail in tails[missing]]


def orthogonal_tableaux(shape: Shape) -> dict[Tabloid, Weight2]:
    """Each orthogonal tableau with its weight, ascending: the crystal component of the highest tableau."""
    return shape_tables(shape).component


class ShapeTables:
    """What the requests on one shape share, each part built on first use.

    ``tabloids`` holds the tabloids built so far by their codes, so every
    route to a filling gets one object (``tabloid``, which ``Tabloid(...)``,
    ``tabloid_of_codes`` and ``word_to_tabloid`` go through); ``component``
    is the one membership test for orthogonal tableaux.  ``canonical`` fills
    ``steps`` with each tableau's raising step (i, r, next), next = e_i^r of
    the tableau, or None where the walk ends, made by the first walk to
    reach the tableau and read by every later one, the builder's and
    ``a_path``'s alike.  It fills ``vectors`` with the A(T) built so far by
    tableau, each a flat (codes, terms, ...) tuple, terms being a
    coefficient's ascending ((exponent, coefficient), ...) pairs.  Those
    tuples share each codes tuple with the tabloid it codes, and each terms
    tuple with ``terms``, where ``modvec`` keeps one tuple per value.  A
    hot path looks the shape up once a step, then indexes: ``crystal`` and
    ``powers`` hold, per node, each slot's crystal rows and coded divided
    powers, read from its ``SlotTable`` (so shared by the shapes), and
    weights add as ints in one packing (``pack``, by the place values of
    ``packing``): each slot's packed weights (``packs``), the weight counts
    of each run of last slots (``suffix_counts``) and the last slot's codes
    by packed weight (``tails``), so a weight space's rows are filled
    without building a weight.  What a request needs only while it runs,
    such as its divided-power memo, is not kept here.  Do not mutate the
    others.
    """

    def __init__(self, shape: Shape):
        self.shape = shape
        self.tabloids: dict[tuple[int, ...], Tabloid] = {}
        self.steps: dict[Tabloid, tuple[int, int, Tabloid] | None] = {}
        self.vectors: dict[Tabloid, tuple] = {}
        self.terms: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {ONE_TERMS: ONE_TERMS}

    def tabloid(self, codes: tuple[int, ...]) -> Tabloid:
        """The shape's one tabloid with these codes."""
        t = self.tabloids.get(codes)
        if t is None:
            # codes that index the slots fill them: skip the constructor's check
            t = self.tabloids[codes] = object.__new__(Tabloid)
            object.__setattr__(t, "shape", self.shape)
            object.__setattr__(t, "codes", codes)
        return t

    @cached_property
    def crystal(self) -> dict[int, tuple[tuple[tuple, ...], ...]]:
        """Per node i, each slot's ``SlotTable.crystal`` rows at i, in reading order."""
        return {i: tuple(s.crystal[i] for s in self.shape.slots) for i in range(1, self.shape.kind.rank + 1)}

    def eps_phi(self, codes: tuple[int, ...], i: int) -> tuple[int, int]:
        """(eps_i, phi_i) of the reading of the tabloid with these codes."""
        return signature_rule([by_code[c] for by_code, c in zip(self.crystal[i], codes)])[:2]

    def apply(self, codes: tuple[int, ...], i: int, direction: str) -> tuple[int, ...] | None:
        """The Kashiwara operator on the reading of the tabloid with these codes: the
        slot the signature rule picks moves by its own operator; None where it vanishes."""
        rows = [by_code[c] for by_code, c in zip(self.crystal[i], codes)]
        pos = signature_rule(rows, direction)[2]
        if pos is None:
            return None
        return codes[:pos] + (rows[pos][3 if direction == "f" else 2],) + codes[pos + 1 :]

    @cached_property
    def powers(self) -> dict[int, tuple[tuple[SlotTable, list], ...]]:
        """Per node i, each slot with its ``SlotTable.powers`` list at i, in reading order."""
        return {i: tuple((s, s.powers[i]) for s in self.shape.slots) for i in range(1, self.shape.kind.rank + 1)}

    @cached_property
    def packing(self) -> tuple[int, tuple[int, ...]]:
        """(base/2, each coordinate's place value base^j), base = 4 boxes + 4."""
        base = 4 * self.shape.boxes + 4
        return base // 2, tuple(base**j for j in range(self.shape.kind.rank))

    def pack(self, w: Weight2) -> int | None:
        """The weight as the int sum of w_j * base^j, base = 4 boxes + 4, or None
        unless each |w_j| < base/2, where packing is exact (so (base, -1, 0, ...)
        does not alias zero); a tabloid weight's |w_j| is at most 2 boxes + 1.
        The place values are read from ``packing``."""
        half, places = self.packing
        if len(w) != len(places) or max(map(abs, w)) >= half:
            return None
        return sum(map(operator.mul, w, places))

    @cached_property
    def packs(self) -> tuple[tuple[int, ...], ...]:
        """Each slot's packed weights by code, in reading order."""
        return tuple(tuple(map(self.pack, s.weights)) for s in self.shape.slots)

    def packed_weight(self, codes: tuple[int, ...]) -> int:
        """The packed weight of the tabloid with these codes."""
        return sum(p[c] for p, c in zip(self.packs, codes))

    @cached_property
    def highest(self) -> Tabloid:
        shape = self.shape
        kind = shape.kind
        n = kind.rank
        cols = [Column(kind, (*range(1, h), -n if h == n and shape.d_sign == "-" else h)) for h in shape.heights]
        spin = None
        if shape.spin_class in ("B", "D+"):
            spin = SpinColumn.highest(kind)
        elif shape.spin_class == "D-":
            spin = SpinColumn.highest_minus(kind)
        return Tabloid(shape, spin, cols)

    @cached_property
    def tails(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The last slot's codes by packed weight, each as a one-code tuple,
        ascending; a shape with no slot has the empty tuple at weight 0."""
        if not self.packs:
            return {0: ((),)}
        index: dict[int, list[tuple[int, ...]]] = {}
        for c, w in enumerate(self.packs[-1]):
            index.setdefault(w, []).append((c,))
        return {w: tuple(tails) for w, tails in index.items()}

    @cached_property
    def suffix_counts(self) -> tuple[Counter[int], ...]:
        """Entry j counts the fillings of factors j, j+1, ... by packed weight."""
        counts = Counter({0: 1})
        table = [counts]
        for packs in reversed(self.packs):
            slot = Counter(packs)
            nxt: Counter[int] = Counter()
            for w, c in counts.items():
                for sw, k in slot.items():
                    nxt[w + sw] += c * k
            counts = nxt
            table.append(counts)
        return tuple(reversed(table))

    @cached_property
    def component(self) -> dict[Tabloid, Weight2]:
        """The crystal component of the highest tableau, searched on codes and
        sorted as code tuples, whose order is the order of readings; a weight
        is found by its packed sum, one tuple per distinct weight."""

        def lower(codes: tuple[int, ...]) -> list[tuple[int, ...]]:
            return [d for i in self.crystal if (d := self.apply(codes, i, "f")) is not None]

        weights: dict[int, Weight2] = {}  # one tuple per distinct packed weight
        tabs = (self.tabloid(codes) for codes in sorted(component_bfs((self.highest.codes, lower))))
        return {t: weights.get(p := self.packed_weight(t.codes)) or weights.setdefault(p, weight2_of_tabloid(t)) for t in tabs}

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
    """Parse '2,0,-2' style text into a column of 1..n letters."""
    letters = tuple(parse_int(tok.strip(), "letter") for tok in text.split(",") if tok.strip() != "")
    if not 1 <= len(letters) <= kind.rank:
        raise ValueError(f"column {text!r} has {len(letters)} letters, not 1..{kind.rank}")
    for x in letters:
        check_letter(kind, x)
    return Column(kind, letters)


def parse_tabloid(text: str, kind: AlgebraKind, d_sign: str | None = None) -> Tabloid:
    """Parse 's:1,-2/2,0,-2/2,-3/2' style text into a tabloid.

    For type D fillings containing a height-n column the shape marker is
    ambiguous, so d_sign must be supplied; elsewhere it is ignored.
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
        spin_class, d_sign = (None if spin is None else "B"), None
    else:
        spin_class = None if spin is None else ("D+" if spin.sign_class() == "+" else "D-")
        d_sign = d_sign if kind.rank in heights else "0"
    return Tabloid(Shape(kind, heights, spin_class, d_sign), spin, cols)
