"""Root data for the orthogonal series: the algebra type, ordered alphabets,
letter weights and Cartan pairings.

Letters are plain ints: ``k > 0`` is the unbarred letter k, ``k < 0`` the
barred letter |k|, and ``0`` the middle letter of the type-B alphabet.
Weights are kept in *doubled* epsilon-coordinates (twice the usual vector),
so spin weights with half-integer entries stay integral; all entries of a
weight share one parity.
"""

from __future__ import annotations

import operator

Letter = int
Weight2 = tuple[int, ...]


class NonIntegralPairing(ArithmeticError):
    """A Cartan pairing came out non-integral (mixed-parity weight)."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: a bug, never bad input.

    Raised explicitly instead of by ``assert`` so the checks also run
    under ``python -O``.
    """


class Value:
    """A frozen value, equal only to an object of its own class with equal
    fields.  The fields are the subclass's ``__init__`` parameters, handed in
    order to ``_init``, which stores them and calls ``__post_init__``.  The
    hash (of the field tuple, or of ``_hash_key``) is computed once and kept
    out of pickles: a hash of a string is salted per process.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = operator.attrgetter(*cls._fields)  # a tuple: every subclass has two fields or more

    def _init(self, *values) -> None:
        vars(self).update(zip(self._fields, values))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _hash_key(self) -> tuple:
        return self._key(self)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._hash_key())
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class AlgebraKind(Value):
    """The algebra family (B = odd orthogonal, D = even orthogonal) and rank."""

    def __init__(self, family: str, rank: int, experimental: bool = False):
        self._init(family, rank, experimental)

    def __post_init__(self):
        if self.family not in ("B", "D"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "B" and self.rank < 2:
            raise ValueError("type B needs rank >= 2")
        if self.family == "D":
            if self.rank < 2:
                raise ValueError("type D needs rank >= 2")
            # D_2 is not simple; allowed only when explicitly asked for.
            if self.rank == 2 and not self.experimental:
                raise ValueError("type D rank 2 requires experimental=True")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def is_valid_letter(kind: AlgebraKind, x: Letter) -> bool:
    if x == 0:
        return kind.family == "B"
    return 1 <= abs(x) <= kind.rank


def check_letter(kind: AlgebraKind, x: Letter) -> None:
    if not is_valid_letter(kind, x):
        raise ValueError(f"letter {x} not in the {kind} alphabet")


def letter_key(x: Letter, n: int) -> int:
    """Position of x in the total order 1 < ... < n < 0 < -n < ... < -1."""
    if x > 0:
        return x
    if x == 0:
        return n + 1
    return 2 * n + 2 + x  # x = -k gives 2n+2-k


def letters_hash_key(letters: tuple[Letter, ...]) -> tuple[int, ...]:
    """The letters mapped x -> 2x, -2x-1, to hash in their place: CPython
    hashes -1 and -2 alike, so tuples of raw letters collide."""
    return tuple(2 * x if x >= 0 else -2 * x - 1 for x in letters)


def alphabet(kind: AlgebraKind) -> tuple[Letter, ...]:
    """All letters in ascending key order (n precedes -n for D)."""
    n = kind.rank
    out = list(range(1, n + 1))
    if kind.family == "B":
        out.append(0)
    out.extend(-k for k in range(n, 0, -1))
    return tuple(out)


def letter_weight2(x: Letter, n: int) -> Weight2:
    """Doubled weight of a vector-representation letter: +-2 e_k, or 0."""
    w = [0] * n
    if x > 0:
        w[x - 1] = 2
    elif x < 0:
        w[-x - 1] = -2
    return tuple(w)


def weight2_zero(n: int) -> Weight2:
    return (0,) * n


def weight2_add(a: Weight2, b: Weight2) -> Weight2:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def cartan_exponent(w2: Weight2, i: int, kind: AlgebraKind) -> int:
    """The pairing <w, alpha_i^vee> of a doubled weight with the i-th coroot.

    For i < n this is (w_i - w_{i+1})/2; for type B at i=n it is w_n itself
    (alpha_n is short, so <e_n, alpha_n^vee> = 2); for type D at i=n it is
    (w_{n-1} + w_n)/2.
    """
    n = kind.rank
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} out of range 1..{n}")
    if len(w2) != n:
        raise ValueError("weight length does not match rank")
    if i < n:
        diff = w2[i - 1] - w2[i]
        if diff % 2:
            raise NonIntegralPairing(f"weight {w2} has mixed parity")
        return diff // 2
    if kind.family == "B":
        return w2[n - 1]
    total = w2[n - 2] + w2[n - 1]
    if total % 2:
        raise NonIntegralPairing(f"weight {w2} has mixed parity")
    return total // 2


def qi_exponent(kind: AlgebraKind, i: int) -> int:
    """Exponent d with q_i = q^d: 2 for the long nodes of B, else 1."""
    if not 1 <= i <= kind.rank:
        raise ValueError(f"node index {i} out of range 1..{kind.rank}")
    if kind.family == "B" and i != kind.rank:
        return 2
    return 1


def parse_int(text: str, what: str, token: str | None = None) -> int:
    """``int(text)``, or a ValueError naming what the token was meant to be
    and quoting the token as typed (the whole token when text is a part of it)."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text if token is None else token!r}") from None


def parse_weight(text: str, n: int) -> Weight2:
    """Parse epsilon-coordinates, allowing 'a/2' tokens, into doubled form."""
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} weight coordinates, got {len(parts)}")
    out = []
    for t in parts:
        if t.endswith("/2"):
            out.append(parse_int(t[:-2], "weight coordinate", t))
        else:
            out.append(2 * parse_int(t, "weight coordinate"))
    if len({x % 2 for x in out}) > 1:
        raise ValueError(f"weight {text} mixes integer and half-integer coordinates")
    return tuple(out)
