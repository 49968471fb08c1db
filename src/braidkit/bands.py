"""Band generators a_{t,s} and the full-twist factorizations built from them.

A band generator a_{t,s} (1 <= s < t <= n) is the half twist along a
band passing in front of the strands between s and t:

    a_{t,s} = (sigma_{t-1} ... sigma_{s+1}) sigma_s (sigma_{s+1}^-1 ... sigma_{t-1}^-1)

so a_{t+1,t} = sigma_t.  The C(n,2) generators present the braid group
with two relation families.  For r < s < t the three products

    a_{t,s} a_{s,r}  =  a_{t,r} a_{t,s}  =  a_{s,r} a_{t,r}

are equal (the chain relation; the three forms are labelled A, B, C in
that order), and a_{t,s} a_{r,q} = a_{r,q} a_{t,s} exactly when
(t-r)(t-q)(s-r)(s-q) > 0 (the commuting relation).  `classify_pair`
decides which relation, if any, applies to an ordered pair of letters.

Band-word text format: whitespace-separated "t:s" tokens, e.g.
"3:1 2:1".  Band words are positive (no inverse letters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .normalform import canonical_key, equal
from .words import (
    BraidWord,
    InputError,
    _check_strands,
    compose,
    compose_all,
    conjugate,
    free_reduce,
    generator,
)


@dataclass(frozen=True)
class BandGenerator:
    """The band generator a_{t,s} in the braid group on n strands."""

    n: int
    t: int
    s: int

    def __post_init__(self) -> None:
        if not 1 <= self.s < self.t <= self.n:
            raise InputError(
                f"band indices must satisfy 1 <= s < t <= n, got t={self.t} s={self.s} n={self.n}"
            )

    def __str__(self) -> str:
        return f"{self.t}:{self.s}"


@dataclass(frozen=True)
class BandWord:
    """A positive word in band generators, all on the same strand count."""

    n: int
    letters: tuple[BandGenerator, ...] = ()

    def __post_init__(self) -> None:
        _check_strands(self.n)
        for a in self.letters:
            if a.n != self.n:
                raise InputError(f"letter {a} has strand count {a.n}, expected {self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.letters)


def parse_band_word(text: str, n: int) -> BandWord:
    """Parse whitespace-separated "t:s" tokens into a BandWord."""
    letters = []
    for token in text.split():
        head, sep, tail = token.partition(":")
        if not sep:
            raise InputError(f"bad band token {token!r}: expected t:s")
        try:
            t, s = int(head), int(tail)
        except ValueError:
            raise InputError(f"bad band token {token!r}: expected integers t:s") from None
        letters.append(BandGenerator(n, t, s))
    return BandWord(n, tuple(letters))


def all_generators(n: int) -> tuple[BandGenerator, ...]:
    """All C(n,2) band generators, ordered by (t, s)."""
    return tuple(
        BandGenerator(n, t, s) for t in range(2, n + 1) for s in range(1, t)
    )


def expand(a: BandGenerator) -> BraidWord:
    """The defining Artin word of a band generator.

    The result is freely reduced as written; for t = s + 1 it is the
    single letter sigma_s.
    """
    letters = [(i, 1) for i in range(a.t - 1, a.s, -1)]
    letters.append((a.s, 1))
    letters.extend((i, -1) for i in range(a.s + 1, a.t))
    return BraidWord(a.n, tuple(letters))


def _expansions(w: BandWord) -> list[BraidWord]:
    """The expansion of each letter of w, each distinct letter expanded once."""
    expanded = {a: expand(a) for a in set(w.letters)}
    return [expanded[a] for a in w.letters]


def expand_word(w: BandWord) -> BraidWord:
    """Expansion of a band word, freely reduced."""
    return compose_all(w.n, _expansions(w))


class PairClass(enum.Enum):
    CHAIN_A = "ChainA"
    CHAIN_B = "ChainB"
    CHAIN_C = "ChainC"
    COMMUTING = "Commuting"
    INTERLEAVED = "Interleaved"


def classify_pair(x: BandGenerator, y: BandGenerator) -> PairClass:
    """Which relation applies to the ordered product x y.

    The chain patterns are checked first; they share an index, so they
    are disjoint from the commuting predicate, and at most one pattern
    can match a given ordered pair.  Pairs in no relation (including a
    letter beside itself) are Interleaved.
    """
    if x.n != y.n:
        raise InputError(f"strand counts differ: {x.n} vs {y.n}")
    if x.s == y.t:
        return PairClass.CHAIN_A
    if x.t == y.t and x.s < y.s:
        return PairClass.CHAIN_B
    if x.s == y.s and x.t < y.t:
        return PairClass.CHAIN_C
    if (x.t - y.t) * (x.t - y.s) * (x.s - y.t) * (x.s - y.s) > 0:
        return PairClass.COMMUTING
    return PairClass.INTERLEAVED


def chain_forms(n: int, t: int, s: int, r: int) -> dict[str, tuple[BandGenerator, BandGenerator]]:
    """The three equal products A, B, C of the chain relation on t > s > r."""
    a_ts = BandGenerator(n, t, s)
    a_sr = BandGenerator(n, s, r)
    a_tr = BandGenerator(n, t, r)
    return {
        "A": (a_ts, a_sr),
        "B": (a_tr, a_ts),
        "C": (a_sr, a_tr),
    }


def standard_band_word(n: int) -> BandWord:
    """The full twist as the band word (a_{2,1} a_{3,2} ... a_{n,n-1})^n."""
    _check_strands(n)
    row = tuple(BandGenerator(n, i + 1, i) for i in range(1, n))
    return BandWord(n, row * n)


def delta_squared_word(n: int) -> BraidWord:
    """The full twist as the literal word (sigma_1 ... sigma_{n-1})^n."""
    return expand_word(standard_band_word(n))


@dataclass(frozen=True)
class Factorization:
    """An ordered tuple of braid-word factors with a fixed product.

    Factors are stored freely reduced, and a factor that already is one
    is kept as the same object; the canonical key of the ordered product
    and the per-factor keys are computed on first use and cached.
    """

    n: int
    factors: tuple[BraidWord, ...]

    def __post_init__(self) -> None:
        _check_strands(self.n)
        for f in self.factors:
            if f.n != self.n:
                raise InputError(f"factor strand count {f.n}, expected {self.n}")
        object.__setattr__(self, "factors", tuple(free_reduce(f) for f in self.factors))

    def __len__(self) -> int:
        return len(self.factors)

    @cached_property
    def product_key(self) -> str:
        return canonical_key(compose_all(self.n, self.factors))

    @cached_property
    def factor_keys(self) -> tuple[str, ...]:
        return tuple(canonical_key(f) for f in self.factors)


def band_factorization(w: BandWord) -> Factorization:
    """One expanded factor per band letter."""
    return Factorization(w.n, tuple(_expansions(w)))


def standard_factorization(n: int) -> Factorization:
    """The full twist split into n(n-1) single-letter factors.

    The factor tuple is (sigma_1, ..., sigma_{n-1}) repeated n times, so
    the ordered product is delta_squared_word(n) letter for letter.
    """
    return band_factorization(standard_band_word(n))


def conjugated_factorization(n: int, b: BraidWord) -> Factorization:
    """The standard factorization with every factor conjugated by b.

    The full twist is central, so the ordered product is still equal to
    it even though the factors moved.
    """
    if b.n != n:
        raise InputError(f"conjugator strand count {b.n}, expected {n}")
    block = tuple(conjugate(generator(n, i), b) for i in range(1, n))
    return Factorization(n, block * n)


def is_central(w: BraidWord) -> bool:
    return all(
        equal(compose(w, g), compose(g, w))
        for g in (generator(w.n, i) for i in range(1, w.n))
    )
