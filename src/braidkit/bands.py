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
from .perms import is_transposition
from .words import (
    BraidWord,
    compose,
    compose_all,
    conjugate,
    exponent_sum,
    free_reduce,
    generator,
    underlying_permutation,
)


class BandError(ValueError):
    pass


@dataclass(frozen=True)
class BandGenerator:
    """The band generator a_{t,s} in the braid group on n strands."""

    n: int
    t: int
    s: int

    def __post_init__(self) -> None:
        if not 1 <= self.s < self.t <= self.n:
            raise BandError(
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
        for a in self.letters:
            if a.n != self.n:
                raise BandError(f"letter {a} has strand count {a.n}, expected {self.n}")

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
            raise BandError(f"bad band token {token!r}: expected t:s")
        try:
            t, s = int(head), int(tail)
        except ValueError:
            raise BandError(f"bad band token {token!r}: expected integers t:s") from None
        letters.append(BandGenerator(n, t, s))
    return BandWord(n, tuple(letters))


def format_band_word(w: BandWord) -> str:
    return str(w)


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


def expand_word(w: BandWord) -> BraidWord:
    """Expansion of a band word, freely reduced."""
    out: list[tuple[int, int]] = []
    for a in w.letters:
        out.extend(expand(a).letters)
    return free_reduce(BraidWord(w.n, tuple(out)))


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
        raise BandError(f"strand counts differ: {x.n} vs {y.n}")
    if x.s == y.t:
        return PairClass.CHAIN_A
    if x.t == y.t and x.s < y.s:
        return PairClass.CHAIN_B
    if x.s == y.s and x.t < y.t:
        return PairClass.CHAIN_C
    if (x.t - y.t) * (x.t - y.s) * (x.s - y.t) * (x.s - y.s) > 0:
        return PairClass.COMMUTING
    return PairClass.INTERLEAVED


def chain_triple(x: BandGenerator, y: BandGenerator) -> tuple[int, int, int]:
    """The (t, s, r) indices of the chain relation an ordered pair sits in."""
    cls = classify_pair(x, y)
    if cls is PairClass.CHAIN_A:
        return x.t, x.s, y.s
    if cls is PairClass.CHAIN_B:
        return x.t, y.s, x.s
    if cls is PairClass.CHAIN_C:
        return y.t, x.t, x.s
    raise BandError(f"pair {x} {y} is not in a chain relation")


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


@dataclass(frozen=True)
class RelationReport:
    n: int
    chain_triples: int
    chain_equalities: int
    commuting_pairs: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def band_relations_hold(n: int) -> RelationReport:
    """Check every chain-relation and commuting-relation instance on n strands.

    Both equalities of each chain triple and one equality per commuting
    pair are verified on expansions with the normal-form oracle.
    """
    if n < 3:
        raise BandError("relation enumeration needs n >= 3")
    failures: list[str] = []
    triples = 0
    equalities = 0
    for t in range(3, n + 1):
        for s in range(2, t):
            for r in range(1, s):
                triples += 1
                forms = {
                    form: compose(expand(x), expand(y))
                    for form, (x, y) in chain_forms(n, t, s, r).items()
                }
                for lhs, rhs in (("A", "B"), ("B", "C")):
                    equalities += 1
                    if not equal(forms[lhs], forms[rhs]):
                        failures.append(f"chain {t},{s},{r}: {lhs} != {rhs}")
    gens = all_generators(n)
    commuting = 0
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            if classify_pair(x, y) is not PairClass.COMMUTING:
                continue
            commuting += 1
            xw, yw = expand(x), expand(y)
            if not equal(compose(xw, yw), compose(yw, xw)):
                failures.append(f"commuting {x} {y}: products differ")
    return RelationReport(n, triples, equalities, commuting, tuple(failures))


def delta_squared_word(n: int) -> BraidWord:
    """The full twist as the literal word (sigma_1 ... sigma_{n-1})^n."""
    block = tuple((i, 1) for i in range(1, n))
    return BraidWord(n, block * n)


@dataclass(frozen=True)
class Factorization:
    """An ordered tuple of braid-word factors with a fixed product.

    Factors are stored freely reduced; the canonical key of the ordered
    product and the per-factor keys are computed on first use and cached.
    """

    n: int
    factors: tuple[BraidWord, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            if f.n != self.n:
                raise BandError(f"factor strand count {f.n}, expected {self.n}")
        object.__setattr__(self, "factors", tuple(free_reduce(f) for f in self.factors))

    def __len__(self) -> int:
        return len(self.factors)

    @cached_property
    def product_key(self) -> str:
        return canonical_key(compose_all(self.n, self.factors))

    @cached_property
    def factor_keys(self) -> tuple[str, ...]:
        return tuple(canonical_key(f) for f in self.factors)

    def as_dict(self) -> dict:
        return {
            "strands": self.n,
            "factors": [str(f) for f in self.factors],
        }


def band_factorization(w: BandWord) -> Factorization:
    """One expanded factor per band letter."""
    return Factorization(w.n, tuple(expand(a) for a in w.letters))


def standard_factorization(n: int) -> Factorization:
    """The full twist split into n(n-1) single-letter factors.

    The factor tuple is (sigma_1, ..., sigma_{n-1}) repeated n times, so
    the ordered product is delta_squared_word(n) letter for letter.
    """
    block = tuple(generator(n, i) for i in range(1, n))
    return Factorization(n, block * n)


def conjugated_factorization(n: int, b: BraidWord) -> Factorization:
    """The standard factorization with every factor conjugated by b.

    The full twist is central, so the ordered product is still equal to
    it even though the factors moved.
    """
    if b.n != n:
        raise BandError(f"conjugator strand count {b.n}, expected {n}")
    block = tuple(conjugate(generator(n, i), b) for i in range(1, n))
    return Factorization(n, block * n)


def is_central(w: BraidWord) -> bool:
    return all(
        equal(compose(w, g), compose(g, w))
        for g in (generator(w.n, i) for i in range(1, w.n))
    )


def is_half_twist_shape(w: BraidWord) -> bool:
    """Necessary half-twist invariants: exponent sum 1, transposition image.

    These do not suffice to recognize a half twist, but every conjugate
    of a generator passes and products of two or more generators fail.
    """
    return exponent_sum(w) == 1 and is_transposition(underlying_permutation(w))
