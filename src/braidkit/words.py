"""Braid words over the Artin generators.

A braid word on n strands is a sequence of signed letters (i, s) with
1 <= i <= n-1 and s in {+1, -1}, standing for the generator sigma_i or its
inverse.  Words multiply by concatenation; `compose`, `inverse` and
`conjugate` reduce their results freely (cancelling adjacent sigma_i
sigma_i^-1 pairs) to bound word growth during searches.

Two conventions are fixed here and used consistently everywhere:

* Words act left-to-right: in a product u v, the letters of u act first.
* Conjugation is written x^g = g^-1 x g, exposed as ``conjugate(x, g)``.

The text format is whitespace-separated nonzero integers: k > 0 encodes
sigma_k and k < 0 encodes sigma_k^-1.  The strand count is never inferred
from the text; callers always supply it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from . import perms
from .perms import Perm

Letter = tuple[int, int]


class WordError(ValueError):
    """Malformed braid-word input or mismatched strand counts."""


def _check_strands(n: int) -> None:
    if n < 2:
        raise WordError(f"strand count must be at least 2, got {n}")


@dataclass(frozen=True)
class BraidWord:
    """An Artin word: strand count plus an ordered letter sequence.

    The constructor validates letter ranges but does not freely reduce;
    `parse` preserves input letters exactly.  All arithmetic helpers
    return freely reduced words.
    """

    n: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        _check_strands(self.n)
        for index, sign in self.letters:
            if not 1 <= index <= self.n - 1:
                raise WordError(
                    f"letter index {index} out of range for {self.n} strands"
                )
            if sign not in (1, -1):
                raise WordError(f"letter sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    k > 0 maps to (k, +1), k < 0 to (-k, -1); order is preserved and no
    reduction is applied.  Raises WordError naming the offending token.
    """
    _check_strands(n)
    letters: list[Letter] = []
    for token in text.split():
        try:
            k = int(token)
        except ValueError:
            raise WordError(f"not an integer token: {token!r}") from None
        if k == 0:
            raise WordError("zero is not a generator index")
        if abs(k) > n - 1:
            raise WordError(
                f"token {token!r} out of range: need |k| <= {n - 1} for {n} strands"
            )
        letters.append((abs(k), 1 if k > 0 else -1))
    return BraidWord(n, tuple(letters))


def format_word(w: BraidWord) -> str:
    return " ".join(str(i * s) for i, s in w.letters)


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse letter pairs until none remain."""
    out: list[Letter] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_reduce(w: BraidWord) -> BraidWord:
    return BraidWord(w.n, _reduce(w.letters))


def _same_strands(u: BraidWord, v: BraidWord) -> None:
    if u.n != v.n:
        raise WordError(f"strand counts differ: {u.n} vs {v.n}")


def compose(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenate and freely reduce."""
    _same_strands(u, v)
    return BraidWord(u.n, _reduce(u.letters + v.letters))


def compose_all(n: int, words) -> BraidWord:
    out = BraidWord(n)
    for w in words:
        out = compose(out, w)
    return out


def inverse(u: BraidWord) -> BraidWord:
    """Reverse the word and flip signs; the result is freely reduced."""
    return BraidWord(
        u.n, _reduce(tuple((i, -s) for i, s in reversed(u.letters)))
    )


def conjugate(x: BraidWord, g: BraidWord) -> BraidWord:
    """The conjugate x^g = g^-1 x g, freely reduced.

    The direction is fixed so that the basic Hurwitz move on a pair
    (t1, t2) produces t1 t2 t1^-1 = conjugate(t2, inverse(t1)).
    """
    _same_strands(x, g)
    return compose(compose(inverse(g), x), g)


def exponent_sum(w: BraidWord) -> int:
    return sum(s for _, s in w.letters)


def underlying_permutation(w: BraidWord) -> Perm:
    """Image of the word in the symmetric group (0-based tuple)."""
    p = perms.identity(w.n)
    for index, _ in w.letters:
        p = perms.compose(p, perms.transposition(w.n, index - 1))
    return p


def generator(n: int, i: int, sign: int = 1) -> BraidWord:
    return BraidWord(n, ((i, sign),))


def delta_word(n: int) -> BraidWord:
    """The positive half-twist word (s1)(s2 s1)...(s_{n-1} ... s1)."""
    _check_strands(n)
    letters: list[Letter] = []
    for t in range(1, n):
        letters.extend((i, 1) for i in range(t, 0, -1))
    return BraidWord(n, tuple(letters))
