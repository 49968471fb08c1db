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

Letter = tuple[int, int]
Perm = tuple[int, ...]


class InputError(ValueError):
    """Malformed input, from the input checks of every module; the CLI exits 3 on it."""


# Larger strand counts are rejected before anything is built, so a huge
# count is an input error, not exhausted memory.  `delta2 --strands 2048`
# takes about 4 s.
MAX_STRANDS = 2048


def _check_strands(n: int) -> None:
    if n < 2:
        raise InputError(f"strand count must be at least 2, got {n}")
    if n > MAX_STRANDS:
        raise InputError(f"strand count must be at most {MAX_STRANDS}, got {n}")


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
                raise InputError(f"letter index {index} out of range for {self.n} strands")
            if sign not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    k > 0 maps to (k, +1), k < 0 to (-k, -1); order is preserved and no
    reduction is applied.  Raises InputError naming the offending token.
    """
    _check_strands(n)
    letters: list[Letter] = []
    for token in text.split():
        try:
            k = int(token)
        except ValueError:
            raise InputError(f"not an integer token: {token!r}") from None
        if k == 0:
            raise InputError("zero is not a generator index")
        if abs(k) > n - 1:
            raise InputError(f"token {token!r} out of range: need |k| <= {n - 1} for {n} strands")
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


class _Flipped(dict):
    """Each letter (i, s) to (i, -s), made once, so inverses share their letters."""

    def __missing__(self, letter):
        self[letter] = flipped = (letter[0], -letter[1])
        return flipped


_FLIPPED = _Flipped()


def _inverse(letters: tuple) -> tuple:
    """The letters of a word's inverse: reversed, signs flipped."""
    return tuple(map(_FLIPPED.__getitem__, reversed(letters)))


def free_reduce(w: BraidWord) -> BraidWord:
    """w freely reduced: w itself when no letter cancels, else a new word."""
    letters = _reduce(w.letters)
    return w if len(letters) == len(w.letters) else BraidWord(w.n, letters)


def compose(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenate and freely reduce."""
    return compose_all(u.n, (u, v))


def compose_all(n: int, words: Iterable[BraidWord]) -> BraidWord:
    """Concatenate words on n strands and freely reduce once."""
    letters: list[Letter] = []
    for w in words:
        if w.n != n:
            raise InputError(f"strand counts differ: {n} vs {w.n}")
        letters.extend(w.letters)
    return BraidWord(n, _reduce(letters))


def inverse(u: BraidWord) -> BraidWord:
    """Reverse the word and flip signs; the result is freely reduced."""
    return BraidWord(u.n, _reduce(_inverse(u.letters)))


def _conjugate_letters(h: tuple, m: tuple, sign: int) -> tuple:
    """The letters of h^sign m h^-sign, for the letters of valid words.

    The result is one free reduction of their concatenation, so it is
    freely reduced and its letters valid.  This is the one conjugation:
    `conjugate` calls it, `hurwitz._move_letters` on each move's
    letters, and a search's move table on the words of new factors.
    """
    inv = _inverse(h)
    head, tail = (h, inv) if sign == 1 else (inv, h)
    return _reduce(head + m + tail)


def conjugate(x: BraidWord, g: BraidWord) -> BraidWord:
    """The conjugate x^g = g^-1 x g, freely reduced.

    The direction is fixed so that the basic Hurwitz move on a pair
    (t1, t2) produces t1 t2 t1^-1 = conjugate(t2, inverse(t1)).
    """
    if g.n != x.n:
        raise InputError(f"strand counts differ: {x.n} vs {g.n}")
    return BraidWord(x.n, _conjugate_letters(g.letters, x.letters, -1))


def exponent_sum(w: BraidWord) -> int:
    return sum(s for _, s in w.letters)


def underlying_permutation(w: BraidWord) -> Perm:
    """Image of the word in the symmetric group (0-based tuple).

    Every transposition is its own inverse, so swapping positions of q
    letter by letter builds the inverse of the image, inverted at the end.
    """
    q = list(range(w.n))
    for index, _ in w.letters:
        q[index - 1], q[index] = q[index], q[index - 1]
    p = [0] * w.n
    for i, v in enumerate(q):
        p[v] = i
    return tuple(p)


def generator(n: int, i: int) -> BraidWord:
    return BraidWord(n, ((i, 1),))


def delta_word(n: int) -> BraidWord:
    """The positive half-twist word (s1)(s2 s1)...(s_{n-1} ... s1)."""
    letters: list[Letter] = []
    for t in range(1, n):
        letters.extend((i, 1) for i in range(t, 0, -1))
    return BraidWord(n, tuple(letters))
