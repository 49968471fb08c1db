"""Free-group action of braid words: the first equality oracle.

Braids on n strands act on the free group F_n = <x_1, ..., x_n>.  The
generator sigma_i is sent to the automorphism

    x_i     |-> x_i x_{i+1} x_i^-1
    x_{i+1} |-> x_i
    x_j     |-> x_j            otherwise,

and sigma_i^-1 to its inverse substitution.  A word acts left-to-right:
the image of a free generator under u v is its image under u with every
letter then substituted through v.  This action is faithful, so two words
are equal as braids exactly when all n generator images agree; that is
what `words_act_equally` decides.  It shares nothing with the Garside
normal form in `normalform`, which keeps the two equality routes
independent.
"""

from __future__ import annotations

from .words import BraidWord, WordError, _reduce

# A free word is a freely reduced tuple of (generator index 1..n, sign).
# Free letters have the shape of Artin letters, so `_reduce` serves both.
FreeWord = tuple[tuple[int, int], ...]


def free_word_inverse(w: FreeWord) -> FreeWord:
    return tuple((g, -s) for g, s in reversed(w))


def _letter_images(index: int, sign: int) -> dict[tuple[int, int], FreeWord]:
    """Images of the moved free letters, both signs, under one Artin letter.

    Each image is built once per Artin letter and shared by every
    occurrence it replaces.
    """
    i = index
    if sign == 1:
        moved = {i: ((i, 1), (i + 1, 1), (i, -1)), i + 1: ((i, 1),)}
    else:
        moved = {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1))}
    images: dict[tuple[int, int], FreeWord] = {}
    for g, image in moved.items():
        images[(g, 1)] = image
        images[(g, -1)] = free_word_inverse(image)
    return images


def _substitute(word: FreeWord, images: dict[tuple[int, int], FreeWord]) -> FreeWord:
    out: list[tuple[int, int]] = []
    for letter in word:
        image = images.get(letter)
        if image is None:
            out.append(letter)
        else:
            out.extend(image)
    return _reduce(out)


def generator_images(w: BraidWord) -> tuple[FreeWord, ...]:
    """Images of x_1..x_n under the automorphism induced by w.

    Each image is freely reduced, so the returned tuple is a canonical
    description of the automorphism.
    """
    images: list[FreeWord] = [((g, 1),) for g in range(1, w.n + 1)]
    for index, sign in w.letters:
        step = _letter_images(index, sign)
        images = [_substitute(img, step) for img in images]
    return tuple(images)


def words_act_equally(u: BraidWord, v: BraidWord) -> bool:
    """True iff u and v induce the same free-group automorphism."""
    if u.n != v.n:
        raise WordError(f"strand counts differ: {u.n} vs {v.n}")
    return generator_images(u) == generator_images(v)


def action_key(w: BraidWord) -> str:
    """Canonical text for the induced automorphism (for grouping words)."""
    return "|".join(
        ",".join(f"{g * s}" for g, s in img) for img in generator_images(w)
    )
