"""Permutations as tuples of 0-based images.

A permutation on n points is a tuple p of length n with p[i] the image of
position i.  Composition is left-to-right: (compose(p, q))[i] = q[p[i]],
matching the convention that braid words act first-letter-first.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def transposition(n: int, i: int) -> Perm:
    """Adjacent transposition swapping 0-based positions i and i+1."""
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def longest(n: int) -> Perm:
    """The order-reversing permutation (the half-twist's image)."""
    return tuple(range(n - 1, -1, -1))


def left_descents(p: Perm) -> set[int]:
    """0-based i such that a reduced word for p can start with letter i."""
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def right_descents(p: Perm) -> set[int]:
    """0-based i such that a reduced word for p can end with letter i."""
    return left_descents(inverse(p))


def swap_positions(p: Perm, i: int) -> Perm:
    """The transposition of positions i, i+1 followed by p (strip a letter)."""
    q = list(p)
    q[i], q[i + 1] = q[i + 1], q[i]
    return tuple(q)
