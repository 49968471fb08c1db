"""Dynnikov coordinates of braid words: the second equality oracle.

The module keeps the name of the free-group action it used to compute,
because callers and the benchmark import it by that name.  That action's
images grow exponentially with the word; the tests keep it as a
reference for short words.

B_n acts on Z^2n by piecewise-linear maps (Dynnikov, Russian Math.
Surveys 57, 2002; Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering
Braids*, 2008, ch. XII).  A vector (a_1, b_1, ..., a_n, b_n) codes an
integral lamination of a disk in which the n strands sit between two
further punctures, and sigma_i^+-1 changes only the four entries
(x1, y1, x2, y2) = (a_i, b_i, a_{i+1}, b_{i+1}).  Writing x+ = max(x, 0)
and x- = min(x, 0):

    sigma_i:     z = x1 - y1- - x2 + y2+
                 (x1 + y1+ + (y2+ - z)+,  y2 - z+,
                  x2 + y2- + (y1- + z)-,  y1 + z+)
    sigma_i^-1:  z = x1 + y1- - x2 - y2+
                 (x1 - y1+ - (y2+ + z)+,  y2 + z-,
                  x2 - y2- - (y1- - z)-,  y1 - z-)

The letters of a word act in order, first letter first.  The trivial lamination
(0, 1, 0, 1, ..., 0, 1) has trivial stabiliser, so two words are equal
as braids exactly when they send it to the same vector; the extra
punctures are what keep the full twist Delta^2 from acting trivially.
Each letter costs O(1) operations on integers of O(length) bits.  The
route shares nothing with the Garside normal form in `normalform`,
which keeps the two equality routes independent.

The same coordinates tell factors apart in the Hurwitz searches of
`hurwitz`: a search keys each factor it meets by its vector and carries
the vectors of the factor and of its inverse, so `act` gives the vector
of a conjugate from a stored vector and the letters of the two factors
alone, with no normal form computed.  Normal forms still key what the
searches print and check their replays.
"""

from __future__ import annotations

from .words import BraidWord, WordError


# The two updates of the module docstring.  Conditional expressions stand
# in for max and min, whose calls made a letter about twice as slow.
def _sigma(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int, int]:
    y1p, y1m = (y1, 0) if y1 > 0 else (0, y1)
    y2p, y2m = (y2, 0) if y2 > 0 else (0, y2)
    z = x1 - y1m - x2 + y2p
    zp = z if z > 0 else 0
    u, v = y2p - z, y1m + z
    return (x1 + y1p + (u if u > 0 else 0), y2 - zp,
            x2 + y2m + (v if v < 0 else 0), y1 + zp)


def _sigma_inverse(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int, int]:
    y1p, y1m = (y1, 0) if y1 > 0 else (0, y1)
    y2p, y2m = (y2, 0) if y2 > 0 else (0, y2)
    z = x1 + y1m - x2 - y2p
    zm = z if z < 0 else 0
    u, v = y2p + z, y1m - z
    return (x1 - y1p - (u if u > 0 else 0), y2 + zm,
            x2 - y2m - (v if v < 0 else 0), y1 - zm)


def act(vector: tuple[int, ...], letters) -> tuple[int, ...]:
    """The image of a coordinate vector under the letters, first letter first."""
    c = list(vector)
    for index, sign in letters:
        j = 2 * index - 2
        x1, y1, x2, y2 = c[j:j + 4]
        c[j:j + 4] = (_sigma if sign > 0 else _sigma_inverse)(x1, y1, x2, y2)
    return tuple(c)


def dynnikov_coordinates(w: BraidWord) -> tuple[int, ...]:
    """The image of the trivial lamination under w, as 2n integers."""
    return act((0, 1) * w.n, w.letters)


def words_act_equally(u: BraidWord, v: BraidWord) -> bool:
    """True iff u and v send the trivial lamination to the same vector."""
    if u.n != v.n:
        raise WordError(f"strand counts differ: {u.n} vs {v.n}")
    return dynnikov_coordinates(u) == dynnikov_coordinates(v)


def action_key(w: BraidWord) -> str:
    """Canonical text for the action of w (for grouping words)."""
    return ",".join(map(str, dynnikov_coordinates(w)))
