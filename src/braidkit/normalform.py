"""Left-greedy normal form for braid words.

A braid word is rewritten as Delta^d f_1 ... f_m where Delta is the
half twist, each factor f_k is a permutation braid (every pair of
strands crosses at most once, so the factor is described by its
permutation alone), no factor is trivial or the full twist w0, and the
sequence is left weighted: the finishing set of f_k contains the
starting set of f_{k+1}.  That data is unique, so braids are compared by
comparing it.

Each letter becomes one factor, negative letters borrowing a Delta^-1
that floats to the front.  The factors are then multiplied in one at a
time, in Thurston's incremental way (Epstein et al., *Word Processing in
Groups*, 1992, ch. 9): after each factor the sequence is made left
weighted again by a walk leftward from the new pair that stops at the
first pair left unchanged, so the cost follows the letters that move,
not a sweep over the whole sequence.

The permutation conventions follow `perms`: one-line tuples are
0-based and `compose(p, q)` applies p first.  Under that convention the
starting set of a factor is `left_descents` and the finishing set is
`right_descents`, letter sigma_i contributes the adjacent transposition
at 0-based position i - 1, and tau(p) = w0 p w0 is the conjugation that
carries a factor through one power of Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import perms
from .perms import Perm
from .words import BraidWord, delta_word


@dataclass(frozen=True)
class NormalForm:
    """Left-greedy data: strand count, Delta exponent, proper factors."""

    n: int
    delta_power: int
    factors: tuple[Perm, ...]

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def sup(self) -> int:
        return self.delta_power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)


def _tau(p: Perm, w0: Perm) -> Perm:
    return perms.compose(perms.compose(w0, p), w0)


def _transfer(a: list[int], ai: list[int], b: list[int], bi: list[int]) -> bool:
    """Make the pair (a, b) left weighted in place; report whether it changed.

    Letter i moves from the head of b to the tail of a while it starts b
    (b[i] > b[i+1]) and does not finish a (ai[i] < ai[i+1], ai being a's
    inverse).  A move changes these two tests only at i - 1, i and i + 1,
    so the scan steps back one place after a move instead of restarting.
    """
    moved = False
    i = 0
    last = len(b) - 2
    while i <= last:
        if b[i] > b[i + 1] and ai[i] < ai[i + 1]:
            p, q = ai[i], ai[i + 1]
            a[p], a[q] = i + 1, i
            ai[i], ai[i + 1] = q, p
            u, v = b[i], b[i + 1]
            b[i], b[i + 1] = v, u
            bi[u], bi[v] = i + 1, i
            moved = True
            if i:
                i -= 1
        else:
            i += 1
    return moved


def _left_weighted(factors: list[Perm], n: int) -> list[Perm]:
    """The left-weighted factor sequence of a product of simple factors.

    Thurston's incremental right multiplication (Epstein et al., *Word
    Processing in Groups*, 1992, ch. 9; El-Rifai and Morton, "Algorithms
    for positive braids", Quart. J. Math. 45, 1994): the factors are
    appended one at a time to a sequence that is already left weighted.
    After an append only the new pair can be out of order; making it left
    weighted grows its left factor, which can unsettle the pair before
    it, so the walk goes leftward and stops at the first pair that was
    left weighted as it stood.  The pairs it leaves behind stay left
    weighted, so identity factors can only collect at the right end,
    where they are dropped.
    """
    identity = list(range(n))
    facs: list[list[int]] = []
    invs: list[list[int]] = []
    for p in factors:
        facs.append(list(p))
        invs.append(list(perms.inverse(p)))
        k = len(facs) - 1
        while k and _transfer(facs[k - 1], invs[k - 1], facs[k], invs[k]):
            k -= 1
        while facs and facs[-1] == identity:
            facs.pop()
            invs.pop()
    return [tuple(f) for f in facs]


def normal_form(w: BraidWord) -> NormalForm:
    n = w.n
    w0 = perms.longest(n)
    # One factor per letter, negative letters borrowing an inverse half
    # twist: sigma_i^-1 = Delta^-1 (Delta sigma_i^-1) and the bracketed
    # braid is the permutation braid w0 with values i-1, i exchanged.
    pows: list[int] = []
    raw: list[Perm] = []
    for index, sign in w.letters:
        if sign == 1:
            pows.append(0)
            raw.append(perms.transposition(n, index - 1))
        else:
            pows.append(-1)
            raw.append(perms.swap_values(w0, index - 1))
    # Float every Delta power to the front; a factor is twisted by tau
    # once for each Delta passing through it from the right.
    total = sum(pows)
    suffix = 0
    factors: list[Perm] = []
    for k in range(len(raw) - 1, -1, -1):
        factors.append(_tau(raw[k], w0) if suffix % 2 else raw[k])
        suffix += pows[k]
    factors.reverse()

    factors = _left_weighted(factors, n)
    while factors and factors[0] == w0:
        factors.pop(0)
        total += 1
    return NormalForm(n, total, tuple(factors))


def normal_form_key(nf: NormalForm) -> str:
    """The canonical key of a normal form: "n:power:" and 1-based factors."""
    body = "|".join(
        ",".join(str(v + 1) for v in f) for f in nf.factors
    )
    return f"{nf.n}:{nf.delta_power}:{body}"


@lru_cache(maxsize=1 << 16)
def _cached_key(w: BraidWord) -> str:
    return normal_form_key(normal_form(w))


def equal(u: BraidWord, v: BraidWord) -> bool:
    """Decide equality in the braid group via normal forms."""
    if u.n != v.n:
        return False
    return _cached_key(u) == _cached_key(v)


def canonical_key(w: BraidWord) -> str:
    """Stable text key, equal for exactly the words equal as braids."""
    return _cached_key(w)


def _factor_word(p: Perm) -> list[tuple[int, int]]:
    letters: list[tuple[int, int]] = []
    q = p
    while True:
        starts = perms.left_descents(q)
        if not starts:
            break
        i = min(starts)
        letters.append((i + 1, 1))
        q = perms.swap_positions(q, i)
    return letters


def to_word(nf: NormalForm) -> BraidWord:
    """A braid word spelling the normal form back out.

    Delta powers are spelt with the standard half-twist word, factors by
    greedily reading off descents, so the output is deterministic.
    """
    letters: list[tuple[int, int]] = []
    if nf.delta_power:
        half = delta_word(nf.n).letters
        if nf.delta_power < 0:
            half = tuple((i, -s) for i, s in reversed(half))
        letters.extend(half * abs(nf.delta_power))
    for f in nf.factors:
        letters.extend(_factor_word(f))
    return BraidWord(nf.n, tuple(letters))
