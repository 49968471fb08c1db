"""Left-greedy normal form for braid words.

A braid word is rewritten as Delta^d f_1 ... f_m where Delta is the
half twist, each factor f_k is a permutation braid (every pair of
strands crosses at most once, so the factor is described by its
permutation alone), no factor is trivial or the half twist w0, and the
sequence is left weighted: the finishing set of f_k contains the
starting set of f_{k+1}.  That data is unique, so braids are compared by
comparing it.  `equal` first compares the image of each word in
B_n/[P_n, P_n]: its permutation and, for each pair of strands, the
signed count of their crossings (twice the pairwise linking number
for a pure braid; Artin, 1947).  Every braid relation and free
cancellation leaves that data unchanged, and the counts add up to the
exponent sum, so words whose data differ are different braids, which
one pass over the letters shows, and only pairs whose data agree reach
the normal form.  Even those reach it only where they differ: both
words are freely reduced and their longest common prefix and suffix
are cancelled (in a group p a s = p b s exactly when a = b), so words
that differ by a few local edits normalize only the stretch between
the first and the last edit.  `equal` does all of this on letter
tuples and compares the Delta power and factors of what is left, with
no words or key strings built.

One forward pass cuts the word into maximal simple chunks of one sign.
A positive chunk is one factor; a negative chunk borrows one Delta^-1
that goes to the right end and mirrors (sigma_i to sigma_{n-i}) every
later chunk.  The factors are multiplied in one at a time, in
Thurston's incremental way (Epstein et al., *Word Processing in Groups*,
1992, ch. 9): after each factor the sequence is made left weighted
again by a walk leftward from the new pair that stops at the first pair
left unchanged.  A factor that grows into Delta is taken out of the
walk at once and counted, and the walk stops there.  The mirroring
that each such Delta owes the factors before it, and the borrowed ones
owe all factors, is applied lazily, when a later walk reaches a factor
or at the end.  So no Delta crosses the sequence letter by letter, and
the cost grows about linearly with the word's length, not
quadratically.

A permutation is a tuple (or, while it is built, a list) p of 0-based
images, p[i] being the image of position i, and a product applies its
left factor first.  Letter sigma_i is the adjacent transposition of
0-based positions i - 1 and i.  The starting set of a factor p is the
set of i with p[i] > p[i+1], and its finishing set is the starting set
of p's inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import BraidWord, Perm, _inverse, _reduce, delta_word


@dataclass(frozen=True)
class NormalForm:
    """Left-greedy data: strand count, Delta exponent, proper factors."""

    n: int
    delta_power: int
    factors: tuple[Perm, ...]

    @property
    def canonical_length(self) -> int:
        return len(self.factors)


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


def _left_weighted(chunks: list[tuple[int, list[int], list[int]]], n: int) -> tuple[int, list[Perm]]:
    """The Delta power and left-weighted factors of a word cut into chunks.

    Thurston's incremental right multiplication (Epstein et al., *Word
    Processing in Groups*, 1992, ch. 9; El-Rifai and Morton, "Algorithms
    for positive braids", Quart. J. Math. 45, 1994): the chunks of
    `_chunks`, each turned into a simple factor held as a (permutation,
    inverse) pair of lists that is changed in place, are appended one at
    a time to a sequence that is already left weighted.  After an append
    only the new pair can be out of order; making it left weighted grows
    its left factor, which can unsettle the pair before it, so the walk
    goes leftward and stops at the first pair that was left weighted as
    it stood.  The pairs it leaves behind stay left weighted, so identity
    factors can only collect at the right end, where they are dropped.

    A negative chunk r^-1 borrows one inverse half twist,
    r^-1 = (r^-1 Delta) Delta^-1, and appends the permutation braid
    r^-1 w0 (its q with values read from the other end, with inverse r
    read backwards).  Since f Delta = Delta tau(f), where tau takes
    sigma_i to sigma_{n-i}, the borrowed Delta^-1 is moved to the right
    end by reading every later chunk through tau, and at the end to the
    front by reading every factor through tau.  A positive chunk that is
    w0, or a left factor that a walk grows into w0, is counted as one
    Delta and taken out, and every factor to its left is read through
    tau.  The junction pair this leaves is the one the walk would have
    left after carrying that Delta to the front one factor at a time, so
    the walk stops there.  tau is applied lazily: each factor keeps the
    parity of the Delta count at which it was last read and is mirrored
    only when a walk next reaches it, or at the end, so no Delta costs a
    sweep of the factors.
    """
    m = n - 1
    identity = list(range(n))
    w0 = identity[::-1]
    power = borrowed = 0
    facs: list[list[int]] = []
    invs: list[list[int]] = []
    marks: list[int] = []
    for s, p, pi in chunks:
        if s < 0:
            if borrowed & 1:
                # tau(r^-1 w0) = w0 r^-1: q read backwards, inverse r w0.
                p, pi = p[::-1], [m - v for v in pi]
            else:
                p, pi = [m - v for v in p], pi[::-1]
            borrowed += 1
        elif p == w0:
            power += 1
            continue
        elif borrowed & 1:
            p, pi = [m - v for v in reversed(p)], [m - v for v in reversed(pi)]
        facs.append(p)
        invs.append(pi)
        odd = power & 1
        marks.append(odd)
        k = len(facs) - 1
        while k:
            j = k - 1
            if marks[j] != odd:
                facs[j] = [m - v for v in reversed(facs[j])]
                invs[j] = [m - v for v in reversed(invs[j])]
                marks[j] = odd
            if not _transfer(facs[j], invs[j], facs[k], invs[k]):
                break
            if facs[j] == w0:
                del facs[j], invs[j], marks[j]
                power += 1
                # The factors the walk has passed are not mirrored.
                marks[j:] = [power & 1] * (len(marks) - j)
                break
            k = j
        while facs and facs[-1] == identity:
            facs.pop()
            invs.pop()
            marks.pop()
    power -= borrowed
    odd = power & 1
    return power, [
        tuple(f) if mark == odd else tuple(m - v for v in reversed(f))
        for f, mark in zip(facs, marks)
    ]


def _chunks(n: int, letters) -> list[tuple[int, list[int], list[int]]]:
    """Cut letters on n strands into maximal simple chunks of one sign: (sign, q, q inverse).

    q is the permutation of the chunk's letters read forward.  A letter
    sigma_i joins while the sign stays and sigma_i is not in q's
    finishing set (q^-1[i] < q^-1[i+1]), so the chunk stays a
    permutation braid; it swaps values i and i+1 of q.  For a negative
    run r^-1, with r its letters reversed, q is r^-1 and q^-1 is r: the
    test reads r[i] < r[i+1] and the step swaps positions i and i+1 of r.
    """
    chunks: list[tuple[int, list[int], list[int]]] = []
    sign, q, qi = 0, [], []
    for index, s in letters:
        i = index - 1
        if s != sign or qi[i] > qi[i + 1]:
            sign, q, qi = s, list(range(n)), list(range(n))
            chunks.append((s, q, qi))
        a, b = qi[i], qi[i + 1]
        q[a], q[b] = i + 1, i
        qi[i], qi[i + 1] = b, a
    return chunks


def normal_form(w: BraidWord) -> NormalForm:
    power, factors = _left_weighted(_chunks(w.n, w.letters), w.n)
    return NormalForm(w.n, power, tuple(factors))


@lru_cache(maxsize=16)
def _labels(n: int) -> tuple[str, ...]:
    """The 1-based text of each 0-based image on n strands."""
    return tuple(str(v + 1) for v in range(n))


def normal_form_key(nf: NormalForm) -> str:
    """The canonical key of a normal form: "n:power:" and 1-based factors."""
    labels = _labels(nf.n)
    body = "|".join([",".join([labels[v] for v in f]) for f in nf.factors])
    return f"{nf.n}:{nf.delta_power}:{body}"


@lru_cache(maxsize=1 << 16)
def _cached_key(w: BraidWord) -> str:
    return normal_form_key(normal_form(w))


def _crossings(w: BraidWord) -> tuple[list[int], list[int]]:
    """Strand labels by final position, and each strand pair's crossings.

    Letter sigma_i^s swaps the labels a and b at positions i - 1 and i
    and adds s to the count of the pair {a, b}, kept at index
    min * n + max of a flat list, so two results compare entry by entry.
    """
    n = w.n
    labels = list(range(n))
    counts = [0] * (n * n)
    for index, s in w.letters:
        a, b = labels[index - 1], labels[index]
        labels[index - 1], labels[index] = b, a
        counts[a * n + b if a < b else b * n + a] += s
    return labels, counts


def _middles(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Letter tuples a and b without their longest common prefix, then common suffix.

    The suffix scan stops where the prefix ended, so the two never
    overlap: "1 1" against "1" leaves "1" and the empty word.
    """
    room = min(len(a), len(b))
    start = 0
    while start < room and a[start] == b[start]:
        start += 1
    room -= start
    end = 0
    while end < room and a[-1 - end] == b[-1 - end]:
        end += 1
    return a[start:len(a) - end], b[start:len(b) - end]


def equal(u: BraidWord, v: BraidWord) -> bool:
    """Decide equality in the braid group.

    Different strand counts, permutations or strand-pair crossing counts
    (the image in B_n/[P_n, P_n]) decide "not equal" at once.  Words
    that agree on all three are freely reduced and their longest common
    prefix and suffix are cancelled, since p a s = p b s exactly when
    a = b.  All of this runs on letter tuples.  Identical middles (both
    empty) are equal; others are compared by the Delta power and factors
    of their normal forms, without building words or key strings.
    """
    if u.n != v.n or _crossings(u) != _crossings(v):
        return False
    a, b = _middles(_reduce(u.letters), _reduce(v.letters))
    return a == b or _left_weighted(_chunks(u.n, a), u.n) == _left_weighted(_chunks(u.n, b), u.n)


def canonical_key(w: BraidWord) -> str:
    """Stable text key, equal for exactly the words equal as braids."""
    return _cached_key(w)


def _factor_word(p: Perm) -> list[tuple[int, int]]:
    """Positive letters spelling p, each the smallest start of what is left.

    Stripping letter i swaps positions i, i+1 and leaves no start below
    i - 1, so the scan steps back one place, as in `_transfer`.
    """
    letters: list[tuple[int, int]] = []
    q = list(p)
    i = 0
    while i < len(q) - 1:
        if q[i] > q[i + 1]:
            q[i], q[i + 1] = q[i + 1], q[i]
            letters.append((i + 1, 1))
            if i:
                i -= 1
        else:
            i += 1
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
            half = _inverse(half)
        letters.extend(half * abs(nf.delta_power))
    for f in nf.factors:
        letters.extend(_factor_word(f))
    return BraidWord(nf.n, tuple(letters))
