"""Rewriting positive band words along Hurwitz moves.

Two positive band words that are equal as braids can be transformed
into one another by single relation applications on adjacent letters,
staying positive throughout.  This module performs that search, and
each relation step it takes is the Hurwitz move that realizes it on
the expanded factorizations.  Closures and path searches grow the
breadth-first `SearchTree` of `hurwitz` over packed words: each
letter a_{t,s} is the code point of its index in `all_generators`, which
keeps the (t, s) order, so sorting packed words sorts the words.  A code
point is at most `sys.maxunicode`, so a search holds letters up to
a_{1494,334} (every letter on at most 1,493 strands), and a later letter
raises `InputError`.  `_rewrites` alone says which rewrites apply to an
ordered pair of letters: `apply_step` reads it, and one `_PairTable` per
strand count packs its answer per pair on first lookup; that table's
`__getitem__` is the tree's `pairs`.  A table holds only the letters and
pairs a search meets, so a search on many strands builds no table of
all C(n,2) letters.  `neighbors` reads one unbounded `grow`
of a fresh tree, the same neighbour loop every search runs.
`BandWord`s are built only for results, and a found path is read as
moves the way the tree holds it: `hurwitz_path_positive` replays the
moves and returns the `PathResult` of `hurwitz`.

A step is the (position, direction) pair a tree's parent links hold:
the fields of the `Move` R_position^direction, whose position is that
of the left letter of the rewritten pair.  A rewrite is the pair the
move leaves on the expanded letters: on a chain pair x y,
x y x^-1 = y^-1 x y = z, the band on the two ends x and y do not share,
so R^1 leaves z x and R^-1 leaves y z, walking the chain relation's
forms A -> B -> C -> A and back (see `bands`), and R^1 swaps a commuting
pair.  At one position, then, a direction picks at most one rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .bands import (
    BandGenerator,
    BandWord,
    PairClass,
    band_factorization,
    classify_pair,
)
from .hurwitz import (
    _MAX_CELL,
    Move,
    PathResult,
    SearchTree,
    _decode,
    _encode,
    apply_sequence,
    check_replay,
)
from .words import InputError

DEFAULT_WORD_CAP = 10**6


def _rewrites(x: BandGenerator, y: BandGenerator) -> tuple:
    """The (replacement pair, direction) rewrites of the ordered pair x y, forward first.

    Each is the pair a Hurwitz move leaves: R^1 leaves (z, x) and R^-1
    leaves (y, z) on a chain pair, where z is the band on the ends x and
    y do not share; R^1 swaps a commuting pair; any other pair has no
    rewrite.
    """
    cls = classify_pair(x, y)
    if cls is PairClass.CHAIN:
        z = BandGenerator(x.n, *sorted({x.t, x.s} ^ {y.t, y.s}, reverse=True))
        return (((z, x), 1), ((y, z), -1))
    return (((y, x), 1),) if cls is PairClass.COMMUTING else ()


def apply_step(w: BandWord, step: tuple[int, int]) -> BandWord:
    """Rewrite one adjacent pair of w by the (position, direction) step."""
    move = Move(*step)
    if move.k >= len(w.letters):
        raise InputError(f"step position {move.k} out of range for length {len(w)}")
    x, y = w.letters[move.k - 1 : move.k + 1]
    for pair, direction in _rewrites(x, y):
        if direction == move.direction:
            return BandWord(w.n, w.letters[: move.k - 1] + pair + w.letters[move.k + 1 :])
    raise InputError(f"{move} does not rewrite the {classify_pair(x, y).value} pair {x} {y}")


def _pack(letters: tuple[BandGenerator, ...]) -> str:
    """The search state of a band word: each letter a_{t,s} is the code
    point of its index in `all_generators`, which keeps the (t, s) order."""
    cells = [(a.t - 1) * (a.t - 2) // 2 + a.s - 1 for a in letters]
    if cells and max(cells) > _MAX_CELL:
        last = "a_{%d,%d}" % _ends(_MAX_CELL)
        raise InputError(f"band letter {letters[cells.index(max(cells))]} is past {last}, "
                        "the last letter a search can hold (one code point each)")
    return _encode(cells)


def _ends(k: int) -> tuple[int, int]:
    """The (t, s) of the letter a packed word holds as k: inverts `_pack`."""
    t = (isqrt(8 * k + 1) + 1) // 2 + 1
    return t, k - (t - 1) * (t - 2) // 2 + 1


class _Letters(dict):
    """The band generator of each packed letter on n strands, built on first lookup."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, k: int) -> BandGenerator:
        self[k] = a = BandGenerator(self.n, *_ends(k))
        return a


class _PairTable(dict):
    """The rewrites of each ordered pair of packed letters on n strands, filled on first lookup.

    `self[xy]` lists the (packed replacement pair, direction) rewrites
    of the packed pair xy, a 2-character str, in search order (forward
    first), packed from `_rewrites` once per pair a search meets;
    `letters` holds the band generators of the packed letters met.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.letters = _Letters(n)

    def __missing__(self, pair: str):
        x, y = map(self.letters.__getitem__, _decode(pair))
        self[pair] = rewrites = tuple((_pack(p), d) for p, d in _rewrites(x, y))
        return rewrites


_pair_table = lru_cache(maxsize=None)(_PairTable)  # one table per strand count, for every search


def _tree(w: BandWord) -> SearchTree:
    return SearchTree(_pack(w.letters), _pair_table(w.n).__getitem__)


def unpack(n: int, word: str) -> BandWord:
    """The band word of a packed word (see `_pack`), a state of `closure_tree`."""
    return BandWord(n, tuple(map(_pair_table(n).letters.__getitem__, _decode(word))))


def neighbors(w: BandWord) -> tuple[tuple[BandWord, tuple[int, int]], ...]:
    """Every single-relation rewrite of w (see `_rewrites`), with the step that produces it."""
    # No two rewrites of w give the same word and none gives w itself,
    # so one unbounded layer of the tree holds every rewrite.
    tree = _tree(w)
    return tuple(
        (unpack(w.n, word), tree.parents[word][1])
        for word in tree.grow(None) if word is not None
    )


@dataclass(frozen=True)
class ClosureResult:
    words: tuple[BandWord, ...]
    truncated: bool


def closure_tree(w: BandWord, size_cap: int = DEFAULT_WORD_CAP) -> SearchTree:
    """The breadth-first tree of w's closure under single relation rewrites.

    States are packed words (see `unpack`); each parent link holds the
    (position, direction) step to its state, the fields of its `Move`.
    Rewrites preserve length, so the closure is finite; the tree holds w
    under any cap, and `capped` reports whether the cap cut the closure
    short.
    """
    return _tree(w).close(size_cap)


def equivalence_class(w: BandWord, size_cap: int = DEFAULT_WORD_CAP) -> ClosureResult:
    """The words of `closure_tree(w, size_cap)`, sorted; truncated if the cap fired."""
    tree = closure_tree(w, size_cap)
    words = tuple(unpack(w.n, word) for word in sorted(tree.parents))
    return ClosureResult(words, tree.capped)


def hurwitz_path_positive(w1: BandWord, w2: BandWord, size_cap: int = DEFAULT_WORD_CAP) -> PathResult:
    """Shortest relation path from w1 to w2, as the Hurwitz moves that realize it.

    Words of different lengths are never relation-equivalent (every rewrite
    preserves length), so that case is conclusively not_equal.  When the
    closure of w1 completes without meeting w2, not_equal is likewise
    conclusive; if the size cap fired first the answer is inconclusive.
    Frontiers are expanded in sorted word order, fixing which of the
    shortest paths is returned.  Each step is read as the `Move` it
    holds, and the moves are replay-verified: applied to the expanded
    factorization of w1 they reproduce the expanded factorization of
    w2, factor keys matching position by position.
    """
    if w1.n != w2.n:
        raise InputError(f"strand counts differ: {w1.n} vs {w2.n}")
    if len(w1) != len(w2):
        return PathResult("not_equal", None, 0, False)
    target = _pack(w2.letters)
    tree = _tree(w1)
    found = tree.root == target
    while tree.frontier and not found:
        tree.frontier.sort()
        found = target in tree.grow(size_cap)  # stops the layer at the target
    if not found:
        status = "inconclusive" if tree.capped else "not_equal"
        return PathResult(status, None, len(tree.parents), tree.capped)
    moves = tuple(Move(*step) for step in tree.path(target))
    check_replay(apply_sequence(band_factorization(w1), moves), band_factorization(w2),
                 "compiled move sequence")
    return PathResult("found", moves, len(tree.parents), False)
