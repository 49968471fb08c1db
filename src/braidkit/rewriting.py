"""Rewriting positive band words and compiling rewrites to Hurwitz moves.

Two positive band words that are equal as braids can be transformed
into one another by single relation applications on adjacent letters,
staying positive throughout.  This module performs that search and
translates each relation step into the Hurwitz move that realizes it on
the expanded factorizations.  Closures and path searches grow the
breadth-first `SearchTree` of `hurwitz` over packed words: each
letter a_{t,s} is its index in `all_generators`, which keeps the (t, s)
order, so sorting packed words sorts the words.  `_rewrites` alone says
which rewrites apply to an ordered pair of letters, reading a chain
pair's relation triple off the pair's own indices: `apply_step` reads
it, and a per-n dict packs its answer per pair on first lookup; that
dict's `__getitem__` is the tree's `pairs`.  The per-n tables hold only
the letters and pairs a search meets, so a search on many strands builds
no table of all C(n,2) letters.  `neighbors` reads one unbounded `grow`
of a fresh tree, the same neighbour loop every search runs.
`BandWord`s are built only for results, and a found path's steps only
to compile them: `hurwitz_path_positive` replays the moves and returns
the `PathResult` of `hurwitz`.

A step names the 1-based position of the left letter of the rewritten
pair and one of seven rules.  The chain relation's three equal products
A = a_{t,s} a_{s,r}, B = a_{t,r} a_{t,s}, C = a_{s,r} a_{t,r} give six
rules (A->B, B->C, C->A and their inverses); Comm swaps a commuting
pair.  The cycle A -> B -> C -> A is exactly what one forward Hurwitz
move does to the expanded pair, which is why the compilation table
below sends those three rules (and Comm) to R_k and the other three to
R_k^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .bands import (
    BandError,
    BandGenerator,
    BandWord,
    PairClass,
    band_factorization,
    chain_forms,
    classify_pair,
)
from .hurwitz import Move, PathResult, SearchTree, _unchecked, apply_sequence, check_replay

RULES = ("A->B", "B->C", "C->A", "B->A", "C->B", "A->C", "Comm")

_FORWARD = {"A->B", "B->C", "C->A", "Comm"}


@dataclass(frozen=True)
class RelationStep:
    position: int
    rule: str

    def __post_init__(self) -> None:
        if self.position < 1:
            raise BandError(f"step position must be >= 1, got {self.position}")
        if self.rule not in RULES:
            raise BandError(f"unknown rule {self.rule!r}")


def _rewrites(x: BandGenerator, y: BandGenerator) -> tuple:
    """The (replacement pair, rule) rewrites of the ordered pair x y, in RULES order.

    A chain pair moves to the other two forms of its relation, a
    commuting pair swaps, and any other pair has no rewrite.  The two
    letters of a chain pair use exactly the relation's indices t > s > r,
    so the triple is read off them.
    """
    cls = classify_pair(x, y)
    if cls is PairClass.COMMUTING:
        return (((y, x), "Comm"),)
    if cls is PairClass.INTERLEAVED:
        return ()
    forms = chain_forms(x.n, *sorted({x.t, x.s, y.t, y.s}, reverse=True))
    here = cls.value[-1]  # ChainA, ChainB or ChainC
    return tuple((forms[rule[-1]], rule) for rule in RULES if rule.startswith(here + "->"))


def apply_step(w: BandWord, step: RelationStep) -> BandWord:
    """Rewrite one adjacent pair of w according to the step's rule."""
    i = step.position - 1
    if i + 1 >= len(w.letters):
        raise BandError(f"step position {step.position} out of range for length {len(w)}")
    x, y = w.letters[i], w.letters[i + 1]
    for pair, rule in _rewrites(x, y):
        if rule == step.rule:
            return BandWord(w.n, w.letters[:i] + pair + w.letters[i + 2 :])
    raise BandError(f"rule {step.rule} does not apply to the {classify_pair(x, y).value} pair {x} {y}")


def _pack(letters: tuple[BandGenerator, ...]) -> tuple[int, ...]:
    """Each letter a_{t,s} as its index in `all_generators`, which keeps the (t, s) order."""
    return tuple((a.t - 1) * (a.t - 2) // 2 + a.s - 1 for a in letters)


class _Letters(dict):
    """The band generator of each packed letter on n strands, built on first lookup."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, k: int) -> BandGenerator:
        t = (isqrt(8 * k + 1) + 1) // 2 + 1  # inverts `_pack`
        self[k] = a = BandGenerator(self.n, t, k - (t - 1) * (t - 2) // 2 + 1)
        return a


class _PairTable(dict):
    """The rewrites of each ordered pair of packed letters, filled on first lookup.

    `self[x, y]` lists the (packed replacement pair, rule) rewrites of
    the packed pair x y in search order (the order of RULES), packed from
    `_rewrites` once per pair a search meets.
    """

    def __init__(self, gens: _Letters) -> None:
        super().__init__()
        self.gens = gens

    def __missing__(self, pair: tuple[int, int]):
        x, y = self.gens[pair[0]], self.gens[pair[1]]
        self[pair] = rewrites = tuple((_pack(p), rule) for p, rule in _rewrites(x, y))
        return rewrites


@lru_cache(maxsize=None)
def _letter_table(n: int):
    """The packed letters on n strands and their `_PairTable`, both filled on first lookup."""
    gens = _Letters(n)
    return gens, _PairTable(gens)


def _tree(w: BandWord) -> SearchTree:
    return SearchTree(_pack(w.letters), _letter_table(w.n)[1].__getitem__)


def unpack(n: int, word: tuple[int, ...]) -> BandWord:
    """The band word of a packed word, a state of `closure_tree`."""
    # Packed letters come from valid band words on n strands, so the
    # word skips re-validating them.
    gens = _letter_table(n)[0]
    return _unchecked(BandWord, n=n, letters=tuple(map(gens.__getitem__, word)))


def neighbors(w: BandWord) -> tuple[tuple[BandWord, RelationStep], ...]:
    """Every single-relation rewrite of w (see `_rewrites`), with the step that produces it."""
    # No two rewrites of w give the same word and none gives w itself,
    # so one unbounded layer of the tree holds every rewrite.
    tree = _tree(w)
    return tuple(
        (unpack(w.n, word), RelationStep(*tree.parents[word][1]))
        for word in tree.grow(None) if word is not None
    )


@dataclass(frozen=True)
class ClosureResult:
    words: tuple[BandWord, ...]
    truncated: bool


def closure_tree(w: BandWord, size_cap: int = 10**6) -> SearchTree:
    """The breadth-first tree of w's closure under single relation rewrites.

    States are packed words (see `unpack`); each parent link holds the
    (position, rule) step to its state.  Rewrites preserve length, so the
    closure is finite; the tree holds w under any cap, and `capped`
    reports whether the cap cut the closure short.
    """
    return _tree(w).close(size_cap)


def equivalence_class(w: BandWord, size_cap: int = 10**6) -> ClosureResult:
    """The words of `closure_tree(w, size_cap)`, sorted; truncated if the cap fired."""
    tree = closure_tree(w, size_cap)
    words = tuple(unpack(w.n, word) for word in sorted(tree.parents))
    return ClosureResult(words, tree.capped)


def step_to_move(step: RelationStep) -> Move:
    """The Hurwitz move realizing a relation step on expanded factors.

    Verified by algebra on the chain relation: a forward move conjugates
    the right factor by the left, which walks the cycle A -> B -> C -> A,
    and swaps a commuting pair in place.
    """
    return Move(step.position, 1 if step.rule in _FORWARD else -1)


def hurwitz_path_positive(w1: BandWord, w2: BandWord, size_cap: int = 10**6) -> PathResult:
    """Shortest relation path from w1 to w2, compiled to Hurwitz moves.

    Words of different lengths are never relation-equivalent (every rule
    preserves length), so that case is conclusively not_equal.  When the
    closure of w1 completes without meeting w2, not_equal is likewise
    conclusive; if the size cap fired first the answer is inconclusive.
    Frontiers are expanded in sorted word order, fixing which of the
    shortest paths is returned.  Each step compiles through
    `step_to_move`, and the moves are replay-verified: applied to the
    expanded factorization of w1 they reproduce the expanded
    factorization of w2, factor keys matching position by position.
    """
    if w1.n != w2.n:
        raise BandError(f"strand counts differ: {w1.n} vs {w2.n}")
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
    moves = tuple(step_to_move(RelationStep(*step)) for step in tree.path(target))
    replayed = apply_sequence(band_factorization(w1), moves).factor_keys
    check_replay(replayed, band_factorization(w2).factor_keys, "compiled move sequence")
    return PathResult("found", moves, len(tree.parents), tree.capped)
