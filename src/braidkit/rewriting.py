"""Rewriting positive band words and compiling rewrites to Hurwitz moves.

Two positive band words that are equal as braids can be transformed
into one another by single relation applications on adjacent letters,
staying positive throughout.  This module performs that search and
translates each relation step into the Hurwitz move that realizes it on
the expanded factorizations.  Closures and relation paths are grown by
the breadth-first `SearchTree` of `hurwitz` over packed words: each
letter a_{t,s} is its index in `all_generators`, which keeps the (t, s)
order, so sorting packed words sorts the words.  A per-n dict, built
once from `classify_pair` and `apply_step`, maps every ordered pair of
packed letters to its (replacement pair, rule) rewrites in `RULES`
order; its `__getitem__` is the tree's `pairs`, and the public
`neighbors` expands through the same tree, so the rules have one
source.  `BandWord`s and `RelationStep`s are built only for results;
compiled paths come back as the `PathResult` of `hurwitz`.

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

from .bands import (
    BandError,
    BandWord,
    PairClass,
    all_generators,
    band_factorization,
    chain_forms,
    chain_triple,
    classify_pair,
)
from .hurwitz import Move, PathResult, SearchTree, apply_sequence, check_replay

RULES = ("A->B", "B->C", "C->A", "B->A", "C->B", "A->C", "Comm")

_FORWARD = {"A->B", "B->C", "C->A", "Comm"}
_RULE_SOURCE = {
    "A->B": PairClass.CHAIN_A,
    "A->C": PairClass.CHAIN_A,
    "B->C": PairClass.CHAIN_B,
    "B->A": PairClass.CHAIN_B,
    "C->A": PairClass.CHAIN_C,
    "C->B": PairClass.CHAIN_C,
    "Comm": PairClass.COMMUTING,
}


@dataclass(frozen=True)
class RelationStep:
    position: int
    rule: str

    def __post_init__(self) -> None:
        if self.position < 1:
            raise BandError(f"step position must be >= 1, got {self.position}")
        if self.rule not in RULES:
            raise BandError(f"unknown rule {self.rule!r}")


def apply_step(w: BandWord, step: RelationStep) -> BandWord:
    """Rewrite one adjacent pair of w according to the step's rule."""
    i = step.position - 1
    if i + 1 >= len(w.letters):
        raise BandError(f"step position {step.position} out of range for length {len(w)}")
    x, y = w.letters[i], w.letters[i + 1]
    cls = classify_pair(x, y)
    if cls is not _RULE_SOURCE[step.rule]:
        raise BandError(f"rule {step.rule} does not apply to the {cls.value} pair {x} {y}")
    if step.rule == "Comm":
        pair = (y, x)
    else:
        forms = chain_forms(w.n, *chain_triple(x, y))
        pair = forms[step.rule[-1]]
    return BandWord(w.n, w.letters[:i] + pair + w.letters[i + 2 :])


def _pack(w: BandWord) -> tuple[int, ...]:
    """Each letter a_{t,s} as its index in `all_generators`, which keeps the (t, s) order."""
    return tuple((a.t - 1) * (a.t - 2) // 2 + a.s - 1 for a in w.letters)


@lru_cache(maxsize=None)
def _letter_table(n: int):
    """The generators on n strands and the rewrites of each ordered pair.

    `pairs[x, y]` lists the (packed replacement pair, rule) rewrites of
    the packed pair x y in search order (the order of RULES), read off
    `classify_pair` and `apply_step` once.
    """
    gens = all_generators(n)
    pairs = {}
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            cls, pair = classify_pair(x, y), BandWord(n, (x, y))
            pairs[i, j] = tuple((_pack(apply_step(pair, RelationStep(1, rule))), rule)
                                for rule in RULES if _RULE_SOURCE[rule] is cls)
    return gens, pairs


def _tree(w: BandWord) -> SearchTree:
    return SearchTree(_pack(w), _letter_table(w.n)[1].__getitem__)


def _unpack(n: int, word: tuple[int, ...]) -> BandWord:
    gens = _letter_table(n)[0]
    return BandWord(n, tuple(map(gens.__getitem__, word)))


def neighbors(w: BandWord) -> tuple[tuple[BandWord, RelationStep], ...]:
    """Every single-relation rewrite of w, with the step that produces it.

    Each adjacent pair contributes the rewrites its class admits: a
    chain pair can move to the other two forms of its relation, a
    commuting pair swaps, an interleaved pair contributes nothing.
    """
    tree = _tree(w)
    return tuple(
        (_unpack(w.n, word), RelationStep(*step)) for word, step in tree.expand(tree.root)
    )


@dataclass(frozen=True)
class ClosureResult:
    words: tuple[BandWord, ...]
    truncated: bool

    def __contains__(self, w: BandWord) -> bool:
        return w in set(self.words)

    def as_dict(self) -> dict:
        return {
            "size": len(self.words),
            "truncated": self.truncated,
            "words": [str(w) for w in self.words],
        }


def equivalence_class(w: BandWord, size_cap: int = 10**6) -> ClosureResult:
    """Breadth-first closure of w under single relation rewrites.

    Deduplication is by the literal letter sequence.  Rewrites preserve
    length, so the closure is finite; `truncated` reports whether the
    size cap cut it short.  Words come back sorted.
    """
    if size_cap < 1:
        raise BandError("size_cap must be >= 1")
    tree = _tree(w)
    while tree.frontier:
        for _ in tree.grow(size_cap):
            pass
    words = tuple(_unpack(w.n, word) for word in sorted(tree.parents))
    return ClosureResult(words, tree.capped)


@dataclass(frozen=True)
class RewritePath:
    start: BandWord
    end: BandWord
    steps: tuple[RelationStep, ...]

    def replay(self) -> BandWord:
        w = self.start
        for step in self.steps:
            w = apply_step(w, step)
        return w


@dataclass(frozen=True)
class RelationPathResult:
    """status: found / not_equal (conclusive) / inconclusive (capped)."""

    status: str
    path: RewritePath | None
    visited: int
    truncated: bool


def relation_path(w1: BandWord, w2: BandWord, size_cap: int = 10**6) -> RelationPathResult:
    """Shortest sequence of relation steps from w1 to w2.

    Words of different lengths are never relation-equivalent (every rule
    preserves length), so that case is conclusively not_equal.  When the
    closure of w1 completes without meeting w2, not_equal is likewise
    conclusive; if the size cap fired first the answer is inconclusive.
    Frontiers are expanded in sorted word order, fixing which of the
    shortest paths is returned.
    """
    if w1.n != w2.n:
        raise BandError(f"strand counts differ: {w1.n} vs {w2.n}")
    if len(w1) != len(w2):
        return RelationPathResult("not_equal", None, 0, False)
    target = _pack(w2)
    tree = _tree(w1)
    if tree.root == target:
        return RelationPathResult("found", RewritePath(w1, w2, ()), 1, False)
    while tree.frontier:
        tree.frontier.sort()
        for word in tree.grow(size_cap):
            if word == target:
                steps = tuple(RelationStep(*step) for step in tree.path(target))
                path = RewritePath(w1, w2, steps)
                check_replay(_pack(path.replay()), target, "rewrite path")
                return RelationPathResult("found", path, len(tree.parents), tree.capped)
    status = "inconclusive" if tree.capped else "not_equal"
    return RelationPathResult(status, None, len(tree.parents), tree.capped)


def step_to_move(step: RelationStep) -> Move:
    """The Hurwitz move realizing a relation step on expanded factors.

    Verified by algebra on the chain relation: a forward move conjugates
    the right factor by the left, which walks the cycle A -> B -> C -> A,
    and swaps a commuting pair in place.
    """
    return Move(step.position, 1 if step.rule in _FORWARD else -1)


def hurwitz_path_positive(
    w1: BandWord, w2: BandWord, size_cap: int = 10**6
) -> PathResult:
    """Compile the relation path between two positive band words to moves.

    The returned sequence is replay-verified: applied to the expanded
    factorization of w1 it reproduces the expanded factorization of w2,
    factor keys matching position by position.
    """
    res = relation_path(w1, w2, size_cap)
    if res.status != "found":
        return PathResult(res.status, None, res.visited, res.truncated)
    moves = tuple(step_to_move(s) for s in res.path.steps)
    replayed = apply_sequence(band_factorization(w1), moves)
    check_replay(
        replayed.factor_keys, band_factorization(w2).factor_keys, "compiled move sequence"
    )
    return PathResult("found", moves, res.visited, res.truncated)
