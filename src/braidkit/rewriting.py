"""Rewriting positive band words and compiling rewrites to Hurwitz moves.

Two positive band words that are equal as braids can be transformed
into one another by single relation applications on adjacent letters,
staying positive throughout.  This module performs that search and
translates each relation step into the Hurwitz move that realizes it on
the expanded factorizations.  Closures and relation paths are grown by
the breadth-first `SearchTree` of `hurwitz`, with `neighbors` as the
expansion and the letter sequence as the key; compiled paths come back
as its `PathResult`.

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
from operator import itemgetter

from .bands import (
    BandError,
    BandWord,
    PairClass,
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


def neighbors(w: BandWord) -> tuple[tuple[BandWord, RelationStep], ...]:
    """Every single-relation rewrite of w, with the step that produces it.

    Each adjacent pair contributes the rewrites its class admits: a
    chain pair can move to the other two forms of its relation, a
    commuting pair swaps, an interleaved pair contributes nothing.
    """
    out: list[tuple[BandWord, RelationStep]] = []
    for i in range(len(w.letters) - 1):
        cls = classify_pair(w.letters[i], w.letters[i + 1])
        if cls is PairClass.INTERLEAVED:
            continue
        if cls is PairClass.COMMUTING:
            rules = ("Comm",)
        else:
            src = cls.value[-1]
            rules = tuple(r for r in RULES if r.startswith(src) and r != "Comm")
        for rule in rules:
            step = RelationStep(i + 1, rule)
            out.append((apply_step(w, step), step))
    return tuple(out)


def _word_key(w: BandWord) -> tuple[tuple[int, int], ...]:
    return tuple((a.t, a.s) for a in w.letters)


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
    tree = SearchTree(w, _word_key, neighbors)
    members = {tree.root_key: w}
    while tree.frontier:
        for _ in tree.grow(size_cap):
            pass
        members.update(tree.frontier)
    return ClosureResult(tuple(members[k] for k in sorted(members)), tree.capped)


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
    target = _word_key(w2)
    tree = SearchTree(w1, _word_key, neighbors)
    if tree.root_key == target:
        return RelationPathResult("found", RewritePath(w1, w2, ()), 1, False)
    while tree.frontier:
        tree.frontier.sort(key=itemgetter(0))
        for item in tree.grow(size_cap):
            if item is not None and item[0] == target:
                path = RewritePath(w1, w2, tuple(tree.path(target)))
                check_replay(_word_key(path.replay()), target, "rewrite path")
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
