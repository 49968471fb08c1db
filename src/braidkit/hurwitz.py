"""Hurwitz moves on factorizations, orbit exploration, and path search.

The move R_k replaces the adjacent factors (t_k, t_{k+1}) by
(t_k t_{k+1} t_k^-1, t_k); its inverse replaces them by
(t_{k+1}, t_{k+1}^-1 t_k t_{k+1}).  Both leave the ordered product
unchanged, so the moves act on the set of factorizations of a fixed
braid.  Positions are 1-based.

Factorizations are compared by `tuple_key`, the per-factor canonical
keys joined with ";": two factorizations share a key exactly when their
factors are equal as braids position by position.  Orbit and path
search deduplicate on that key, expand states in a fixed order, and
sort emitted keys, so their output is reproducible run to run.

Every breadth-first search in the package, these two and the relation
rewrites of `rewriting`, grows a `SearchTree`: one visited map with
parent links, one size cap that sets `capped` only when it turns an
unvisited state away, and one parent walk for reading a path back.
Every path a search reports is replayed first, and a mismatch raises
`ReplayError`.

Serialized moves are signed integers: k stands for R_k and -k for
R_k^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bands import Factorization
from .words import compose, inverse


class MoveError(ValueError):
    pass


@dataclass(frozen=True)
class Move:
    k: int
    direction: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise MoveError(f"move position must be >= 1, got {self.k}")
        if self.direction not in (1, -1):
            raise MoveError(f"move direction must be +1 or -1, got {self.direction}")

    def inverted(self) -> Move:
        return Move(self.k, -self.direction)

    def __str__(self) -> str:
        return f"R{self.k}" if self.direction == 1 else f"R{self.k}^-1"


def move_to_int(m: Move) -> int:
    return m.k * m.direction


def move_from_int(v: int) -> Move:
    if v == 0:
        raise MoveError("0 does not encode a move")
    return Move(abs(v), 1 if v > 0 else -1)


def apply_move(f: Factorization, m: Move) -> Factorization:
    if m.k > len(f) - 1:
        raise MoveError(
            f"move {m} out of range for a factorization of length {len(f)}"
        )
    i = m.k - 1
    x, y = f.factors[i], f.factors[i + 1]
    if m.direction == 1:
        pair = (compose(compose(x, y), inverse(x)), x)
    else:
        pair = (y, compose(compose(inverse(y), x), y))
    return Factorization(f.n, f.factors[:i] + pair + f.factors[i + 2 :])


def apply_sequence(f: Factorization, moves) -> Factorization:
    for idx, m in enumerate(moves):
        try:
            f = apply_move(f, m)
        except MoveError as exc:
            raise MoveError(f"move {idx + 1} of the sequence: {exc}") from None
    return f


def tuple_key(f: Factorization) -> str:
    return ";".join(f.factor_keys)


class ReplayError(RuntimeError):
    """A found path does not replay to its target: a fault in the search."""


def check_replay(got, want, what: str) -> None:
    """Raise ReplayError unless a found path's replay matches its target.

    Searches call this on every path they return, under ``python -O``
    too, so a wrong "found" can never be reported.
    """
    if got != want:
        raise ReplayError(f"{what} does not replay to its target")


class SearchTree:
    """A breadth-first search tree, the engine behind every search here.

    `neighbors(state)` yields (neighbor, step) pairs in a fixed order and
    `key(state)` names a state for deduplication.  `parents` maps each
    visited key to (parent key, step), with (None, None) at the root;
    `frontier` holds the (key, state) pairs of the newest layer, and
    `capped` records that a size cap turned an unvisited neighbor away.
    """

    def __init__(self, root, key, neighbors) -> None:
        self.key = key
        self.neighbors = neighbors
        self.root_key = key(root)
        self.parents = {self.root_key: (None, None)}
        self.frontier = [(self.root_key, root)]
        self.depth = 0
        self.capped = False

    def grow(self, size_cap: int | None):
        """Expand the frontier by one layer, keeping the tree within size_cap.

        Yields each newly admitted (key, state), and None once every
        neighbor of a frontier state has been examined, so a caller can
        stop between states.  The frontier and depth advance only when
        the whole layer has been expanded.
        """
        parents, key, neighbors = self.parents, self.key, self.neighbors
        limit = math.inf if size_cap is None else size_cap
        nxt = []
        for at, state in self.frontier:
            for nb, step in neighbors(state):
                nb_key = key(nb)
                if nb_key in parents:
                    continue
                if len(parents) >= limit:
                    self.capped = True
                    continue
                parents[nb_key] = (at, step)
                nxt.append((nb_key, nb))
                yield nb_key, nb
            yield None
        self.frontier = nxt
        self.depth += 1

    def path(self, at) -> list:
        """The steps leading from the root to the visited key `at`."""
        steps = []
        parent, step = self.parents[at]
        while parent is not None:
            steps.append(step)
            parent, step = self.parents[parent]
        steps.reverse()
        return steps


def _moves(f: Factorization):
    """Each single move on f as (result, move), in search order."""
    for k in range(1, len(f)):
        for direction in (1, -1):
            move = Move(k, direction)
            yield apply_move(f, move), move


@dataclass(frozen=True)
class OrbitReport:
    visited: int
    depth_counts: tuple[int, ...]
    truncated: bool
    keys: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "visited": self.visited,
            "depthCounts": list(self.depth_counts),
            "truncated": self.truncated,
            "keys": list(self.keys),
        }


def orbit_explore(
    f: Factorization,
    depth_cap: int | None = None,
    size_cap: int | None = None,
) -> OrbitReport:
    """Breadth-first closure of a factorization under all moves.

    `truncated` is False exactly when the reported keys are the whole
    orbit: a cap only sets the flag when it actually blocks an unvisited
    neighbor, so generous caps on a small orbit stay untruncated.
    """
    if size_cap is not None and size_cap < 1:
        return OrbitReport(0, (), True, ())
    tree = SearchTree(f, tuple_key, _moves)
    depth_counts = [1]
    while tree.frontier:
        if depth_cap is not None and tree.depth >= depth_cap:
            # Not allowed to expand further; the orbit is complete only
            # if the frontier has no unvisited neighbors, which a layer
            # with no room for new states reveals by capping.
            if not tree.capped:
                for _ in tree.grow(0):
                    if tree.capped:
                        break
            break
        for _ in tree.grow(size_cap):
            pass
        if tree.frontier:
            depth_counts.append(len(tree.frontier))
    return OrbitReport(
        len(tree.parents), tuple(depth_counts), tree.capped, tuple(sorted(tree.parents))
    )


@dataclass(frozen=True)
class PathResult:
    """Outcome of a search for a move sequence.

    status "found" carries the move sequence, already replay-checked.
    From `find_path`, "not_comparable" means the product keys differ, so
    no sequence can exist.  "not_found" with truncated False means the
    reachable orbit was exhausted; with truncated True a cap stopped the
    search and the result says nothing either way.  The compiled search
    `rewriting.hurwitz_path_positive` reports "not_equal" and
    "inconclusive" in place of the last two.
    """

    status: str
    moves: tuple[Move, ...] | None
    visited: int
    truncated: bool

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "moves": None if self.moves is None else [move_to_int(m) for m in self.moves],
            "visited": self.visited,
            "truncated": self.truncated,
        }


def find_path(
    f1: Factorization,
    f2: Factorization,
    depth_cap: int | None = None,
    size_cap: int | None = None,
) -> PathResult:
    """Bidirectional breadth-first search for a move sequence f1 -> f2.

    Each round grows the tree with the smaller frontier by one layer;
    the size cap bounds both trees together.  Found sequences are
    verified by replay before being returned: the final tuple matches
    f2 in per-factor keys, position by position.
    """
    if f1.n != f2.n:
        raise MoveError(f"strand counts differ: {f1.n} vs {f2.n}")
    if len(f1) != len(f2):
        raise MoveError(f"factorization lengths differ: {len(f1)} vs {len(f2)}")

    def finish(moves: list[Move], visited: int) -> PathResult:
        replayed = apply_sequence(f1, moves)
        check_replay(replayed.factor_keys, f2.factor_keys, "move path")
        return PathResult("found", tuple(moves), visited, False)

    fwd = SearchTree(f1, tuple_key, _moves)
    bwd = SearchTree(f2, tuple_key, _moves)
    if fwd.root_key == bwd.root_key:
        return finish([], 1)
    if f1.product_key != f2.product_key:
        return PathResult("not_comparable", None, 0, False)

    while fwd.frontier and bwd.frontier:
        if depth_cap is not None and fwd.depth + bwd.depth >= depth_cap:
            return PathResult(
                "not_found", None, len(fwd.parents) + len(bwd.parents), True
            )
        if len(fwd.frontier) <= len(bwd.frontier):
            tree, other = fwd, bwd
        else:
            tree, other = bwd, fwd
        cap = None if size_cap is None else size_cap - len(other.parents)
        meet: str | None = None
        # The state on which the trees meet is expanded to the end.
        for item in tree.grow(cap):
            if item is None:
                if meet is not None:
                    break
            elif meet is None and item[0] in other.parents:
                meet = item[0]
        if meet is not None:
            moves = fwd.path(meet) + [m.inverted() for m in reversed(bwd.path(meet))]
            return finish(moves, len(fwd.parents) + len(bwd.parents))

    return PathResult(
        "not_found", None, len(fwd.parents) + len(bwd.parents), fwd.capped or bwd.capped
    )
