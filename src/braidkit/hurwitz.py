"""Hurwitz moves on factorizations, orbit exploration, and path search.

The move R_k replaces the adjacent factors (t_k, t_{k+1}) by
(t_k t_{k+1} t_k^-1, t_k); its inverse replaces them by
(t_{k+1}, t_{k+1}^-1 t_k t_{k+1}).  Both leave the ordered product
unchanged, so the moves act on the set of factorizations of a fixed
braid.  Positions are 1-based.

`tuple_key` is the public key of one `Factorization`: the per-factor
canonical keys joined with ";", so two factorizations share a key
exactly when their factors are equal as braids position by position.
Orbit and path search do not build a `Factorization` per state.  Each
search interns the factors it meets as small ints keyed by canonical
key, and a state is the tuple of its factors' ids, so two states are
equal exactly when their tuple keys are.  One memoized move table maps
a pair of ids to the pairs R_k and R_k^-1 leave.  An entry is filled
once per distinct pair of factors, by `apply_move` in each direction,
and only the one new factor of each result is interned, since the
other already has its id.  `apply_move` builds the new factor as one
free reduction of its letters.  Emitted keys are joined back into
`tuple_key` text and sorted, so output is reproducible run to run.

Every breadth-first search in the package, these two and the relation
rewrites of `rewriting`, grows a `SearchTree` whose states change one
adjacent pair at a time through the caller's `pairs` table: one
visited map with parent links and layer sizes, one neighbour loop
(`grow`, which also serves the depth-cap probe and
`rewriting.neighbors`), one closure walk, one cap rule (a tree always
holds its root; a size cap turns every later state away once that many
are held, and the first state it turns away sets `capped` and stops
the tree: a full tree stops growing), and one parent walk for reading
a path back.  Every path a search reports is replayed first on real
factorizations, and a mismatch raises `ReplayError`.

Serialized moves are signed integers: k stands for R_k and -k for
R_k^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bands import Factorization
from .normalform import canonical_key
from .words import BraidWord, _reduce


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


def _unchecked(cls, **fields):
    """A frozen `cls(**fields)` built without its checks, for fields known to pass them."""
    out = object.__new__(cls)
    # Set each field rather than update __dict__: that would give every
    # instance its own dict, and the kept words would hold more memory.
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def apply_move(f: Factorization, m: Move) -> Factorization:
    if m.k > len(f) - 1:
        raise MoveError(
            f"move {m} out of range for a factorization of length {len(f)}"
        )
    i = m.k - 1
    x, y = f.factors[i], f.factors[i + 1]
    # Stored factors are valid and reduced, so the new factor is one free
    # reduction of their letters and the words skip re-validating.
    if m.direction == 1:
        inv = tuple((j, -s) for j, s in reversed(x.letters))
        pair = (_unchecked(BraidWord, n=f.n, letters=_reduce(x.letters + y.letters + inv)), x)
    else:
        inv = tuple((j, -s) for j, s in reversed(y.letters))
        pair = (y, _unchecked(BraidWord, n=f.n, letters=_reduce(inv + x.letters + y.letters)))
    return _unchecked(Factorization, n=f.n, factors=f.factors[:i] + pair + f.factors[i + 2 :])


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

    States are tuples and are their own deduplication keys.  A state's
    neighbours are its single pair rewrites: at each position, left to
    right, `pairs(state[i:i+2])` lists the (replacement pair, label)
    rewrites in search order, and `grow` is the one loop that walks
    them.  A step is (1-based position, label).  `parents` maps each
    visited state to (parent, step), with (None, None) at the root,
    which is always held; `frontier` holds the newest layer, `layers`
    each non-empty layer's size from the root's 1, and `capped` records
    that a cap turned an unvisited neighbor away.
    Once a size cap has turned a state away nothing more can join the
    tree, so it stops growing: its frontier is emptied.
    """

    def __init__(self, root: tuple, pairs) -> None:
        self.root = root
        self.pairs = pairs
        self.parents = {root: (None, None)}
        self.frontier = [root]
        self.layers = [1]
        self.capped = False

    def grow(self, size_cap: int | None):
        """Expand the frontier by one layer, keeping the tree within size_cap.

        This is the tree's one neighbour loop.  It yields each newly
        admitted state, and None once every neighbour of a frontier
        state has been examined, so a caller can stop between states;
        a step is built only for a state it admits.  The frontier and
        layers advance only when the layer has been expanded to its end,
        or to the first unvisited state the size cap turns away: that
        state sets `capped`, the partial layer is recorded, and the
        frontier is emptied, since a full tree admits nothing more.
        """
        parents, pairs = self.parents, self.pairs
        limit = math.inf if size_cap is None else size_cap
        nxt = []
        for at in self.frontier:
            for i in range(len(at) - 1):
                head, tail = at[:i], at[i + 2 :]
                for pair, label in pairs(at[i : i + 2]):
                    nb = head + pair + tail
                    if nb in parents:
                        continue
                    if len(parents) >= limit:
                        self.capped, self.frontier = True, []
                        if nxt:
                            self.layers.append(len(nxt))
                        return
                    parents[nb] = (at, (i + 1, label))
                    nxt.append(nb)
                    yield nb
            yield None
        self.frontier = nxt
        if nxt:
            self.layers.append(len(nxt))

    def close(self, size_cap: int | None, depth_cap: int | None = None) -> SearchTree:
        """Grow the tree until it is full, its frontier is empty or it is at depth_cap.

        Returns the tree.  A size cap stops it at the first state the cap
        turns away (see `grow`).  At depth_cap, one more `grow` with a cap
        of the tree's own size admits nothing: it only sets `capped`, at
        the first unvisited neighbour of the frontier, if there is one.
        """
        while self.frontier:
            if depth_cap is not None and len(self.layers) > depth_cap:
                for _ in self.grow(len(self.parents)):
                    pass
                break
            for _ in self.grow(size_cap):
                pass
        return self

    def path(self, at) -> list:
        """The steps leading from the root to the visited state `at`."""
        steps = []
        parent, step = self.parents[at]
        while parent is not None:
            steps.append(step)
            parent, step = self.parents[parent]
        steps.reverse()
        return steps


class _FactorTable(dict):
    """The factors one search meets, interned as small ints, and its move table.

    A factor's id stands for its braid: ids are keyed by `canonical_key`,
    and the word kept for an id is the first freely reduced word met for
    it.  As a dict the table maps a pair of ids (a, b) to
    (((a b a^-1, a), 1), ((b, b^-1 a b), -1)), the pairs R_k and R_k^-1
    leave; its `__getitem__` is the tree's `pairs`.  Only the pairs a
    search expands are filled, so a tree that stops at its cap fills no
    entry past it.  A missing entry is filled by `apply_move` on the two
    kept words, once per direction, and only the new factor of each
    result is interned: a and b already have their ids, so a fill looks
    up two canonical keys.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.ids: dict[str, int] = {}
        self.words: list = []

    def _intern(self, key: str, word) -> int:
        fid = self.ids.setdefault(key, len(self.ids))
        if fid == len(self.words):
            self.words.append(word)
        return fid

    def state(self, f: Factorization) -> tuple[int, ...]:
        """The ids of f's factors, interning any factor not met before."""
        return tuple(map(self._intern, f.factor_keys, f.factors))

    def __missing__(self, pair: tuple[int, int]):
        a, b = pair
        f = _unchecked(Factorization, n=self.n, factors=(self.words[a], self.words[b]))
        left = apply_move(f, Move(1, 1)).factors[0]
        right = apply_move(f, Move(1, -1)).factors[1]
        moved = (((self._intern(canonical_key(left), left), a), 1),
                 ((b, self._intern(canonical_key(right), right)), -1))
        self[pair] = moved
        return moved


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
    table = _FactorTable(f.n)
    tree = SearchTree(table.state(f), table.__getitem__).close(size_cap, depth_cap)
    # Ids were handed out in insertion order, so they index the key list.
    factor_keys = list(table.ids)
    keys = sorted(";".join(map(factor_keys.__getitem__, state)) for state in tree.parents)
    return OrbitReport(len(tree.parents), tuple(tree.layers), tree.capped, tuple(keys))


@dataclass(frozen=True)
class PathResult:
    """Outcome of a search for a move sequence.

    status "found" carries the move sequence, already replay-checked.
    From `find_path`, "not_comparable" means the product keys differ, so
    no sequence can exist.  "not_found" with truncated False means the
    reachable orbit was exhausted; with truncated True a cap stopped the
    search and the result says nothing either way.  The rewrite search
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
    the size cap bounds both trees together, so once either tree is
    full neither can admit a state and the search stops.  Found
    sequences are verified by replay before being returned: the final
    tuple matches f2 in per-factor keys, position by position.
    """
    if f1.n != f2.n:
        raise MoveError(f"strand counts differ: {f1.n} vs {f2.n}")
    if len(f1) != len(f2):
        raise MoveError(f"factorization lengths differ: {len(f1)} vs {len(f2)}")

    def finish(moves: list[Move], visited: int) -> PathResult:
        replayed = apply_sequence(f1, moves)
        check_replay(replayed.factor_keys, f2.factor_keys, "move path")
        return PathResult("found", tuple(moves), visited, False)

    table = _FactorTable(f1.n)
    fwd = SearchTree(table.state(f1), table.__getitem__)
    bwd = SearchTree(table.state(f2), table.__getitem__)
    if fwd.root == bwd.root:
        return finish([], 1)
    if f1.product_key != f2.product_key:
        return PathResult("not_comparable", None, 0, False)

    while fwd.frontier and bwd.frontier:
        if depth_cap is not None and len(fwd.layers) + len(bwd.layers) - 2 >= depth_cap:
            return PathResult(
                "not_found", None, len(fwd.parents) + len(bwd.parents), True
            )
        if len(fwd.frontier) <= len(bwd.frontier):
            tree, other = fwd, bwd
        else:
            tree, other = bwd, fwd
        cap = None if size_cap is None else size_cap - len(other.parents)
        meet = None
        # The state on which the trees meet is expanded to the end, or
        # until the cap fires.
        for state in tree.grow(cap):
            if state is None:
                if meet is not None:
                    break
            elif meet is None and state in other.parents:
                meet = state
        if meet is not None:
            moves = [Move(*step) for step in fwd.path(meet)]
            moves += [Move(*step).inverted() for step in reversed(bwd.path(meet))]
            return finish(moves, len(fwd.parents) + len(bwd.parents))

    return PathResult(
        "not_found", None, len(fwd.parents) + len(bwd.parents), fwd.capped or bwd.capped
    )
