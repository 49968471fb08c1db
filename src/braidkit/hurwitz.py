"""Hurwitz moves on factorizations, orbit exploration, and path search.

The move R_k replaces the adjacent factors (t_k, t_{k+1}) by
(t_k t_{k+1} t_k^-1, t_k); its inverse replaces them by
(t_{k+1}, t_{k+1}^-1 t_k t_{k+1}).  Both leave the ordered product
unchanged, so the moves act on the set of factorizations of a fixed
braid.  Positions are 1-based.  `apply_sequence` returns freely
reduced words, on which the moves act exactly: the Hurwitz action
obeys the braid relations over any group, the free group on the
letters included (Artin), and a free-group element has exactly one
freely reduced word.  So R_k then R_k^-1, R_k R_{k+1} R_k against
R_{k+1} R_k R_{k+1}, and far moves in either order give factors equal
letter for letter, and the freely reduced product of the factors
never changes.

`tuple_key` is the public key of one `Factorization`: the per-factor
canonical keys joined with ";", so two factorizations share a key
exactly when their factors are equal as braids position by position.
Orbit and path search do not build a `Factorization` per state.  The
searches on n strands share one table (`_table`), which interns the
factors they meet as small ints keyed by their Dynnikov coordinates
(`freegroup`), the same for exactly the words equal as braids, and a
state is the str whose code points are its factors' ids (see
`SearchTree`), so two states are equal exactly when their tuple keys
are.  The table's memoized move map sends a pair of ids, a 2-character
str, to the pairs R_k and R_k^-1 leave.  An entry is filled once per
distinct pair of factors, for every later search on n strands too, by
acting on the coordinates each id carries, and a word is built, by the
move formula `apply_move` uses, only for a factor whose coordinates are
new.  A search starts a fresh table, which replaces the kept one, when
the kept one holds more than `_SHARED_LIMIT` (4,096) factors or filled
pairs, so one wide search does not leave later ones growing its table.
No answer depends on an id's value: trees grow by position and
direction, and ids are in bijection with braids.  Normal forms serve
only the replay checks and an orbit's keys, which its `OrbitReport`
builds when they are first read: joined back into `tuple_key` text and
sorted, so output is reproducible run to run.

Every breadth-first search in the package, these two and the relation
rewrites of `rewriting`, grows a `SearchTree` whose states change one
adjacent pair at a time through the caller's `pairs` table: one
visited map with parent links and layer sizes, one neighbour loop
(`grow`, which also serves the depth-cap probe and
`rewriting.neighbors`), one closure walk, one cap rule (a tree always
holds its root; a size cap turns every later state away once that many
are held, and the first state it turns away sets `capped` and stops
the tree: a full tree stops growing; a depth cap sets `capped` only
if a state at the cap has an unvisited neighbour), and one parent walk
for reading a path back.  At its depth cap `find_path` reports
truncated only if both of its trees still have an unvisited
neighbour.  Every path a search reports is replayed first on real
factorizations, as is the move that admitted an orbit's last state, and
`check_replay` raises `ReplayError` on a mismatch.

Orbits of full-twist factorizations are infinite from 3 strands on, so
orbit and path search hold at most `DEFAULT_SIZE_CAP` (50,000) states
unless the caller gives a size cap.  A code point is at most
`sys.maxunicode` (1,114,111), so one table interns at most 1,114,112
distinct factors, and a search at least 1,114,112 - 4,096 new ones;
the next raises `InputError`, and the table that raised it is past the
bound, so no later search reuses it.

Serialized moves are signed integers: k stands for R_k and -k for
R_k^-1.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .bands import Factorization
from .freegroup import act
from .normalform import canonical_key
from .words import MAX_LETTERS, BraidWord, InputError, _conjugate_letters, _inverse


DEFAULT_SIZE_CAP = 50_000

# The largest cell a search state can hold: cells are code points.
_MAX_CELL = sys.maxunicode


def _encode(cells) -> str:
    """The search state whose code points are the cells, each at most `_MAX_CELL`."""
    return "".join(map(chr, cells))


def _decode(state: str) -> Iterator[int]:
    """The cells of a search state, in order: the inverse of `_encode`."""
    return map(ord, state)


@dataclass(frozen=True)
class Move:
    k: int
    direction: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError(f"move position must be >= 1, got {self.k}")
        if self.direction not in (1, -1):
            raise InputError(f"move direction must be +1 or -1, got {self.direction}")

    def inverted(self) -> Move:
        return Move(self.k, -self.direction)

    def __str__(self) -> str:
        return f"R{self.k}" if self.direction == 1 else f"R{self.k}^-1"


def move_to_int(m: Move) -> int:
    return m.k * m.direction


def move_from_int(v: int) -> Move:
    if v == 0:
        raise InputError("0 does not encode a move")
    return Move(abs(v), 1 if v > 0 else -1)


def _move_pair(x, y, direction: int, conjugate) -> tuple:
    """The pair R^direction leaves of the adjacent factors (x, y).

    That is (x y x^-1, x) forward and (y, y^-1 x y) backward, with
    conjugate(h, m, sign) giving h^sign m h^-sign in whatever stands for
    a factor: letter tuples in `_move_letters`, ids in a search's move
    table.
    """
    if direction == 1:
        return conjugate(x, y, 1), x
    return y, conjugate(y, x, -1)


def apply_move(f: Factorization, m: Move) -> Factorization:
    return apply_sequence(f, (m,))


def apply_sequence(f: Factorization, moves) -> Factorization:
    """f moved by each of the moves in turn, its factors freely reduced.

    The moves act on letter tuples through `_move_letters`, the loop
    that `verify`'s action-axioms suite also runs, and a factor whose
    letters changed is wrapped in a `BraidWord` once, at the end; one
    left in place is passed through as it is.  The result goes through the
    `Factorization` constructor, which keeps these reduced words.
    """
    factors = _move_letters((w.letters for w in f.factors), moves)
    moved = tuple(w if w.letters is letters else BraidWord(f.n, letters)
                  for w, letters in zip(f.factors, factors))
    return Factorization(f.n, moved)


def _move_letters(factors, moves) -> list:
    """The letter tuples of freely reduced factors moved by each move in turn.

    A factor left in place stays the same tuple in the returned list.
    The pairs the moves leave hold at most `MAX_LETTERS` letters in all:
    the move that passes it raises `InputError`.
    """
    factors, letters = list(factors), 0
    for idx, m in enumerate(moves):
        if m.k > len(factors) - 1:
            raise InputError(f"move {idx + 1} of the sequence: move {m} out of range "
                            f"for a factorization of length {len(factors)}")
        i = m.k - 1
        factors[i : i + 2] = x, y = _move_pair(factors[i], factors[i + 1], m.direction,
                                               _conjugate_letters)
        letters += len(x) + len(y)
        if letters > MAX_LETTERS:
            raise InputError(f"move {idx + 1} of the sequence: the moved pairs pass "
                             f"{MAX_LETTERS:,} letters in all")
    return factors


def tuple_key(f: Factorization) -> str:
    return ";".join(f.factor_keys)


class ReplayError(RuntimeError):
    """A found path does not replay to its target: a fault in the search."""


def check_replay(got: Factorization, want: Factorization, what: str) -> Factorization:
    """Return got, a found path's replay, if its factors are want's as braids.

    Otherwise raise ReplayError, under ``python -O`` too.  Every search
    certifies every path it returns here, so a wrong "found" is never reported.
    """
    if got.factor_keys != want.factor_keys:
        raise ReplayError(f"{what} does not replay to its target")
    return got


class SearchTree:
    """A breadth-first search tree, the engine behind every search here.

    States are strs, one code point per cell (`_encode`), and are their
    own deduplication keys: a neighbour is then one concatenation, and a
    str computes its hash once, for every later lookup.  A state's
    neighbours are its single pair rewrites: at each position, left to
    right, `pairs(state[i:i+2])` lists the (replacement pair, direction)
    rewrites in search order, and `grow` is the one loop that walks
    them.  A step is (1-based position, direction): the fields of the `Move`
    that realizes it, here and in `rewriting` alike.  `parents` maps each
    visited state to (parent, step), with (None, None) at the root,
    which is always held; `frontier` holds the newest layer, `layers`
    each non-empty layer's size from the root's 1, and `capped` records
    that a cap turned an unvisited neighbor away.
    Once a size cap has turned a state away nothing more can join the
    tree, so it stops growing: its frontier is emptied.
    """

    def __init__(self, root: str, pairs) -> None:
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
                for pair, direction in pairs(at[i : i + 2]):
                    nb = head + pair + tail
                    if nb in parents:
                        continue
                    if len(parents) >= limit:
                        self.capped, self.frontier = True, []
                        if nxt:
                            self.layers.append(len(nxt))
                        return
                    parents[nb] = (at, (i + 1, direction))
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
    """The factors searches on n strands meet, interned as small ints, and their move table.

    A factor's id stands for its braid: ids are keyed by the factor's
    Dynnikov vector (`freegroup.dynnikov_coordinates`, the image of the
    trivial lamination), which is the same for exactly the words equal
    as braids.  For each id the table keeps the first freely reduced
    word met for it, the letters of that word's inverse, and the vectors
    of both; `words` holds the words kept for every search that used
    the table (see `_table`).  A state is the str of its factors' ids
    (`_encode`).  As a dict the table maps a pair of ids (a, b), a
    2-character str, to
    (((a b a^-1, a), 1), ((b, b^-1 a b), -1)), the pairs R_k and R_k^-1
    leave, encoded the same way; its `__getitem__` is the tree's `pairs`.
    Only the pairs a search expands are filled, so a tree that stops at
    its cap fills no entry past it.  A missing entry is filled through
    `_move_pair`, the move formula `apply_move` uses, on ids: the vector
    of x y x^-1 is the stored vector of x acted on by the letters of y
    and x^-1, and that of y^-1 x y the stored vector of y^-1 acted on by
    those of x and y, so a fill acts with |x| + |y| letters per
    direction.  A new factor's word is built by `_conjugate_letters`,
    the conjugation `apply_sequence` uses, and kept only when its vector
    is new, and no fill computes a normal form.  An id past
    `_MAX_CELL` raises `InputError`.  A new id is published in `ids` only
    after its word, inverse and vectors are stored, so a fill that stops
    part way leaves no id without its word in a table later searches reuse.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.ids: dict[tuple[int, ...], int] = {}
        self.words: list[BraidWord] = []
        self.inverses: list[tuple] = []
        self.vectors: list[tuple[int, ...]] = []
        self.inverse_vectors: list[tuple[int, ...]] = []

    def _add(self, word: BraidWord, vector, inverse_vector) -> int:
        fid = len(self.words)
        if fid > _MAX_CELL:
            raise InputError(f"a search holds at most {_MAX_CELL + 1:,} distinct factors "
                            "(one code point each)")
        self.words.append(word)
        self.inverses.append(_inverse(word.letters))
        self.vectors.append(vector)
        self.inverse_vectors.append(inverse_vector)
        self.ids[vector] = fid
        return fid

    def state(self, f: Factorization) -> str:
        """The state of f's factor ids, interning any factor not met before."""
        trivial = (0, 1) * self.n
        met: dict[tuple, int] = {}  # a word repeated in f is looked up once
        for w in f.factors:
            if w.letters not in met:
                vector = act(trivial, w.letters)
                fid = self.ids.get(vector)
                if fid is None:
                    fid = self._add(w, vector, act(trivial, _inverse(w.letters)))
                met[w.letters] = fid
        return _encode(met[w.letters] for w in f.factors)

    def _conjugate(self, h: int, m: int, sign: int) -> int:
        """The id of h^sign m h^-sign, interned with its word if it is new."""
        if sign == 1:
            start, tail = self.vectors[h], self.inverses[h]
        else:
            start, tail = self.inverse_vectors[h], self.words[h].letters
        vector = act(start, self.words[m].letters + tail)
        fid = self.ids.get(vector)
        if fid is None:
            letters = _conjugate_letters(self.words[h].letters, self.words[m].letters, sign)
            word = BraidWord(self.n, letters)
            fid = self._add(word, vector, act(start, self.inverses[m] + tail))
        return fid

    def __missing__(self, pair: str):
        a, b = _decode(pair)
        moved = ((_encode(_move_pair(a, b, 1, self._conjugate)), 1),
                 (_encode(_move_pair(a, b, -1, self._conjugate)), -1))
        self[pair] = moved
        return moved


# The bound on a kept table (see `_table`); a default-cap orbit on 3
# strands leaves some 1,600 factors, 4,800 pairs and 5 MB.
_SHARED_LIMIT = 4_096

_TABLES: dict[int, _FactorTable] = {}


def _table(n: int) -> _FactorTable:
    """The searches' table on n strands, a fresh one if the kept one is past the bound."""
    table = _TABLES.get(n)
    if table is None or max(len(table), len(table.words)) > _SHARED_LIMIT:
        table = _TABLES[n] = _FactorTable(n)
    return table


@dataclass(frozen=True)
class OrbitReport:
    """What `orbit_explore` found; `keys` are built when first read.

    `states` are the held states, strs whose code points (`_decode`) are
    ids into `words`, the factor words the search's table kept (for
    earlier searches on its strand count too), and `keys` their sorted
    tuple keys, built on first read from the normal forms of the words
    the states use, each once.  Keys passed in are taken as given, so
    `dataclasses.replace` can set them.
    """

    visited: int
    depth_counts: tuple[int, ...]
    truncated: bool
    states: tuple[str, ...] = field(repr=False)
    words: tuple[BraidWord, ...] = field(repr=False)

    def __init__(self, visited, depth_counts, truncated, states, words, keys=None):
        self.__dict__.update(visited=visited, depth_counts=depth_counts, truncated=truncated,
                             states=states, words=words)
        if keys is not None:
            self.__dict__["keys"] = keys

    @cached_property
    def keys(self) -> tuple[str, ...]:
        used = set(_decode("".join(self.states)))
        factor_keys = {fid: canonical_key(self.words[fid]) for fid in used}
        return tuple(sorted(";".join(map(factor_keys.__getitem__, _decode(s)))
                            for s in self.states))


def orbit_explore(
    f: Factorization,
    depth_cap: int | None = None,
    size_cap: int | None = DEFAULT_SIZE_CAP,
) -> OrbitReport:
    """Breadth-first closure of a factorization under all moves.

    `truncated` is False exactly when the reported keys are the whole
    orbit: a cap only sets the flag when it actually blocks an unvisited
    neighbor, so generous caps on a small orbit stay untruncated.  The
    move that admitted the last state is certified on the pair it moved.
    """
    table = _table(f.n)
    tree = SearchTree(table.state(f), table.__getitem__).close(size_cap, depth_cap)
    # Coordinates alone told the states apart, so `apply_move` replays the
    # move that admitted the last state on the parent's pair at its position.
    last = next(reversed(tree.parents))
    parent, step = tree.parents[last]
    if parent is not None:
        i = step[0] - 1
        before, after = (Factorization(f.n, tuple(table.words[c] for c in _decode(s[i : i + 2])))
                         for s in (parent, last))
        check_replay(apply_move(before, Move(1, step[1])), after, "orbit move")
    return OrbitReport(len(tree.parents), tuple(tree.layers), tree.capped,
                       tuple(tree.parents), tuple(table.words))


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


def find_path(
    f1: Factorization,
    f2: Factorization,
    depth_cap: int | None = None,
    size_cap: int | None = DEFAULT_SIZE_CAP,
) -> PathResult:
    """Bidirectional breadth-first search for a move sequence f1 -> f2.

    Each round grows the tree with the smaller frontier by one layer;
    the size cap bounds both trees together, so once either tree is
    full neither can admit a state and the search stops.  The depth cap
    bounds the two trees' depths together.  When it is reached, each tree
    is probed as `SearchTree.close` probes at its depth cap, admitting
    nothing, and the result is truncated only if both trees still have an
    unvisited neighbour: a tree with none holds its whole orbit, and as
    the trees never met, the other end is not in it.  Found sequences are
    verified by replay before being returned: the final tuple matches f2
    in per-factor keys, position by position.
    """
    if f1.n != f2.n:
        raise InputError(f"strand counts differ: {f1.n} vs {f2.n}")
    if len(f1) != len(f2):
        raise InputError(f"factorization lengths differ: {len(f1)} vs {len(f2)}")

    def finish(moves: list[Move], visited: int) -> PathResult:
        check_replay(apply_sequence(f1, moves), f2, "move path")
        return PathResult("found", tuple(moves), visited, False)

    table = _table(f1.n)
    fwd = SearchTree(table.state(f1), table.__getitem__)
    bwd = SearchTree(table.state(f2), table.__getitem__)
    if fwd.root == bwd.root:
        return finish([], 1)
    if f1.product_key != f2.product_key:
        return PathResult("not_comparable", None, 0, False)

    while fwd.frontier and bwd.frontier:
        if depth_cap is not None and len(fwd.layers) + len(bwd.layers) - 2 >= depth_cap:
            truncated = all(t.close(None, len(t.layers) - 1).capped for t in (fwd, bwd))
            return PathResult(
                "not_found", None, len(fwd.parents) + len(bwd.parents), truncated
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
