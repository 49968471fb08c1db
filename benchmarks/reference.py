"""Independent constructions and checks used to judge braidkit's answers.

Nothing here imports braidkit.  Words are tuples of (index, sign)
letters, band letters are (t, s) pairs and moves are signed integers,
so every check rests on code that shares nothing with the program it
judges.  Each check raises `Wrong` when an answer is wrong and `Failed`
when the program broke its contract (an exception escaped, or a
malformed input got another exit code than 3).
"""

from __future__ import annotations

import itertools
import json
from math import comb


class Wrong(Exception):
    """The program returned an answer that contradicts the construction."""


class Failed(Exception):
    """The operation did not complete as the program's contract says."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


# -- Artin words ---------------------------------------------------------------


def cancels(out, letter) -> bool:
    """Whether `letter` is the inverse of the last letter of `out`."""
    return bool(out) and out[-1][0] == letter[0] and out[-1][1] == -letter[1]


def free_reduce(letters) -> tuple:
    out: list = []
    for letter in letters:
        if cancels(out, letter):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert(letters) -> tuple:
    return tuple((i, -s) for i, s in reversed(letters))


def conjugate(x, g) -> tuple:
    """g^-1 x g, freely reduced."""
    return free_reduce(invert(g) + tuple(x) + tuple(g))


def parse(text: str) -> tuple:
    return tuple((abs(int(t)), 1 if int(t) > 0 else -1) for t in text.split())


def fmt(letters) -> str:
    return " ".join(str(i * s) for i, s in letters)


def random_reduced(rng, n: int, length: int) -> tuple:
    out: list = []
    while len(out) < length:
        letter = (rng.randint(1, n - 1), rng.choice((1, -1)))
        if not cancels(out, letter):
            out.append(letter)
    return tuple(out)


def relator(i: int) -> tuple:
    """s_i s_{i+1} s_i (s_{i+1} s_i s_{i+1})^-1, trivial in the braid group."""
    return ((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1))


def pure_commutator(i: int) -> tuple:
    """s_i s_{i+1}^2 s_i^-1 s_{i+1}^-2: a nontrivial pure braid.

    Its exponent sum is 0 and its permutation is trivial, but it is not
    the identity: s_i does not commute with the pure generator
    s_{i+1}^2.
    """
    return ((i, 1), (i + 1, 1), (i + 1, 1), (i, -1), (i + 1, -1), (i + 1, -1))


def disguise(rng, n: int, letters, edits: int) -> tuple:
    """Apply braid relations and free insertions; the braid is unchanged."""
    w = list(letters)
    for _ in range(edits):
        kind = rng.randrange(3)
        at = rng.randint(0, len(w))
        if kind == 0:
            i = rng.randint(1, n - 1)
            e = rng.choice((1, -1))
            w[at:at] = [(i, e), (i, -e)]
        elif kind == 1 and n >= 3:
            i = rng.randint(1, n - 2)
            r = relator(i)
            w[at:at] = list(r if rng.random() < 0.5 else invert(r))
        else:
            # Swap one adjacent pair of far-apart letters, if there is one.
            spots = [k for k in range(len(w) - 1) if abs(w[k][0] - w[k + 1][0]) >= 2]
            if spots:
                k = rng.choice(spots)
                w[k], w[k + 1] = w[k + 1], w[k]
    return tuple(w)


def exponent_sum(letters) -> int:
    return sum(s for _, s in letters)


# -- permutations (0-based one-line tuples, composed left to right) ------------


def perm_of(n: int, letters) -> tuple:
    p = list(range(n))
    for i, _ in letters:
        # Follow the points: position images swap values i-1 and i.
        p = [i if v == i - 1 else i - 1 if v == i else v for v in p]
    return tuple(p)


def perm_then(p, q) -> tuple:
    return tuple(q[p[k]] for k in range(len(p)))


def inversions(p) -> int:
    return sum(1 for a, b in itertools.combinations(p, 2) if a > b)


def starting_set(p) -> set:
    return {k for k in range(len(p) - 1) if p[k] > p[k + 1]}


def finishing_set(p) -> set:
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v] = k
    return starting_set(inv)


def check_normal_form(n: int, letters, delta_power: int, factors) -> None:
    """Check a left-greedy normal form against invariants of the word.

    The exponent sum and the permutation of the word must match those of
    Delta^d f_1 ... f_m, every factor must be a proper permutation braid
    and every adjacent pair must be left weighted.
    """
    w0 = tuple(range(n - 1, -1, -1))
    ident = tuple(range(n))
    perms = [tuple(v - 1 for v in f) for f in factors]
    for p in perms:
        expect(sorted(p) == list(ident), f"factor {p} is not a permutation")
        expect(p not in (ident, w0), f"factor {p} is trivial or the half twist")
    length = delta_power * n * (n - 1) // 2 + sum(inversions(p) for p in perms)
    expect(length == exponent_sum(letters),
           f"normal form length {length} != exponent sum {exponent_sum(letters)}")
    total = ident
    for _ in range(delta_power % 2):
        total = perm_then(total, w0)
    for p in perms:
        total = perm_then(total, p)
    expect(total == perm_of(n, letters), "normal form has the wrong permutation")
    for a, b in zip(perms, perms[1:]):
        expect(starting_set(b) <= finishing_set(a), f"pair {a} {b} is not left weighted")


# -- the free-group action, written out independently --------------------------


def free_images(n: int, letters) -> tuple:
    """Images of x_1..x_n under the automorphism of the braid word.

    sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i; the
    inverse letter undoes that.  Letters act in order, each substituted
    into the images built so far.  The action is faithful, so two words
    are equal braids exactly when their images agree.
    """
    images = [((g, 1),) for g in range(1, n + 1)]
    for i, sign in letters:
        if sign == 1:
            sub = {i: ((i, 1), (i + 1, 1), (i, -1)), i + 1: ((i, 1),)}
        else:
            sub = {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1))}

        def substitute(g, s, sub=sub):
            piece = sub.get(g, ((g, 1),))
            return piece if s == 1 else invert(piece)

        images = [free_reduce(letter for g, s in img for letter in substitute(g, s))
                  for img in images]
    return tuple(images)


def same_braid(n: int, u, v) -> bool:
    return free_images(n, u) == free_images(n, v)


# -- Hurwitz moves ---------------------------------------------------------------


def replay(factors, moves) -> tuple:
    """Apply signed moves: k sends (x, y) to (x y x^-1, x), -k to (y, y^-1 x y)."""
    fs = list(factors)
    for v in moves:
        if isinstance(v, bool) or not isinstance(v, int) or v == 0:
            raise Wrong(f"move {v!r} is not a nonzero integer")
        k = abs(v) - 1
        if k + 1 >= len(fs):
            raise Wrong(f"move {v} out of range for {len(fs)} factors")
        x, y = fs[k], fs[k + 1]
        if v > 0:
            fs[k], fs[k + 1] = free_reduce(x + y + invert(x)), x
        else:
            fs[k], fs[k + 1] = y, free_reduce(invert(y) + x + y)
    return tuple(fs)


def check_replay(n: int, source, moves, target) -> None:
    """The moves carry source to target, factor by factor, as braids."""
    out = replay(source, moves)
    for k, (got, want) in enumerate(zip(out, target)):
        expect(same_braid(n, got, want), f"replayed factor {k + 1} differs from the target")


def standard_factors(n: int) -> tuple:
    return tuple(((i, 1),) for i in range(1, n)) * n


def check_orbit(visited: int, depth_counts, truncated: bool, keys, cap, size=None) -> None:
    """Counts of a breadth-first orbit report agree and respect the cap.

    With `size` given the orbit is finite and known by hand; otherwise
    it is infinite, so the cap must have fired exactly at the cap.
    """
    expect(sum(depth_counts) == visited, f"depth counts sum to {sum(depth_counts)}, visited {visited}")
    expect(bool(depth_counts) and depth_counts[0] == 1, "depth 0 must hold the start alone")
    if keys is not None:
        expect(len(keys) == visited and len(set(keys)) == visited, "keys do not match visited")
    if size is not None:
        expect(visited == size and not truncated, f"orbit of size {size} reported {visited}")
    else:
        expect(visited == cap and truncated, f"capped orbit: visited {visited}, cap {cap}")


# -- band words and relation rewrites --------------------------------------------


def band_expand(t: int, s: int) -> tuple:
    return (tuple((i, 1) for i in range(t - 1, s, -1)) + ((s, 1),)
            + tuple((i, -1) for i in range(s + 1, t)))


def band_word_expand(word) -> tuple:
    return free_reduce(tuple(letter for t, s in word for letter in band_expand(t, s)))


def twist_band_word(n: int) -> tuple:
    return tuple((i + 1, i) for i in range(1, n)) * n


def _pair_rewrites(x, y):
    """The other forms of the relation the ordered pair x y sits in.

    For t > s > r the products a_ts a_sr, a_tr a_ts and a_sr a_tr are
    equal, and disjoint or nested chords commute.
    """
    (t1, s1), (t2, s2) = x, y
    if s1 == t2:
        t, s, r = t1, s1, s2
    elif t1 == t2 and s1 < s2:
        t, s, r = t1, s2, s1
    elif s1 == s2 and t1 < t2:
        t, s, r = t2, t1, s1
    else:
        if (t1 - t2) * (t1 - s2) * (s1 - t2) * (s1 - s2) > 0:
            return [(y, x)]
        return []
    forms = [((t, s), (s, r)), ((t, r), (t, s)), ((s, r), (t, r))]
    return [f for f in forms if f != (x, y)]


def band_neighbors(word) -> list:
    out = []
    for k in range(len(word) - 1):
        for pair in _pair_rewrites(word[k], word[k + 1]):
            out.append(word[:k] + pair + word[k + 2:])
    return out


def rewrite_walk(rng, word, steps: int) -> tuple:
    """A self-avoiding walk of relation rewrites; every word on it is equal."""
    seen = {word}
    for _ in range(steps):
        options = [w for w in band_neighbors(word) if w not in seen]
        if not options:
            break
        word = rng.choice(options)
        seen.add(word)
    return word


def check_closure(start, words, truncated: bool, cap) -> None:
    """A rewrite class is a set of distinct, equal-length words containing
    the start, bounded by the cap, and closed under rewrites when complete."""
    members = set(words)
    expect(len(members) == len(words), "closure lists a word twice")
    expect(start in members, "closure misses its own start word")
    expect(all(len(w) == len(start) for w in words), "closure mixes word lengths")
    expect(len(words) <= cap, f"closure of {len(words)} words exceeds cap {cap}")
    if truncated:
        expect(len(words) == cap, "a truncated closure must stop at the cap")
    else:
        for w in words:
            for nb in band_neighbors(w):
                expect(nb in members, "closure is not closed under rewrites")


def parse_band(text: str) -> tuple:
    return tuple(tuple(int(x) for x in tok.split(":")) for tok in text.split())


def fmt_band(word) -> str:
    return " ".join(f"{t}:{s}" for t, s in word)


# -- suites, maps and closed forms -----------------------------------------------

SUITES = ("relations", "centrality", "chain-rules", "embedding",
          "twist-closure", "conjugated-split", "action-axioms")


def suite_counts(suite: str, n: int) -> dict:
    """Counts a verify suite must report, from closed forms."""
    if suite == "relations":
        return {"checks": 2 * comb(n, 3) + 2 * comb(n, 4),
                "chainTriples": comb(n, 3), "commutingPairs": 2 * comb(n, 4)}
    if suite == "centrality":
        return {"checks": n + 4}
    if suite == "chain-rules":
        return {"checks": 7 * comb(n, 3) + 4 * comb(n, 4), "commutingPairs": 4 * comb(n, 4)}
    if suite == "embedding":
        max_len = 4 if n == 3 else 3
        return {"checks": sum(comb(n, 2) ** k for k in range(max_len + 1)), "maxLen": max_len}
    if suite == "conjugated-split":
        return {"checks": n - 1}
    return {}


def wheel_map_json() -> str:
    """A puncture inside the triangle of three others, joined to all three.

    Every face is a triangle, so no face sees all four punctures and the
    semi-frame condition must reject it.
    """
    return json.dumps({
        "vertices": [{"id": f"p{i}", "kind": "puncture"} for i in (1, 2, 3, 4)],
        "edges": [{"id": e, "ends": ends} for e, ends in (
            ("a", ["p1", "p2"]), ("b", ["p2", "p3"]), ("c", ["p3", "p1"]),
            ("d", ["p4", "p1"]), ("e", ["p4", "p2"]), ("f", ["p4", "p3"]))],
        "rotations": {"p1": ["a:0", "d:1", "c:1"], "p2": ["b:0", "e:1", "a:1"],
                      "p3": ["c:0", "f:1", "b:1"], "p4": ["f:0", "d:0", "e:0"]},
        "mode": "free",
    })
