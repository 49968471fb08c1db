"""Named verification suites over the toolkit's core claims.

Each suite returns a plain dict (JSON-serializable, deterministic for a
fixed seed) with at least ``suite``, ``strands``, ``ok``, ``checks`` and
``failures``.  Search-backed suites also set ``inconclusive`` when a cap
fired before the question was settled, so callers can distinguish a
definite failure from an exhausted budget.  `run_suite` runs one suite
by name; `check_suite_names`, which it calls, is the one place that
rejects an unknown name.
"""

from __future__ import annotations

import itertools
import math
import random

from .bands import (
    BandGenerator,
    BandWord,
    Factorization,
    all_generators,
    band_factorization,
    chain_forms,
    classify_pair,
    conjugated_factorization,
    delta_squared_word,
    expand,
    expand_word,
    is_central,
    standard_band_word,
    standard_factorization,
    PairClass,
)
from .freegroup import act
from .hurwitz import Move, _move_letters, apply_move, apply_sequence, check_replay, find_path, tuple_key
from .normalform import canonical_key, equal
from .rewriting import apply_step, closure_tree, equivalence_class, unpack
from .words import (
    BraidWord,
    InputError,
    _check_strands,
    _inverse,
    _reduce,
    compose,
    conjugate,
    delta_word,
    exponent_sum,
    format_word,
    generator,
    inverse,
)

DEFAULT_SEED = 1729
ACTION_TRIALS = 200  # random words, then random factorizations, per action-axioms run

SUITE_NAMES = (
    "relations",
    "centrality",
    "chain-rules",
    "embedding",
    "twist-closure",
    "conjugated-split",
    "action-axioms",
)

# The options each suite takes besides the strand count; the others take none.
_OPTIONS = {
    "twist-closure": ("seed", "size_cap"),
    "conjugated-split": ("depth_cap", "size_cap"),
    "action-axioms": ("seed",),
}


def _report(suite: str, n: int, checks: int, failures: list[str],
            inconclusive: bool = False, **extra) -> dict:
    return {"suite": suite, "strands": n, "checks": checks, "failures": failures,
            "ok": not failures, "inconclusive": inconclusive, **extra}


def _tally(checks) -> tuple[int, list[str]]:
    """The number of (passed, failure text) checks, and the texts of those that failed."""
    results = list(checks)
    return len(results), [text for passed, text in results if not passed]


def _commuting(pairs) -> list:
    return [(x, y) for x, y in pairs if classify_pair(x, y) is PairClass.COMMUTING]


def suite_relations(n: int) -> dict:
    """Every chain-relation and commuting-relation instance holds on expansions."""
    commuting = _commuting(itertools.combinations(all_generators(n), 2))
    return _report("relations", n, *_tally(_relation_checks(n, commuting)),
                   chainTriples=math.comb(n, 3), commutingPairs=len(commuting))


def _relation_checks(n: int, commuting):
    # Both equalities of each triple t > s > r, the triples in ascending order.
    for t, s, r in sorted(itertools.combinations(range(n, 0, -1), 3)):
        forms = {form: compose(expand(x), expand(y))
                 for form, (x, y) in chain_forms(n, t, s, r).items()}
        for lhs, rhs in (("A", "B"), ("B", "C")):
            yield equal(forms[lhs], forms[rhs]), f"chain {t},{s},{r}: {lhs} != {rhs}"
    for x, y in commuting:
        xw, yw = expand(x), expand(y)
        yield equal(compose(xw, yw), compose(yw, xw)), f"commuting {x} {y}: products differ"


def suite_centrality(n: int) -> dict:
    return _report("centrality", n, *_tally(_centrality_checks(n)))


def _centrality_checks(n: int):
    d2 = delta_squared_word(n)
    yield is_central(d2), "full twist fails centrality"
    yield (exponent_sum(d2) == n * (n - 1),
           f"full twist exponent sum {exponent_sum(d2)} != {n * (n - 1)}")
    # Conjugation by the half twist reverses the generator order.
    delta = delta_word(n)
    for i in range(1, n):
        yield (equal(conjugate(generator(n, i), delta), generator(n, n - i)),
               f"half-twist conjugation fails on generator {i}")
    yield (standard_factorization(n).product_key == canonical_key(d2),
           "standard factorization product differs from the full twist")
    for b in (generator(n, 1), compose(generator(n, 1), generator(n, n - 1))):
        yield (conjugated_factorization(n, b).product_key == canonical_key(d2),
               f"conjugated factorization by '{b}' has wrong product")


def suite_chain_rules(n: int) -> dict:
    """Every relation step is realized, on expansions, by the move it names."""
    commuting = _commuting(itertools.permutations(all_generators(n), 2))
    return _report("chain-rules", n, *_tally(_chain_rule_checks(n, commuting)),
                   commutingPairs=len(commuting))


def _realizes(src: BandWord, step: tuple[int, int], rewritten: BandWord) -> bool:
    """Whether the move of the (position, direction) step takes src's expansion to rewritten's."""
    moved = apply_move(band_factorization(src), Move(*step))
    return moved.factor_keys == band_factorization(rewritten).factor_keys


def _chain_rule_checks(n: int, commuting):
    # R^1 walks the forms A -> B -> C -> A on expansions, R^-1 walks them back.
    rules = (("A->B", 1), ("B->C", 1), ("C->A", 1), ("B->A", -1), ("C->B", -1), ("A->C", -1))
    for t, s, r in itertools.combinations(range(n, 0, -1), 3):
        words = {form: BandWord(n, pair) for form, pair in chain_forms(n, t, s, r).items()}
        # The conjugation identity behind the forward walk A -> B -> C -> A.
        lhs = conjugate(expand(BandGenerator(n, s, r)), inverse(expand(BandGenerator(n, t, s))))
        yield (equal(lhs, expand(BandGenerator(n, t, r))),
               f"conjugation identity fails at triple ({t},{s},{r})")
        for rule, direction in rules:
            step = (1, direction)
            src, want = words[rule[0]], words[rule[-1]]
            if apply_step(src, step) != want:
                yield False, f"step {rule} at ({t},{s},{r}) rewrites wrongly"
            else:
                yield (_realizes(src, step, want),
                       f"move for {rule} at ({t},{s},{r}) does not realize the step")
    step = (1, 1)
    for x, y in commuting:
        src = BandWord(n, (x, y))
        yield _realizes(src, step, apply_step(src, step)), f"commuting move fails on ({x},{y})"


def _positive_corpus(n: int, max_len: int) -> list[BandWord]:
    gens = all_generators(n)
    return [BandWord(n, combo)
            for length in range(max_len + 1) for combo in itertools.product(gens, repeat=length)]


def suite_embedding(n: int) -> dict:
    """Same rewrite component iff equal products, over a full corpus.

    Relation steps preserve length, so the corpus (all positive band
    words up to length 4 at 3 strands, 3 otherwise) is closed under
    single rewrites and its rewrite-graph components are exactly the
    relation closures.  Each word is labelled with the closure of the
    first unlabelled word.
    """
    max_len = 4 if n == 3 else 3
    corpus = _positive_corpus(n, max_len)
    label: dict[BandWord, int] = {}
    firsts: list[BandWord] = []
    for w in corpus:
        if w not in label:
            for v in equivalence_class(w, size_cap=len(corpus)).words:
                label[v] = len(firsts)
            firsts.append(w)

    failures: list[str] = []
    product_of: dict[int, str] = {}
    class_of: dict[str, int] = {}
    for w in corpus:
        c, key = label[w], canonical_key(expand_word(w))
        if product_of.setdefault(c, key) != key:
            failures.append(f"component of '{firsts[c]}' mixes distinct products")
        if class_of.setdefault(key, c) != c:
            failures.append(f"equal products split across components near '{w}'")
    return _report("embedding", n, len(corpus), sorted(set(failures)),
                   maxLen=max_len, classes=len(firsts))


def suite_twist_closure(n: int, size_cap: int = 200000, seed: int = DEFAULT_SEED) -> dict:
    """Every member of the full twist's rewrite closure is replayed from its path's moves.

    Paths run from the target along one closure tree's parent links (moves
    are invertible, so that proves the same).  Members replay in breadth-first
    order, each by one move from its certified parent, so each tree edge is
    replayed once; a sampled member without one replays its whole `tree.path`.
    """
    target = standard_band_word(n)
    tree = closure_tree(target, size_cap)
    if tree.capped:
        return _report("twist-closure", n, 0, ["closure truncated before completing"],
                       inconclusive=True, size=len(tree.parents), truncated=True)
    sampled = len(tree.parents) > 500
    members = set(random.Random(seed).sample(sorted(tree.parents), 100)) if sampled else tree.parents
    certified = {}
    for member, (parent, step) in tree.parents.items():
        if member in members:
            f, steps = ((certified[parent], [step]) if parent in certified
                        else (band_factorization(target), tree.path(member)))
            got = apply_sequence(f, (Move(*step) for step in steps))
            want = band_factorization(unpack(n, member))
            certified[member] = check_replay(got, want, "compiled move sequence")
    return _report("twist-closure", n, len(members), [],
                   size=len(tree.parents), truncated=False, sampled=sampled)


def suite_conjugated_split(n: int, depth_cap: int = 8, size_cap: int = 5000) -> dict:
    """The standard and conjugated full-twist factorizations are connected."""
    failures: list[str] = []
    instances = []
    capped = failed = False
    std = standard_factorization(n)
    for i in range(1, n):
        b = generator(n, i)
        res = find_path(std, conjugated_factorization(n, b), depth_cap, size_cap)
        instances.append({
            "conjugator": str(b),
            "status": res.status,
            "pathLength": None if res.moves is None else len(res.moves),
            "visited": res.visited,
        })
        if res.status == "found":
            continue
        if res.status == "not_found" and res.truncated:
            capped = True
            failures.append(f"search capped before reaching the conjugate by '{b}'")
        else:
            failed = True
            failures.append(f"no path to the conjugate by '{b}' (status {res.status})")
    return _report("conjugated-split", n, n - 1, failures, inconclusive=capped and not failed,
                   depthCap=depth_cap, sizeCap=size_cap, instances=instances)


def _random_letters(rng: random.Random, n: int, max_len: int) -> tuple:
    length = rng.randint(0, max_len)
    return tuple((rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(length))


def suite_action_axioms(n: int, seed: int = DEFAULT_SEED) -> dict:
    """Seeded checks of the free-group action and of the Hurwitz move axioms.

    The moves act on the letter tuples of freely reduced factors through
    `hurwitz._move_letters`, the loop `apply_sequence` runs, and the
    checks compare those letters first.  Only where they differ are the
    factors wrapped in a `Factorization` for their canonical keys.  That
    is exact: the moves return freely reduced words, the Hurwitz action
    obeys the braid relations over the free group on the letters
    (Artin), and a free-group element has exactly one freely reduced
    word, so correct moves give equal letters, and equal letters have
    equal keys.  A move that spells a braid-equal but different word
    still passes, through the keys.
    """
    checks, failures = _tally(_action_checks(n, seed))
    return _report("action-axioms", n, checks, sorted(set(failures)),
                   seed=seed, trials=ACTION_TRIALS)


def _action_checks(n: int, seed: int):
    # Letters act on the coordinates of the trivial lamination (`freegroup`).
    trivial = (0, 1) * n
    for i in range(1, n - 1):
        yield (act(trivial, ((i, 1), (i + 1, 1), (i, 1)))
               == act(trivial, ((i + 1, 1), (i, 1), (i + 1, 1))),
               f"action breaks the braid relation at {i}")
    for i in range(1, n):
        for j in range(i + 2, n):
            yield (act(trivial, ((i, 1), (j, 1))) == act(trivial, ((j, 1), (i, 1))),
                   f"action breaks far commutation at ({i},{j})")
    # Nothing cancels these letters on the way; the action must do it.
    for i in range(1, n):
        yield act(trivial, ((i, 1), (i, -1))) == trivial, f"action breaks cancellation at {i}"

    rng = random.Random(seed)
    for _ in range(ACTION_TRIALS):
        w = _random_letters(rng, n, 8)
        yield (act(trivial, w + _reduce(_inverse(w))) == trivial,
               f"action of '{format_word(BraidWord(n, w))}' does not invert")

    # Hurwitz move axioms on random factorizations of up to 5 factors.
    moves = {(k, d): Move(k, d) for k in range(1, 5) for d in (1, -1)}
    for _ in range(ACTION_TRIALS):
        f = [_reduce(_random_letters(rng, n, 4)) for _ in range(rng.randint(2, 5))]
        k = rng.randint(1, len(f) - 1)
        again = _move_letters(f, [moves[k, 1], moves[k, -1]])
        yield (_same_factors(n, again, f),
               "a move composed with its inverse is not the identity")
        if len(f) >= 3:
            k = rng.randint(1, len(f) - 2)
            lhs = _move_letters(f, [moves[k, 1], moves[k + 1, 1], moves[k, 1]])
            rhs = _move_letters(f, [moves[k + 1, 1], moves[k, 1], moves[k + 1, 1]])
            yield _same_factors(n, lhs, rhs), "moves break their own braid relation"
        if len(f) >= 4:
            j = rng.randint(3, len(f) - 1)
            lhs = _move_letters(f, [moves[1, 1], moves[j, 1]])
            rhs = _move_letters(f, [moves[j, 1], moves[1, 1]])
            yield _same_factors(n, lhs, rhs), "far moves fail to commute"
        seq = [moves[rng.randint(1, len(f) - 1), rng.choice((-1, 1))] for _ in range(10)]
        moved = _move_letters(f, seq)
        yield (_reduce(itertools.chain(*moved)) == _reduce(itertools.chain(*f))
               or _factorization(n, moved).product_key == _factorization(n, f).product_key,
               "a random move sequence changed the product")


def _factorization(n: int, factors: list) -> Factorization:
    return Factorization(n, tuple(BraidWord(n, letters) for letters in factors))


def _same_factors(n: int, f: list, g: list) -> bool:
    """Whether factor letters f and g agree position by position: as words, else as braids."""
    return f == g or tuple_key(_factorization(n, f)) == tuple_key(_factorization(n, g))


def check_suite_names(names) -> None:
    """Raise InputError for the first of the names that is no suite."""
    for name in names:
        if name not in SUITE_NAMES:
            raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")


def run_suite(
    name: str,
    n: int = 3,
    seed: int = DEFAULT_SEED,
    depth_cap: int | None = None,
    size_cap: int | None = None,
) -> dict:
    """Run one named suite; an option left as None takes the suite's default.

    An unknown name is rejected before the strand count is checked.  The
    suite function is looked up by name at call time, as `cli.main` finds
    its handlers, so a suite replaced later still runs.
    """
    check_suite_names((name,))
    _check_strands(n)
    given = {"seed": seed, "depth_cap": depth_cap, "size_cap": size_cap}
    options = {k: given[k] for k in _OPTIONS.get(name, ()) if given[k] is not None}
    return globals()["suite_" + name.replace("-", "_")](n, **options)
