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
import random

from .bands import (
    BandError,
    BandGenerator,
    BandWord,
    Factorization,
    all_generators,
    band_factorization,
    band_relations_hold,
    chain_forms,
    classify_pair,
    conjugated_factorization,
    delta_squared_word,
    expand,
    expand_word,
    is_central,
    standard_factorization,
    PairClass,
)
from .freegroup import action_key
from .hurwitz import Move, apply_move, apply_sequence, check_replay, find_path, tuple_key
from .normalform import canonical_key, equal
from .rewriting import (
    RULES,
    RelationStep,
    apply_step,
    closure_tree,
    equivalence_class,
    step_to_move,
    unpack,
)
from .words import (
    BraidWord,
    _check_strands,
    compose,
    compose_all,
    conjugate,
    delta_word,
    exponent_sum,
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


def _report(suite: str, n: int, checks: int, failures: list[str],
            inconclusive: bool = False, **extra) -> dict:
    return {"suite": suite, "strands": n, "checks": checks, "failures": failures,
            "ok": not failures, "inconclusive": inconclusive, **extra}


def _tally(checks) -> tuple[int, list[str]]:
    """The number of (passed, failure text) checks, and the texts of those that failed."""
    results = list(checks)
    return len(results), [text for passed, text in results if not passed]


def suite_relations(n: int) -> dict:
    rep = band_relations_hold(n)
    checks = 2 * rep.chain_triples + rep.commuting_pairs
    return _report("relations", n, checks, list(rep.failures),
                   chainTriples=rep.chain_triples,
                   commutingPairs=rep.commuting_pairs)


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
    """Every relation step is realized, on expansions, by its compiled move."""
    commuting = [(x, y) for x, y in itertools.permutations(all_generators(n), 2)
                 if classify_pair(x, y) is PairClass.COMMUTING]
    return _report("chain-rules", n, *_tally(_chain_rule_checks(n, commuting)),
                   commutingPairs=len(commuting))


def _realizes(src: BandWord, step: RelationStep, rewritten: BandWord) -> bool:
    """Whether the compiled move of step takes src's expansion to rewritten's."""
    moved = apply_move(band_factorization(src), step_to_move(step))
    return moved.factor_keys == band_factorization(rewritten).factor_keys


def _chain_rule_checks(n: int, commuting):
    rules = [rule for rule in RULES if rule != "Comm"]
    for t, s, r in itertools.combinations(range(n, 0, -1), 3):
        words = {form: BandWord(n, pair) for form, pair in chain_forms(n, t, s, r).items()}
        # The conjugation identity behind the move table.
        lhs = conjugate(expand(BandGenerator(n, s, r)), inverse(expand(BandGenerator(n, t, s))))
        yield (equal(lhs, expand(BandGenerator(n, t, r))),
               f"conjugation identity fails at triple ({t},{s},{r})")
        for rule in rules:
            step = RelationStep(1, rule)
            src, want = words[rule[0]], words[rule[-1]]
            if apply_step(src, step) != want:
                yield False, f"step {rule} at ({t},{s},{r}) rewrites wrongly"
            else:
                yield (_realizes(src, step, want),
                       f"move for {rule} at ({t},{s},{r}) does not realize the step")
    step = RelationStep(1, "Comm")
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


def _standard_band_word(n: int) -> BandWord:
    row = tuple(BandGenerator(n, i + 1, i) for i in range(1, n))
    return BandWord(n, row * n)


def suite_twist_closure(n: int, size_cap: int = 200000, seed: int = DEFAULT_SEED) -> dict:
    """Every member of the full twist's rewrite closure compiles back.

    Paths run from the target along one closure tree's parent links (moves
    are invertible, so that proves the same), and each tree edge is replayed once.
    """
    target = _standard_band_word(n)
    tree = closure_tree(target, size_cap)
    if tree.capped:
        return _report("twist-closure", n, 0, ["closure truncated before completing"],
                       inconclusive=True, size=len(tree.parents), truncated=True)
    members = sorted(tree.parents)
    sampled = len(members) > 500
    if sampled:
        members = random.Random(seed).sample(members, 100)
    replayed = {tree.root: band_factorization(target)}
    for member in members:
        word, path = member, []
        while word not in replayed:
            path.append(word)
            word = tree.parents[word][0]
        f = replayed[word]
        for word in reversed(path):
            f = replayed[word] = apply_move(f, step_to_move(RelationStep(*tree.parents[word][1])))
        want = band_factorization(unpack(n, member)).factor_keys
        check_replay(f.factor_keys, want, "compiled move sequence")
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


def _random_word(rng: random.Random, n: int, max_len: int) -> BraidWord:
    length = rng.randint(0, max_len)
    return BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice([-1, 1])) for _ in range(length)))


def _random_factorization(rng: random.Random, n: int, size: int, max_len: int) -> Factorization:
    return Factorization(n, tuple(_random_word(rng, n, max_len) for _ in range(size)))


def suite_action_axioms(n: int, seed: int = DEFAULT_SEED) -> dict:
    checks, failures = _tally(_action_checks(n, seed))
    return _report("action-axioms", n, checks, sorted(set(failures)),
                   seed=seed, trials=ACTION_TRIALS)


def _action_checks(n: int, seed: int):
    idkey = action_key(BraidWord(n, ()))
    for i in range(1, n - 1):
        u = compose_all(n, [generator(n, i), generator(n, i + 1), generator(n, i)])
        v = compose_all(n, [generator(n, i + 1), generator(n, i), generator(n, i + 1)])
        yield action_key(u) == action_key(v), f"action breaks the braid relation at {i}"
    for i in range(1, n):
        for j in range(i + 2, n):
            yield (action_key(compose(generator(n, i), generator(n, j)))
                   == action_key(compose(generator(n, j), generator(n, i))),
                   f"action breaks far commutation at ({i},{j})")
    # `compose` would cancel these products freely; the action must do it.
    for i in range(1, n):
        yield (action_key(BraidWord(n, ((i, 1), (i, -1)))) == idkey,
               f"action breaks cancellation at {i}")

    rng = random.Random(seed)
    for _ in range(ACTION_TRIALS):
        w = _random_word(rng, n, 8)
        yield (action_key(BraidWord(n, w.letters + inverse(w).letters)) == idkey,
               f"action of '{w}' does not invert")

    # Hurwitz move axioms on random factorizations.
    for _ in range(ACTION_TRIALS):
        f = _random_factorization(rng, n, rng.randint(2, 5), 4)
        k = rng.randint(1, len(f) - 1)
        again = apply_move(apply_move(f, Move(k, 1)), Move(k, -1))
        yield (tuple_key(again) == tuple_key(f),
               "a move composed with its inverse is not the identity")
        if len(f) >= 3:
            k = rng.randint(1, len(f) - 2)
            lhs = apply_sequence(f, [Move(k, 1), Move(k + 1, 1), Move(k, 1)])
            rhs = apply_sequence(f, [Move(k + 1, 1), Move(k, 1), Move(k + 1, 1)])
            yield tuple_key(lhs) == tuple_key(rhs), "moves break their own braid relation"
        if len(f) >= 4:
            j = rng.randint(3, len(f) - 1)
            lhs = apply_sequence(f, [Move(1, 1), Move(j, 1)])
            rhs = apply_sequence(f, [Move(j, 1), Move(1, 1)])
            yield tuple_key(lhs) == tuple_key(rhs), "far moves fail to commute"
        seq = [Move(rng.randint(1, len(f) - 1), rng.choice([-1, 1])) for _ in range(10)]
        yield (apply_sequence(f, seq).product_key == f.product_key,
               "a random move sequence changed the product")


def _given(**caps) -> dict:
    """The caps a caller set; one left as None keeps the callee's default."""
    return {k: v for k, v in caps.items() if v is not None}


def check_suite_names(names) -> None:
    """Raise BandError for the first of the names that is no suite."""
    for name in names:
        if name not in SUITE_NAMES:
            raise BandError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")


def run_suite(
    name: str,
    n: int = 3,
    seed: int = DEFAULT_SEED,
    depth_cap: int | None = None,
    size_cap: int | None = None,
) -> dict:
    """Run one named suite; a cap left as None takes the suite's default.

    An unknown name is rejected before the strand count is checked.
    """
    check_suite_names((name,))
    _check_strands(n)
    if name == "relations":
        return suite_relations(n)
    if name == "centrality":
        return suite_centrality(n)
    if name == "chain-rules":
        return suite_chain_rules(n)
    if name == "embedding":
        return suite_embedding(n)
    if name == "twist-closure":
        return suite_twist_closure(n, seed=seed, **_given(size_cap=size_cap))
    if name == "conjugated-split":
        return suite_conjugated_split(n, **_given(depth_cap=depth_cap, size_cap=size_cap))
    return suite_action_axioms(n, seed=seed)
