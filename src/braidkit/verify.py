"""Named verification suites over the toolkit's core claims.

Each suite returns a plain dict (JSON-serializable, deterministic for a
fixed seed) with at least ``suite``, ``strands``, ``ok``, ``checks`` and
``failures``.  Search-backed suites also set ``inconclusive`` when a cap
fired before the question was settled, so callers can distinguish a
definite failure from an exhausted budget.
"""

from __future__ import annotations

import itertools
import random

from .bands import (
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
from .hurwitz import Move, apply_move, apply_sequence, find_path, tuple_key
from .normalform import canonical_key, equal
from .rewriting import (
    RelationStep,
    apply_step,
    equivalence_class,
    hurwitz_path_positive,
    step_to_move,
)
from .words import (
    BraidWord,
    compose,
    compose_all,
    conjugate,
    delta_word,
    exponent_sum,
    generator,
    inverse,
)

DEFAULT_SEED = 1729

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
    out = {
        "suite": suite,
        "strands": n,
        "checks": checks,
        "failures": failures,
        "ok": not failures,
        "inconclusive": inconclusive,
    }
    out.update(extra)
    return out


def suite_relations(n: int) -> dict:
    rep = band_relations_hold(n)
    checks = 2 * rep.chain_triples + rep.commuting_pairs
    return _report("relations", n, checks, list(rep.failures),
                   chainTriples=rep.chain_triples,
                   commutingPairs=rep.commuting_pairs)


def suite_centrality(n: int) -> dict:
    failures: list[str] = []
    checks = 0
    d2 = delta_squared_word(n)
    checks += 1
    if not is_central(d2):
        failures.append("full twist fails centrality")
    checks += 1
    if exponent_sum(d2) != n * (n - 1):
        failures.append(f"full twist exponent sum {exponent_sum(d2)} != {n * (n - 1)}")
    # Conjugation by the half twist reverses the generator order.
    delta = delta_word(n)
    for i in range(1, n):
        checks += 1
        if not equal(conjugate(generator(n, i), delta), generator(n, n - i)):
            failures.append(f"half-twist conjugation fails on generator {i}")
    checks += 1
    if standard_factorization(n).product_key != canonical_key(d2):
        failures.append("standard factorization product differs from the full twist")
    for b in (generator(n, 1), compose(generator(n, 1), generator(n, n - 1))):
        checks += 1
        if conjugated_factorization(n, b).product_key != canonical_key(d2):
            failures.append(f"conjugated factorization by '{b}' has wrong product")
    return _report("centrality", n, checks, failures)


def suite_chain_rules(n: int) -> dict:
    """Every relation step is realized, on expansions, by its compiled move."""
    failures: list[str] = []
    checks = 0
    rules = ("A->B", "B->C", "C->A", "B->A", "C->B", "A->C")
    for t, s, r in itertools.combinations(range(n, 0, -1), 3):
        words = {form: BandWord(n, pair) for form, pair in chain_forms(n, t, s, r).items()}
        # The conjugation identity behind the move table.
        checks += 1
        lhs = conjugate(expand(BandGenerator(n, s, r)), inverse(expand(BandGenerator(n, t, s))))
        if not equal(lhs, expand(BandGenerator(n, t, r))):
            failures.append(f"conjugation identity fails at triple ({t},{s},{r})")
        for rule in rules:
            step = RelationStep(1, rule)
            src = words[rule[0]]
            checks += 1
            rewritten = apply_step(src, step)
            if rewritten != words[rule[-1]]:
                failures.append(f"step {rule} at ({t},{s},{r}) rewrites wrongly")
                continue
            moved = apply_move(band_factorization(src), step_to_move(step))
            if moved.factor_keys != band_factorization(rewritten).factor_keys:
                failures.append(f"move for {rule} at ({t},{s},{r}) does not realize the step")
    pairs = 0
    for x, y in itertools.permutations(all_generators(n), 2):
        if classify_pair(x, y) is not PairClass.COMMUTING:
            continue
        pairs += 1
        checks += 1
        src = BandWord(n, (x, y))
        step = RelationStep(1, "Comm")
        rewritten = apply_step(src, step)
        moved = apply_move(band_factorization(src), step_to_move(step))
        if moved.factor_keys != band_factorization(rewritten).factor_keys:
            failures.append(f"commuting move fails on ({x},{y})")
    return _report("chain-rules", n, checks, failures, commutingPairs=pairs)


def _positive_corpus(n: int, max_len: int) -> list[BandWord]:
    gens = all_generators(n)
    corpus: list[BandWord] = []
    for length in range(max_len + 1):
        for combo in itertools.product(gens, repeat=length):
            corpus.append(BandWord(n, combo))
    return corpus


def suite_embedding(n: int, max_len: int | None = None) -> dict:
    """Same rewrite component iff equal products, over a full corpus.

    Relation steps preserve length, so the corpus (all positive band
    words up to a length bound) is closed under single rewrites and its
    rewrite-graph components are exactly the relation closures.  Each
    word is labelled with the closure of the first unlabelled word.
    """
    if max_len is None:
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
    """Every member of the full twist's rewrite closure compiles back."""
    target = _standard_band_word(n)
    closure = equivalence_class(target, size_cap=size_cap)
    if closure.truncated:
        return _report("twist-closure", n, 0, ["closure truncated before completing"],
                       inconclusive=True, size=len(closure.words), truncated=True)
    members = list(closure.words)
    sampled = False
    if len(members) > 500:
        rng = random.Random(seed)
        members = rng.sample(members, 100)
        sampled = True
    failures: list[str] = []
    for w in members:
        res = hurwitz_path_positive(w, target, size_cap=size_cap)
        if res.status != "found":
            failures.append(f"no compiled path from '{w}'")
    return _report("twist-closure", n, len(members), failures,
                   size=len(closure.words), truncated=False, sampled=sampled)


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
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randint(1, n - 1), rng.choice([-1, 1])))
    return BraidWord(n, tuple(letters))


def _random_factorization(rng: random.Random, n: int, size: int, max_len: int) -> Factorization:
    return Factorization(n, tuple(_random_word(rng, n, max_len) for _ in range(size)))


def suite_action_axioms(n: int, seed: int = DEFAULT_SEED, trials: int = 200) -> dict:
    failures: list[str] = []
    checks = 0
    idkey = action_key(BraidWord(n, ()))
    for i in range(1, n - 1):
        checks += 1
        u = compose_all(n, [generator(n, i), generator(n, i + 1), generator(n, i)])
        v = compose_all(n, [generator(n, i + 1), generator(n, i), generator(n, i + 1)])
        if action_key(u) != action_key(v):
            failures.append(f"action breaks the braid relation at {i}")
    for i, j in itertools.combinations(range(1, n), 2):
        if j - i < 2:
            continue
        checks += 1
        if action_key(compose(generator(n, i), generator(n, j))) != action_key(
            compose(generator(n, j), generator(n, i))
        ):
            failures.append(f"action breaks far commutation at ({i},{j})")
    for i in range(1, n):
        checks += 1
        if action_key(compose(generator(n, i), generator(n, i, -1))) != idkey:
            failures.append(f"action breaks cancellation at {i}")

    rng = random.Random(seed)
    for _ in range(trials):
        w = _random_word(rng, n, 8)
        checks += 1
        if action_key(compose(w, inverse(w))) != idkey:
            failures.append(f"action of '{w}' does not invert")

    # Hurwitz move axioms on random factorizations.
    for _ in range(trials):
        f = _random_factorization(rng, n, rng.randint(2, 5), 4)
        k = rng.randint(1, len(f) - 1)
        checks += 1
        again = apply_move(apply_move(f, Move(k, 1)), Move(k, -1))
        if tuple_key(again) != tuple_key(f):
            failures.append("a move composed with its inverse is not the identity")
        if len(f) >= 3:
            k = rng.randint(1, len(f) - 2)
            checks += 1
            lhs = apply_sequence(f, [Move(k, 1), Move(k + 1, 1), Move(k, 1)])
            rhs = apply_sequence(f, [Move(k + 1, 1), Move(k, 1), Move(k + 1, 1)])
            if tuple_key(lhs) != tuple_key(rhs):
                failures.append("moves break their own braid relation")
        if len(f) >= 4:
            checks += 1
            j = rng.randint(3, len(f) - 1)
            lhs = apply_sequence(f, [Move(1, 1), Move(j, 1)])
            rhs = apply_sequence(f, [Move(j, 1), Move(1, 1)])
            if tuple_key(lhs) != tuple_key(rhs):
                failures.append("far moves fail to commute")
        checks += 1
        seq = [Move(rng.randint(1, len(f) - 1), rng.choice([-1, 1])) for _ in range(10)]
        if apply_sequence(f, seq).product_key != f.product_key:
            failures.append("a random move sequence changed the product")
    return _report("action-axioms", n, checks, sorted(set(failures)), seed=seed, trials=trials)


def _given(**caps) -> dict:
    """The caps a caller set; one left as None keeps the suite's default."""
    return {k: v for k, v in caps.items() if v is not None}


def run_suite(
    name: str,
    n: int = 3,
    seed: int = DEFAULT_SEED,
    depth_cap: int | None = None,
    size_cap: int | None = None,
) -> dict:
    """Run one named suite; a cap left as None takes the suite's default."""
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
    if name == "action-axioms":
        return suite_action_axioms(n, seed=seed)
    raise ValueError(f"unknown suite {name!r}")
