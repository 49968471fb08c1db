import itertools

import pytest

from braidkit import perms


def test_identity():
    assert perms.identity(4) == (0, 1, 2, 3)


def test_compose_applies_left_factor_first():
    p = perms.transposition(3, 0)
    q = perms.transposition(3, 1)
    # 0 -> 1 under p, then 1 -> 2 under q.
    assert perms.compose(p, q)[0] == 2
    assert perms.compose(q, p)[0] == 1


def test_inverse():
    for p in itertools.permutations(range(4)):
        assert perms.compose(p, perms.inverse(p)) == perms.identity(4)
        assert perms.compose(perms.inverse(p), p) == perms.identity(4)


def test_longest_element():
    w0 = perms.longest(4)
    assert w0 == (3, 2, 1, 0)
    assert perms.left_descents(w0) == {0, 1, 2}
    assert perms.compose(w0, w0) == perms.identity(4)


def test_descents():
    p = (1, 0, 2)
    assert perms.left_descents(p) == {0}
    assert perms.right_descents(p) == {0}
    q = (1, 2, 0)
    assert perms.left_descents(q) == {1}
    assert perms.right_descents(q) == {0}


@pytest.mark.parametrize("i", [0, 1, 2])
def test_swap_positions_prepends_a_letter(i):
    for p in itertools.permutations(range(4)):
        assert perms.swap_positions(p, i) == perms.compose(perms.transposition(4, i), p)
