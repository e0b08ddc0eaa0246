"""K4,4 patterns in linear orthogonal pairs over small prime fields."""

import itertools

from k33free.core import is_orthogonal, linear_square
from k33free.pattern import find_induced_ktt

GF5_BOLD = frozenset(
    {(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (4, 4)}
)


def slope_pairs(p):
    for s, t in itertools.combinations(range(1, p), 2):
        yield linear_square(p, 1, s), linear_square(p, 1, t)


def test_gf5_displayed_pair_has_k44():
    pair = (linear_square(5, 2, 1), linear_square(5, 1, 2))
    assert is_orthogonal(*pair)
    wits = find_induced_ktt(pair, 4)
    assert wits
    assert GF5_BOLD in {frozenset().union(*w) for w in wits}


def test_gf5_every_linear_pair_has_k44():
    for pair in slope_pairs(5):
        assert find_induced_ktt(pair, 4)
