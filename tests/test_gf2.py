"""GF(2) solver against exhaustive assignment enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import support_mask
from k33free.gf2 import Gf2System, _eliminate, enumerate_solutions, solve


def brute_solutions(sys: Gf2System) -> set[tuple[int, ...]]:
    return {
        vec
        for vec in itertools.product((0, 1), repeat=sys.n_vars)
        if sys.check(vec)
    }


def random_system(rng, n_vars, n_rows):
    sys = Gf2System(n_vars=n_vars)
    for _ in range(n_rows):
        support = [v for v in range(n_vars) if rng.random() < 0.4]
        sys.add_word(support_mask(support), rng.randint(0, 1))
    return sys


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 10))
@settings(max_examples=80, deadline=None)
def test_solver_matches_brute_force(seed, n_vars, n_rows):
    rng = random.Random(seed)
    sys = random_system(rng, n_vars, n_rows)
    space = solve(sys)
    expected = brute_solutions(sys)
    if not expected:
        assert space.particular is None and space.count == 0
    else:
        assert space.particular in expected
        assert space.count == len(expected) == 2**space.dimension
        got = set(enumerate_solutions(space, limit=1 << n_vars))
        assert got == expected


def test_empty_system():
    space = solve(Gf2System(n_vars=3))
    assert space.consistent and space.dimension == 3 and space.count == 8


def test_inconsistent_system():
    sys = Gf2System(n_vars=2)
    sys.add_word(support_mask([0, 1]), 0)
    sys.add_word(support_mask([0, 1]), 1)
    space = solve(sys)
    assert not space.consistent
    with pytest.raises(ValueError):
        list(enumerate_solutions(space, limit=10))


def test_unique_solution():
    sys = Gf2System(n_vars=2)
    sys.add_word(support_mask([0]), 1)
    sys.add_word(support_mask([0, 1]), 0)
    space = solve(sys)
    assert space.dimension == 0 and space.particular == (1, 1)


def test_enumerate_respects_limit():
    space = solve(Gf2System(n_vars=5))
    assert len(list(enumerate_solutions(space, limit=7))) == 7


def test_add_word_validation():
    sys = Gf2System(n_vars=2)
    for word in (-1, 0b100):
        with pytest.raises(ValueError):
            sys.add_word(word, 0)
    with pytest.raises(ValueError):
        sys.add_word(0b11, 2)
    assert sys.rows == []


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (2 << n) - 1), max_size=12))))
@settings(max_examples=200, deadline=None)
def test_elimination_stops_at_the_first_unsolvable_prefix(case):
    # words over n variables with the rhs at bit n; 0 is the redundant 0 = 0
    n_vars, words = case
    read = []

    def stream():
        for word in words:
            read.append(word)
            yield word

    _, _, contradiction = _eliminate(stream(), n_vars)
    unsolvable = [k for k in range(1, len(words) + 1)
                  if not brute_solutions(Gf2System(n_vars, words[:k]))]
    if unsolvable:
        assert contradiction == unsolvable[0] - 1
        assert read == words[:unsolvable[0]]
    else:
        assert contradiction is None and read == words
