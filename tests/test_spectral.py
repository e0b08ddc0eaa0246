"""Eigenfunction and trade certificates."""

import random
from fractions import Fraction

import pytest

from conftest import random_rectangle
from k33free import fixtures, spectral
from k33free.core import LatinError, group_table
from k33free.pattern import find_k33, is_k33_free


def some_witness(s):
    return sorted(find_k33(s), key=lambda w: w.cells)[0]


def test_all_ones_is_degree_eigenfunction():
    z4 = group_table("Z4")
    f = spectral.CellFunction(
        z4, {(r, c): Fraction(1) for r in range(4) for c in range(4)}
    )
    assert spectral.check_eigenfunction(z4, f, 3 * (4 - 1))
    assert not spectral.check_eigenfunction(z4, f, -3)


def test_witness_eigenfunction_at_minus_three():
    for name in ("z3", "fig2_comb0"):
        s = fixtures.load(name)
        w = some_witness(s)
        f = spectral.witness_to_eigenfunction(s, w)
        assert len(f.support) == 6
        assert spectral.check_eigenfunction(s, f, -3)
        assert not spectral.check_eigenfunction(s, f, -2)
        neg = spectral.CellFunction(s, {k: -v for k, v in f.values.items()})
        assert spectral.check_eigenfunction(s, neg, -3)


def test_zero_function_rejected():
    z3 = fixtures.load("z3")
    with pytest.raises(LatinError):
        spectral.check_eigenfunction(z3, spectral.CellFunction(z3, {}), -3)


def test_witness_trade_is_volume_three():
    z3 = fixtures.load("z3")
    t = spectral.Trade(*some_witness(z3).parts)
    assert len(t.t_plus) == 3
    assert spectral.check_trade(z3, t)
    assert spectral.check_trade(z3, spectral.Trade(t.t_minus, t.t_plus))


def test_trade_validation():
    with pytest.raises(LatinError):
        spectral.Trade(frozenset({(0, 0)}), frozenset({(0, 0)}))
    with pytest.raises(LatinError):
        spectral.Trade(frozenset(), frozenset({(0, 0)}))


def test_single_cells_are_never_a_trade():
    z3 = fixtures.load("z3")
    t = spectral.Trade(frozenset({(0, 0)}), frozenset({(1, 0)}))
    assert not spectral.check_trade(z3, t)


def test_min_trade_volume_small_caps():
    z3 = fixtures.load("z3")
    assert spectral.min_trade_volume(z3, cap=2) is None
    assert spectral.min_trade_volume(z3, cap=3) == 3
    for cap in (10, 0, -1):
        with pytest.raises(LatinError):
            spectral.min_trade_volume(z3, cap=cap)


def test_free_square_has_no_volume_three_trade():
    assert spectral.min_trade_volume(fixtures.load("fig3_a"), cap=3) is None


def test_volume_three_iff_not_free_on_random_squares():
    # the theorem min_trade_volume relies on, checked by exhaustive search
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(3, 6)
        s = random_rectangle(rng, n, n)
        assert not spectral._has_trade_of_volume(s, 1)
        assert not spectral._has_trade_of_volume(s, 2)
        has3 = spectral._has_trade_of_volume(s, 3)
        assert has3 == (not is_k33_free(s))
        assert bool(find_k33(s)) == has3
