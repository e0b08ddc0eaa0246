"""Witness search against graph-level oracles and invariance laws."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_rectangles, cell_graph_ktt_parts, random_rectangle
from k33free import cli, fixtures
from k33free.combine import SwitchingMatrix, switched_combination
from k33free.core import (
    LatinError,
    LatinRectangle,
    Paratopism,
    apply,
    group_table,
    linear_square,
    serialize,
    shape_preserving_conjs,
    supported_group_specs,
)
from k33free.pattern import _scan, find_induced_ktt, find_k33, is_k33_free


def parts_of(s):
    return {frozenset(w.parts) for w in find_k33(s)}


def brute_force_labelled(s):
    """(rows, cols, letters) of every witness, least of its six labellings.

    Tries every ordered row triple and column triple against the role
    pattern (r1,c2)=(r2,c1)=l3, (r2,c3)=(r3,c2)=l1, (r3,c1)=(r1,c3)=l2 and
    keeps, per witness, the least of the six simultaneous S3 relabellings.
    """
    g = s.rows
    out = set()
    for rows in itertools.permutations(range(s.m), 3):
        r1, r2, r3 = rows
        for c1, c2 in itertools.permutations(range(s.n), 2):
            l3 = g[r1][c2]
            if g[r2][c1] != l3:
                continue
            for c3 in range(s.n):
                if c3 in (c1, c2):
                    continue
                l1, l2 = g[r2][c3], g[r3][c1]
                if g[r3][c2] != l1 or g[r1][c3] != l2:
                    continue
                cols, letters = (c1, c2, c3), (l1, l2, l3)
                out.add(min(
                    tuple(tuple(t[i] for i in p) for t in (rows, cols, letters))
                    for p in itertools.permutations(range(3))
                ))
    return out


def assert_labelled_once(s):
    """find_k33 gives the brute-force labelling, each witness reported once."""
    found = find_k33(s)
    assert {(w.rows, w.cols, w.letters) for w in found} == brute_force_labelled(s)
    assert len(list(_scan(s))) == len(found)


def test_exhaustive_3x3_matches_graph_oracle():
    for s in all_rectangles(3, 3):
        assert parts_of(s) == cell_graph_ktt_parts([s], 3)


def test_exhaustive_3x4_matches_graph_oracle():
    for s in all_rectangles(3, 4):
        assert parts_of(s) == cell_graph_ktt_parts([s], 3)


@pytest.mark.parametrize("shape", [(3, 3), (3, 4)])
def test_exhaustive_labelling_matches_brute_force(shape):
    for s in all_rectangles(*shape):
        assert_labelled_once(s)


@given(st.integers(3, 6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_random_labelling_matches_brute_force(n, hyp_rng):
    rng = random.Random(hyp_rng.getrandbits(32))
    assert_labelled_once(random_rectangle(rng, rng.randint(1, n), n))


@pytest.mark.parametrize("fig", ["fig2", "fig5"])
def test_zero_combination_labelling_matches_brute_force(fig):
    a0, a1 = fixtures.load(f"{fig}_a0"), fixtures.load(f"{fig}_a1")
    zero = switched_combination(a0, a1, SwitchingMatrix.zeros(a0.n))
    assert_labelled_once(zero)


@pytest.mark.parametrize("n", range(1, 9))
def test_labelling_matches_brute_force_at_every_shape(n):
    """Every m <= n, including m <= 2, where there is no row triple."""
    rng = random.Random(n)
    for m in range(1, n + 1):
        for _ in range(5):
            s = random_rectangle(rng, m, n)
            assert_labelled_once(s)
            assert is_k33_free(s) == (not find_k33(s))
            if m <= 2:
                assert not find_k33(s)


def zero_combination(pair):
    return switched_combination(*pair, SwitchingMatrix.zeros(pair[0].n))


def seeded_linear_pairs():
    """The orthogonal linear pairs for p = 11, 13, 17 that perfbench's
    doubling catalog draws with seed 1."""
    rng = random.Random(1)
    pairs = {}
    for p in (11, 13, 17):
        s, t = rng.sample(range(1, p), 2)
        pairs[p] = (linear_square(p, 1, s), linear_square(p, 1, t))
    return pairs


@pytest.mark.parametrize("p, count", [(11, 7_260), (13, 14_872), (17, 46_240)])
def test_witness_count_of_linear_zero_combinations(p, count):
    zero = zero_combination(seeded_linear_pairs()[p])
    found = find_k33(zero)
    assert len(found) == count
    assert sum(1 for _ in _scan(zero)) == count
    assert not is_k33_free(zero)


def test_witness_count_of_fig5_zero_combination():
    zero = zero_combination((fixtures.load("fig5_a0"), fixtures.load("fig5_a1")))
    assert len(find_k33(zero)) == 512
    assert not is_k33_free(zero)


def test_order_above_256_is_an_input_error(tmp_path, capsys):
    n = 257
    s = LatinRectangle(tuple(tuple((r + c) % n for c in range(n)) for r in range(3)))
    with pytest.raises(LatinError, match="at most 256 columns"):
        find_k33(s)
    with pytest.raises(LatinError, match="at most 256 columns"):
        is_k33_free(s)
    path = tmp_path / "wide.txt"
    path.write_text(serialize(s))
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_random_rectangles_match_graph_oracle():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(2, 5)
        n = rng.randint(max(m, 3), 5)
        s = random_rectangle(rng, m, n)
        assert parts_of(s) == cell_graph_ktt_parts([s], 3)


def test_witness_structure():
    z3 = group_table("Z3")
    wits = find_k33(z3)
    assert wits and not is_k33_free(z3)
    for w in wits:
        plus, minus = w.parts
        assert len(plus) == len(minus) == 3
        assert len(set(w.cells)) == 6
        # the letters really sit where the pattern claims
        for r, c in w.cells:
            assert z3.rows[r][c] in w.letters


def test_group_tables_are_never_free():
    for spec in supported_group_specs(12):
        s = group_table(spec)
        if s.n >= 3:
            assert not is_k33_free(s), spec


def test_witness_count_is_paratopism_invariant():
    rng = random.Random(11)
    for _ in range(20):
        s = random_rectangle(rng, 4, 5)
        k = len(find_k33(s))
        sigma = rng.choice(shape_preserving_conjs(4, 5))
        p = Paratopism(
            tuple(rng.sample(range(4), 4)),
            tuple(rng.sample(range(5), 5)),
            tuple(rng.sample(range(5), 5)),
            sigma,
        )
        assert len(find_k33(apply(p, s))) == k


def test_find_induced_ktt_t3_agrees_with_find_k33():
    rng = random.Random(13)
    for _ in range(40):
        s = random_rectangle(rng, rng.randint(3, 5), 5)
        assert {frozenset(p) for p in find_induced_ktt((s,), 3)} == parts_of(s)


def test_find_induced_ktt_on_orthogonal_pair():
    pair = (linear_square(5, 2, 1), linear_square(5, 1, 2))
    wits = find_induced_ktt(pair, 4)
    assert wits
    for pairset in wits:
        a, b = tuple(pairset)
        assert len(a) == len(b) == 4


@pytest.mark.parametrize("t", [2, 3, 4])
def test_find_induced_ktt_matches_the_graph_definition_on_linear_pairs(t):
    for s, u in itertools.combinations(range(1, 5), 2):
        pair = (linear_square(5, 1, s), linear_square(5, 1, u))
        assert find_induced_ktt(pair, t) == cell_graph_ktt_parts(pair, t), (s, u)


def test_find_induced_ktt_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="not pairwise orthogonal"):
        find_induced_ktt((group_table("Z4"), group_table("Z4")), 3)


@given(st.integers(3, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_free_iff_no_witness(n, hyp_rng):
    rng = random.Random(hyp_rng.getrandbits(32))
    s = random_rectangle(rng, rng.randint(2, n), n)
    assert is_k33_free(s) == (not find_k33(s))
