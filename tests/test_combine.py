"""Switched combinations: reproduction, validity, parity/block laws."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import footprints, support_mask
from k33free import combine, fixtures
from k33free.combine import (
    BlockPattern,
    SwitchingMatrix,
    _first_contradiction,
    block_patterns,
    build_system,
    search_k33_free_combination,
    switched_combination,
)
from k33free.core import LatinError, group_table, is_orthogonal, linear_square, validate
from k33free.gf2 import Gf2System, solve
from k33free.pattern import find_k33


def random_switch(rng, n):
    return SwitchingMatrix(
        n, tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
    )


def test_zero_combination_reproduces_fixture():
    a0, a1 = fixtures.load("fig2_a0"), fixtures.load("fig2_a1")
    comb = switched_combination(a0, a1, SwitchingMatrix.zeros(4))
    assert comb.rows == fixtures.load("fig2_comb0").rows


def test_single_switch_reproduces_fixture():
    a0, a1 = fixtures.load("fig2_a0"), fixtures.load("fig2_a1")
    s = SwitchingMatrix(4, ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    assert switched_combination(a0, a1, s).rows == fixtures.load("fig2_comb1").rows


def test_fig5_switch_reproduces_fig6():
    a0, a1 = fixtures.load("fig5_a0"), fixtures.load("fig5_a1")
    sw = fixtures.load_switch("fig5_switch")
    assert switched_combination(a0, a1, sw).rows == fixtures.load("fig6").rows


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_combination_is_always_latin(hyp_rng):
    rng = random.Random(hyp_rng.getrandbits(32))
    a0, a1 = fixtures.load("fig2_a0"), fixtures.load("fig2_a1")
    validate(switched_combination(a0, a1, random_switch(rng, 4)).rows)


def test_order_mismatch_rejected():
    with pytest.raises(LatinError):
        switched_combination(
            fixtures.load("fig2_a0"), fixtures.load("fig5_a0"),
            SwitchingMatrix.zeros(4),
        )


def test_block_patterns_six_blocks_for_orthogonal():
    a0, a1 = fixtures.load("fig2_a0"), fixtures.load("fig2_a1")
    zero = switched_combination(a0, a1, SwitchingMatrix.zeros(4))
    pats = block_patterns((a0, a1), zero)
    assert pats and all(len(p.blocks) == 6 for p in pats)


def test_non_orthogonal_pair_has_three_block_witness():
    z4 = group_table("Z4")
    zero = switched_combination(z4, z4, SwitchingMatrix.zeros(4))
    pats = block_patterns((z4, z4), zero)
    assert any(len(p.blocks) == 3 for p in pats)


def test_parity_law_on_fig2_pair():
    a0, a1 = fixtures.load("fig2_a0"), fixtures.load("fig2_a1")
    zero = switched_combination(a0, a1, SwitchingMatrix.zeros(4))
    pats = block_patterns((a0, a1), zero)
    rng = random.Random(77)
    for _ in range(100):
        sw = random_switch(rng, 4)
        present = footprints(switched_combination(a0, a1, sw))
        for p in pats:
            parity = sum(sw.bits[i][j] for i, j in p.blocks) % 2
            assert (p.blocks in present) == (parity == 0)


def test_six_block_law_under_random_switching():
    a0, a1 = fixtures.load("fig5_a0"), fixtures.load("fig5_a1")
    rng = random.Random(78)
    for _ in range(10):
        sq = switched_combination(a0, a1, random_switch(rng, 8))
        for w in find_k33(sq):
            assert len({(i // 2, j // 2) for i, j in w.cells}) == 6


def _oracle_pairs():
    """fig2, fig5, the non-orthogonal Z4 pair and every GF(5)/GF(7) linear pair."""
    z4 = group_table("Z4")
    pairs = [
        (fixtures.load("fig2_a0"), fixtures.load("fig2_a1")),
        (fixtures.load("fig5_a0"), fixtures.load("fig5_a1")),
        (z4, z4),
    ]
    for p in (5, 7):
        for s, t in itertools.combinations(range(1, p), 2):
            pairs.append((linear_square(p, 1, s), linear_square(p, 1, t)))
    return pairs


def test_footprints_match_the_witness_cells():
    # the blocks of a pattern, read off its mask, against the blocks of its
    # six cells; and as rows of the system, against words built from those
    sizes = set()
    for a0, a1 in _oracle_pairs():
        n = a0.n
        zero = switched_combination(a0, a1, SwitchingMatrix.zeros(n))
        pats = block_patterns((a0, a1), zero)
        assert {p.witness for p in pats} == find_k33(zero)
        expected = [frozenset((i // 2, j // 2) for i, j in p.witness.cells) for p in pats]
        assert [p.blocks for p in pats] == expected
        sizes.update(len(b) for b in expected)
        if not is_orthogonal(a0, a1):
            continue
        by_row = Gf2System(n * n)
        for blocks in expected:
            by_row.add_word(support_mask(i * n + j for i, j in blocks), 1)
        assert build_system(pats, n).rows == by_row.rows
    assert sizes == {3, 6}


def test_search_hits_fig5_and_fig2_only():
    catalog = [
        (fixtures.load("fig5_a0"), fixtures.load("fig5_a1")),
        (fixtures.load("fig2_a0"), fixtures.load("fig2_a1")),
        (linear_square(11, 1, 2), linear_square(11, 1, 7)),
        (linear_square(13, 1, 3), linear_square(13, 1, 5)),
    ]
    hits = search_k33_free_combination(catalog)
    assert [(h.index, h.kernel_dimension) for h in hits] == [(0, 15), (1, 9)]


def _unsolvable_linear_pairs():
    return [
        (linear_square(11, 1, 2), linear_square(11, 1, 7)),
        (linear_square(13, 1, 3), linear_square(13, 1, 5)),
    ]


def test_first_contradiction_agrees_with_the_full_solve():
    pairs = [pair for pair in _oracle_pairs() if is_orthogonal(*pair)]
    pairs += _unsolvable_linear_pairs()
    verdicts = []
    for a0, a1 in pairs:
        n = a0.n
        zero = switched_combination(a0, a1, SwitchingMatrix.zeros(n))
        space = solve(build_system(block_patterns((a0, a1), zero), n))
        verdicts.append(_first_contradiction(zero, n) is None)
        assert verdicts[-1] == space.consistent
    assert len(pairs) == 25 and False in verdicts and True in verdicts


def test_unsolvable_pairs_stop_scanning_at_the_contradiction(monkeypatch, caplog):
    real_scan, read = combine._scan, []

    def counting_scan(s):
        read.append(0)
        for w in real_scan(s):
            read[-1] += 1
            yield w

    def no_block_patterns(*args):
        raise AssertionError("block_patterns called for an unsolvable pair")

    monkeypatch.setattr(combine, "_scan", counting_scan)
    monkeypatch.setattr(combine, "block_patterns", no_block_patterns)
    caplog.set_level("INFO", logger="k33free.combine")
    pairs = _unsolvable_linear_pairs()
    assert search_k33_free_combination(pairs) == []
    assert len(read) == 2
    for idx, ((a0, a1), count) in enumerate(zip(pairs, read)):
        zero = switched_combination(a0, a1, SwitchingMatrix.zeros(a0.n))
        assert 0 < count < len(find_k33(zero))
        # the last witness read is the contradictory equation
        assert (f"pair {idx}: system unsolvable (equation {count - 1}, counted from 0, "
                "reduces to 0 = 1)" in caplog.text)


def test_build_system_rejects_small_footprints():
    z4 = group_table("Z4")
    zero = switched_combination(z4, z4, SwitchingMatrix.zeros(4))
    with pytest.raises(LatinError):
        build_system(block_patterns((z4, z4), zero), 4)


def test_build_system_rejects_footprints_of_another_order():
    a0, a1 = fixtures.load("fig2_a0"), fixtures.load("fig2_a1")
    zero = switched_combination(a0, a1, SwitchingMatrix.zeros(4))
    with pytest.raises(LatinError):
        build_system(block_patterns((a0, a1), zero), 8)


def test_search_pipeline_fig5():
    hits = search_k33_free_combination(
        [(fixtures.load("fig5_a0"), fixtures.load("fig5_a1"))]
    )
    assert len(hits) == 1
    h = hits[0]
    assert h.kernel_dimension == 15 and h.solution_count == 2**15
    assert h.square.n == 16


def test_search_pipeline_skips_non_orthogonal():
    z4 = group_table("Z4")
    assert search_k33_free_combination([(z4, z4)]) == []


def test_switch_serialization_roundtrip():
    sw = fixtures.load_switch("fig5_switch")
    assert SwitchingMatrix.parse(sw.serialize()).bits == sw.bits


@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
    .map(lambda vec: SwitchingMatrix.from_vector(n, vec))
))
@settings(max_examples=60)
def test_switching_matrix_round_trip(sw):
    assert SwitchingMatrix.parse(sw.serialize()) == sw
