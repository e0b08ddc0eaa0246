"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Criterion 3 (the order-9 census column) resumes from checkpoints and is
gated behind RUN_LONG_CENSUS=1, as is criterion 5's order-7 brute force;
columns n >= 10 are stretch runs and are not exercised here.  Run with
`pytest -s` to see the per-criterion lines.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import all_rectangles, footprints, free_rectangles, random_rectangle
from k33free import canon, fixtures, generate, spectral, tables
from k33free.combine import (
    SwitchingMatrix,
    block_patterns,
    build_system,
    search_k33_free_combination,
    switched_combination,
)
from k33free.core import group_table, linear_square, slope_pair_orbit, supported_group_specs
from k33free.gf2 import enumerate_solutions, solve
from k33free.pattern import find_induced_ktt, find_k33, is_k33_free


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num} ({desc}): FAIL")
        raise
    print(f"\nCRITERION {num} ({desc}): PASS")


@pytest.fixture(scope="module")
def census_cols():
    """Columns n = 3..8, computed once and shared by criteria 1, 2 and 4."""
    cols = {}
    t0 = time.time()
    for n in range(3, 8):
        cols[n] = generate.classify_column(n, n)
    cols["seconds_to_7"] = time.time() - t0
    t0 = time.time()
    cols[8] = generate.classify_column(8, 8, jobs=2)
    cols["seconds_8"] = time.time() - t0
    return cols


def check_column(col, n):
    for m in range(3, n + 1):
        exp = tables.expected(m, n)
        res = col[m]
        assert None not in (exp.iso, exp.total), (m, n)
        assert exp.agrees(res.main_class_count, res.isotopy_class_count,
                          res.total_labeled_count), (m, n)


def test_criterion_01_census_small(census_cols):
    with criterion(1, "census n <= 7 exact, < 5 min"):
        for n in range(3, 8):
            check_column(census_cols[n], n)
        assert census_cols["seconds_to_7"] < 300


def test_criterion_02_census_order8(census_cols):
    with criterion(2, "census order 8 exact, squares match the order-8 fixtures"):
        check_column(census_cols[8], 8)
        assert census_cols["seconds_8"] < 3600
        reps = {r.rows for r in census_cols[8][8].representatives}
        for name in ("fig3_a", "fig3_b"):
            assert canon.canonical_form(fixtures.load(name)).rows in reps


@pytest.mark.skipif(
    not os.environ.get("RUN_LONG_CENSUS"),
    reason="order-9 column is a long run; set RUN_LONG_CENSUS=1",
)
def test_criterion_03_census_order9(tmp_path):
    with criterion(3, "census order 9 exact (long)"):
        col = generate.classify_column(9, 9, jobs=4, out_dir=tmp_path / "c9")
        check_column(col, 9)
        # a certified representative is a class member, not a canonical form
        rep89 = col[8].representatives
        assert len(rep89) == 1
        assert (canon.canonical_form(rep89[0]).rows
                == canon.canonical_form(fixtures.load("rect_8x9")).rows)


def test_criterion_04_double_count_validation(census_cols):
    with criterion(4, "orbit-stabilizer double count agrees at every level"):
        # every column of criteria 1-2 re-ran the orbit-stabilizer
        # validation at each level; a DoubleCountError would have aborted
        # the shared fixture before this test could run
        for n in range(3, 9):
            assert census_cols[n][n].main_class_count >= 0


def check_against_brute_force(n, oracle):
    """Column n equals ``oracle[m]``, the brute-force free m-by-n rectangles."""
    col = generate.classify_column(n, n)
    for m in range(2, n + 1):
        assert col[m].main_class_count == len(oracle[m].forms), (m, n)
        # representatives are class members; their canonical forms must be
        # the oracle's forms
        forms = {canon.canonical_form(r).rows for r in col[m].representatives}
        assert forms == oracle[m].forms
        assert col[m].total_labeled_count == oracle[m].labeled, (m, n)


def test_criterion_05_brute_force_oracle(brute_force_oracle):
    with criterion(5, "engine equals brute force for all shapes with n <= 6"):
        for n in range(3, 7):
            check_against_brute_force(
                n, {m: brute_force_oracle[(m, n)] for m in range(2, n + 1)}
            )


@pytest.mark.skipif(
    not os.environ.get("RUN_LONG_CENSUS"),
    reason="the order-7 brute force is a long run; set RUN_LONG_CENSUS=1",
)
def test_criterion_05_brute_force_oracle_order7():
    with criterion(5, "engine equals brute force for all shapes with n = 7 (long)"):
        check_against_brute_force(7, free_rectangles(7))


def test_criterion_06_pattern_oracle():
    with criterion(6, "find_k33 vs induced-subgraph search; group tables non-free"):
        from conftest import cell_graph_ktt_parts

        for shape in ((3, 3), (3, 4)):
            for s in all_rectangles(*shape):
                assert {frozenset(w.parts) for w in find_k33(s)} == cell_graph_ktt_parts([s], 3)
        rng = random.Random(424242)
        for _ in range(10_000):
            m = rng.randint(2, 5)
            n = rng.randint(max(m, 3), 5)
            s = random_rectangle(rng, m, n)
            got = {frozenset(w.parts) for w in find_k33(s)}
            assert got == {frozenset(p) for p in find_induced_ktt((s,), 3)}
        for spec in supported_group_specs(12):
            s = group_table(spec)
            if s.n >= 3:
                assert not is_k33_free(s), spec


def test_criterion_07_combine_pipeline():
    with criterion(7, "order-16 pipeline: dim 15, symmetry 32/64, one class"):
        a0, a1 = fixtures.load("fig5_a0"), fixtures.load("fig5_a1")
        hits = search_k33_free_combination([(a0, a1)])
        assert len(hits) == 1
        h = hits[0]
        assert h.kernel_dimension == 15 and h.solution_count == 2**15
        assert is_k33_free(h.square) and h.square.n == 16
        aut = canon.symmetry_group(h.square, "autotopism")
        par = canon.symmetry_group(h.square, "paratopism")
        assert aut.order == 32 and par.order == 64
        assert len(canon.cell_orbits(par, h.square)) > 1  # not transitive
        space = solve(build_system(
            block_patterns((a0, a1), switched_combination(a0, a1, SwitchingMatrix.zeros(8))), 8
        ))
        rng = random.Random(1)
        forms, seen = set(), set()
        while len(seen) < 16:
            vec = list(space.particular)
            for b in space.basis:
                if rng.random() < 0.5:
                    vec = [x ^ y for x, y in zip(vec, b)]
            vec = tuple(vec)
            if vec in seen:
                continue
            seen.add(vec)
            sq = switched_combination(a0, a1, SwitchingMatrix.from_vector(8, vec))
            assert is_k33_free(sq)
            forms.add(canon.canonical_form(sq).rows)
        assert len(forms) == 1


def test_criterion_08_lemma_suite():
    with criterion(8, "parity and six-block laws over 10^3 random switchings"):
        rng = random.Random(99)
        for a0_name, a1_name, n, rounds in (
            ("fig2_a0", "fig2_a1", 4, 500),
            ("fig5_a0", "fig5_a1", 8, 500),
        ):
            a0, a1 = fixtures.load(a0_name), fixtures.load(a1_name)
            zero = switched_combination(a0, a1, SwitchingMatrix.zeros(n))
            pats = block_patterns((a0, a1), zero)
            pat_blocks = [p.blocks for p in pats]
            for _ in range(rounds):
                sw = SwitchingMatrix(
                    n, tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
                )
                sq = switched_combination(a0, a1, sw)
                present = footprints(sq)
                for blocks in present:
                    assert len(blocks) == 6  # six-block law
                for blocks in pat_blocks:
                    parity = sum(sw.bits[i][j] for i, j in blocks) % 2
                    assert (blocks in present) == (parity == 0)  # parity law
        z4 = group_table("Z4")
        zero = switched_combination(z4, z4, SwitchingMatrix.zeros(4))
        assert any(len(p.blocks) == 3 for p in block_patterns((z4, z4), zero))


def test_criterion_09_order8_reconstruction():
    with criterion(9, "fig2 pair regenerates both order-8 classes; cell-transitive"):
        a0, a1 = fixtures.load("fig2_a0"), fixtures.load("fig2_a1")
        zero = switched_combination(a0, a1, SwitchingMatrix.zeros(4))
        space = solve(build_system(block_patterns((a0, a1), zero), 4))
        classes = set()
        for vec in enumerate_solutions(space, limit=1 << 16):
            sq = switched_combination(a0, a1, SwitchingMatrix.from_vector(4, vec))
            assert is_k33_free(sq)
            classes.add(canon.canonical_form(sq).rows)
        targets = {
            canon.canonical_form(fixtures.load(name)).rows
            for name in ("fig3_a", "fig3_b")
        }
        assert targets <= classes
        for name in ("fig3_a", "fig3_b"):
            sq = fixtures.load(name)
            orbits = canon.cell_orbits(canon.symmetry_group(sq, "autotopism"), sq)
            assert len(orbits) == 1 and len(orbits[0]) == 64


def test_criterion_10_mols():
    with criterion(10, "GF(5) pair has K4,4; GF(7): exactly one free class"):
        gf5 = (linear_square(5, 2, 1), linear_square(5, 1, 2))
        assert find_induced_ktt(gf5, 4)
        verdict = {}
        for s, t in itertools.combinations(range(1, 7), 2):
            pair = (linear_square(7, 1, s), linear_square(7, 1, t))
            verdict[frozenset((s, t))] = not find_induced_ktt(pair, 4)
        orbits = {slope_pair_orbit(k, 7) for k in verdict}
        assert len(orbits) == 2
        free = [ob for ob in orbits if {verdict[k] for k in ob} == {True}]
        assert len(free) == 1
        assert all(len({verdict[k] for k in ob}) == 1 for ob in orbits)


def test_criterion_11_spectral():
    with criterion(11, "support-6 eigenfunctions at -3; min trade volumes"):
        for name in ("z3", "fig2_comb0", "fig2_comb1", "sq5_completion"):
            s = fixtures.load(name)
            for w in find_k33(s):
                f = spectral.witness_to_eigenfunction(s, w)
                assert len(f.support) == 6
                assert spectral.check_eigenfunction(s, f, Fraction(-3))
        z3 = fixtures.load("z3")
        assert spectral.min_trade_volume(z3, cap=3) == 3
        assert spectral.min_trade_volume(z3, cap=2) is None
        assert spectral.min_trade_volume(fixtures.load("fig3_a"), cap=3) is None
        assert spectral.min_trade_volume(fixtures.load("fig3_b"), cap=3) is None
