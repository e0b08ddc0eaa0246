"""Canonical-form laws, stabilizers and orbit-stabilizer counting."""

import functools
import hashlib
import itertools
import json
import operator
import random
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_rectangles, random_rectangle
from k33free import canon, fixtures, generate
from k33free.core import (
    LatinRectangle,
    Paratopism,
    apply,
    conjugate,
    group_table,
    linear_square,
    shape_preserving_conjs,
    supported_group_specs,
)


def random_paratopism(rng, m, n, level="main"):
    conjs = (canon.CONJ_ID,) if level == "isotopy" else shape_preserving_conjs(m, n)
    return Paratopism(
        tuple(rng.sample(range(m), m)),
        tuple(rng.sample(range(n), n)),
        tuple(rng.sample(range(n), n)),
        rng.choice(conjs),
    )


@pytest.mark.parametrize("shape", [(2, 4), (3, 4), (3, 5), (4, 4), (4, 6), (5, 5)])
@pytest.mark.parametrize("level", ["main", "isotopy"])
def test_canonical_form_is_class_invariant(shape, level):
    rng = random.Random(hash(shape) & 0xFFFF)
    m, n = shape
    s = random_rectangle(rng, m, n)
    c0 = canon.canonical_form(s, level)
    assert canon.canonical_form(c0, level).rows == c0.rows  # idempotent
    for _ in range(6):
        p = random_paratopism(rng, m, n, level)
        assert canon.canonical_form(apply(p, s), level).rows == c0.rows


def test_canonical_form_shape():
    rng = random.Random(3)
    s = random_rectangle(rng, 4, 6)
    c = canon.canonical_form(s)
    assert c.rows[0] == tuple(range(6))
    # second row is a derangement in cycle-type normal form
    assert all(c.rows[1][i] != i for i in range(6))


def test_stabilizer_elements_fix_the_rectangle():
    rng = random.Random(5)
    for s in (group_table("Z4"), group_table("D4"), random_rectangle(rng, 3, 6)):
        stab = canon.canonical_with_stabilizer(s, "main")
        order, elems = stab.order, stab.elements
        assert len(elems) == order
        ids = set()
        for g in elems:
            assert apply(g, s).rows == s.rows
            ids.add((g.rho, g.gamma, g.lam, g.conj))
        assert len(ids) == order  # distinct elements


def test_3x3_exhaustive_orbit_stabilizer():
    squares = list(all_rectangles(3, 3))
    assert len(squares) == 12
    forms = {canon.canonical_form(s).rows for s in squares}
    assert len(forms) == 1
    rep = LatinRectangle(next(iter(forms)))
    order = canon.canonical_with_stabilizer(rep).order
    assert canon.allowed_group_order(3, 3) // order == 12
    assert canon.canonical_form(rep).rows == rep.rows


def test_isotopy_refines_main():
    # distinct isotopy canonical forms can merge at main level, never split
    rng = random.Random(9)
    for _ in range(10):
        s = random_rectangle(rng, 3, 5)
        t = apply(random_paratopism(rng, 3, 5, "isotopy"), s)
        assert canon.canonical_form(s, "isotopy").rows == canon.canonical_form(t, "isotopy").rows
        assert canon.canonical_form(s, "main").rows == canon.canonical_form(t, "main").rows


def test_symmetry_group_kinds():
    z4 = group_table("Z4")
    aut = canon.symmetry_group(z4, "autotopism")
    par = canon.symmetry_group(z4, "paratopism")
    assert par.order % aut.order == 0
    assert all(g.conj == canon.CONJ_ID for g in aut.elements)


def test_cell_orbits_partition():
    z4 = group_table("Z4")
    group = canon.symmetry_group(z4, "paratopism")
    orbits = canon.cell_orbits(group, z4)
    cells = [c for o in orbits for c in o]
    assert len(cells) == 16 and len(set(cells)) == 16


@pytest.mark.parametrize("kind, count", [("autotopism", 8), ("paratopism", 4)])
def test_cell_orbits_match_the_closure_on_fig6(kind, count):
    # cell_orbits grows orbits from the generators; the oracle is the closure
    # of each cell under the full element list, grown until it is stable
    s = fixtures.load("fig6")
    group = canon.symmetry_group(s, kind)
    assert len(group.elements) == group.order
    assert generated(group, s) == {(g.rho, g.gamma, g.lam, g.conj) for g in group.elements}
    closures = set()
    for cell in itertools.product(range(s.m), range(s.n)):
        orbit, frontier = {cell}, [cell]
        while frontier:
            r, c = frontier.pop()
            for g in group.elements:
                t = g.act_triple((r, c, s.rows[r][c]))
                if t[:2] not in orbit:
                    orbit.add(t[:2])
                    frontier.append(t[:2])
        closures.add(frozenset(orbit))
    orbits = canon.cell_orbits(group, s)
    assert len(orbits) == count == len(closures)
    assert {frozenset(o) for o in orbits} == closures


def test_allowed_group_order():
    assert canon.allowed_group_order(3, 5, "isotopy") == 6 * 120 * 120
    assert canon.allowed_group_order(3, 5, "main") == 6 * 120 * 120 * 2
    assert canon.allowed_group_order(4, 4, "main") == 24 * 24 * 24 * 6


# -- stabilizers against oracles that share no canon code -----------------------


def brute_force_stabilizer(s, level):
    """Every paratopism fixing s, as (rho, gamma, lam, conj), by enumerating
    conj x rho x gamma; lam is read off the row that rho sends to row 0."""
    conjs = (canon.CONJ_ID,) if level == "isotopy" else shape_preserving_conjs(s.m, s.n)
    found = set()
    for sigma in conjs:
        grid = conjugate(s, sigma).rows
        for rho in itertools.permutations(range(s.m)):
            top = grid[rho.index(0)]
            for gamma in itertools.permutations(range(s.n)):
                lam = [0] * s.n
                for c, l in enumerate(top):
                    lam[l] = s.rows[0][gamma[c]]
                if all(s.rows[rho[r]][gamma[c]] == lam[l]
                       for r in range(s.m) for c, l in enumerate(grid[r])):
                    found.add((rho, gamma, tuple(lam), sigma))
    return found


def generated(stab, s):
    """The group that ``stab.generators`` generate, closed under composition."""
    identity = Paratopism(tuple(range(s.m)), tuple(range(s.n)), tuple(range(s.n)))
    found = {identity}
    queue = [identity]
    for h in queue:
        for g in stab.generators:
            image = g.compose(h)
            if image not in found:
                found.add(image)
                queue.append(image)
    return {(g.rho, g.gamma, g.lam, g.conj) for g in found}


@pytest.mark.parametrize("level", ["main", "isotopy"])
def test_stabilizer_elements_equal_brute_force(level):
    rng = random.Random(17)
    rects = [group_table("Z4"), group_table("Z2xZ2"), group_table("Z5")]
    rects += [random_rectangle(rng, m, n) for m, n in [(3, 5), (4, 5), (3, 6), (2, 6)]]
    for s in rects:
        stab = canon.canonical_with_stabilizer(s, level)
        want = brute_force_stabilizer(s, level)
        assert {(g.rho, g.gamma, g.lam, g.conj) for g in stab.elements} == want
        assert len(stab.elements) == stab.order
        assert generated(stab, s) == want


#: |Aut(G)| of the supported groups that are neither cyclic nor dihedral
AUT_ORDER = {"Z2xZ2": 6, "Z2xZ4": 8, "Z2xZ2xZ2": 168, "Z3xZ3": 48, "Z2xZ6": 12,
             "Z2xZ8": 16, "Z4xZ4": 96, "Z2xZ2xZ4": 192}


def automorphism_count(spec):
    """|Aut(G)|: phi(k) for Z_k, k phi(k) for the dihedral D_k of order 2k."""
    if spec in AUT_ORDER:
        return AUT_ORDER[spec]
    k = int(spec[1:])
    phi = sum(1 for a in range(1, k + 1) if gcd(a, k) == 1)
    return phi if spec.startswith("Z") else k * phi


# Z2xZ2xZ2xZ2 is left out: the triple holding its least tail alone has
# 8! 2^8 leaves, and only pruning inside a triple would make it cheap
@pytest.mark.parametrize("spec", [g for g in supported_group_specs(16) if g != "Z2xZ2xZ2xZ2"])
def test_autotopism_group_of_a_cayley_table(spec):
    # the autotopisms of the Cayley table of G number |G|^2 |Aut(G)|
    table = group_table(spec)
    stab = canon.symmetry_group(table, "autotopism")
    assert stab.order == table.n**2 * automorphism_count(spec)
    assert len(stab.elements) == stab.order


def fixing_test(table):
    """A test of whether g = (rho, gamma, lam, conj) maps table onto itself.

    Row r of the conjugate by conj goes to row rho[r] of the table, its
    column c to column gamma[c], and its letters are renamed by lam.
    """
    rows = table.rows
    grids = {}
    for conj in itertools.permutations(range(3)):
        grid = [[0] * table.n for _ in range(table.m)]
        for r, row in enumerate(rows):
            for c, l in enumerate(row):
                t = (r, c, l)
                grid[t[conj[0]]][t[conj[1]]] = t[conj[2]]
        grids[conj] = [operator.itemgetter(*row) for row in grid]

    def fixes(g):
        rho, gamma, lam, conj = g
        moved = operator.itemgetter(*gamma)
        return all(moved(rows[rho[r]]) == letters(lam) for r, letters in enumerate(grids[conj]))

    return fixes


#: the longest element list the paratopism oracle checks one by one (time)
LISTED = 8_000


def paratopism_order(spec):
    """6 |G|^2 |Aut(G)|: every conjugate of a Cayley table is isotopic to it."""
    return 6 * group_table(spec).n ** 2 * automorphism_count(spec)


@pytest.mark.parametrize("spec", [g for g in supported_group_specs(16) if g != "Z2xZ2xZ2xZ2"])
def test_paratopism_group_of_a_cayley_table(spec):
    table, want = group_table(spec), paratopism_order(spec)
    if want > LISTED:
        assert canon.canonical_with_order(table)[1] == want
        return
    stab = canon.symmetry_group(table, "paratopism")
    assert stab.order == want
    elements = {(g.rho, g.gamma, g.lam, g.conj) for g in stab.elements}
    assert len(elements) == len(stab.elements) == want
    assert all(map(fixing_test(table), elements))


# -- row-cycle refinement ------------------------------------------------------

#: squares on which the refinement keeps every distinguished triple: every
#: pair of rows of a group table or linear square has the same cycle type,
#: and the order-8 K3,3-free squares turn out to tie as well
TIED = {
    "Z2xZ2xZ2": lambda: group_table("Z2xZ2xZ2"),
    "linear5": lambda: linear_square(5, 1, 2),
    "linear7": lambda: linear_square(7, 1, 3),
    "fig3_a": lambda: fixtures.load("fig3_a"),
    "fig3_b": lambda: fixtures.load("fig3_b"),
}


def distinguished_triples(s):
    """(conjugation, r0, r1) triples whose row pair has the distinguished cycle type."""
    keys = []
    for sigma in shape_preserving_conjs(s.m, s.n):
        grid = conjugate(s, sigma).rows
        for r0, r1 in itertools.permutations(range(s.m), 2):
            pi = [grid[r0].index(l) for l in grid[r1]]
            lengths = tuple(sorted(len(c) for c in canon._cycles_of(pi)))
            keys.append((canon._centralizer_order(lengths), canon._type_row(lengths)))
    return keys.count(min(keys))


def kept_and_expanded_triples(s, monkeypatch):
    """(triples the refinement keeps, triples the search expands) at main level."""
    calls = []
    real = canon._Search._expand
    monkeypatch.setattr(canon._Search, "_expand", lambda self, *a: calls.append(1) or real(self, *a))
    search = canon._Search(s, "main")
    search.run()
    monkeypatch.undo()
    return len(search.triples), len(calls)


def test_refinement_ties_and_splits(monkeypatch):
    for name, make in TIED.items():
        s = make()
        assert kept_and_expanded_triples(s, monkeypatch)[0] == distinguished_triples(s), name
    rng = random.Random(3)
    split = 0
    for _ in range(5):
        s = random_rectangle(rng, 5, 7)
        split += kept_and_expanded_triples(s, monkeypatch)[0] < distinguished_triples(s)
    assert split >= 3


def test_pruning_skips_only_images_of_explored_triples(monkeypatch):
    # the tied squares have big stabilizers, so most kept triples are images
    # of explored ones; a trivial stabilizer leaves every kept triple to expand
    for name, make in TIED.items():
        kept, expanded = kept_and_expanded_triples(make(), monkeypatch)
        assert expanded < kept, name
    assert kept_and_expanded_triples(group_table("Z2xZ2xZ2"), monkeypatch) == (336, 5)
    rng = random.Random(4)
    s = random_rectangle(rng, 5, 7)
    assert canon.canonical_with_order(s)[1] == 1
    kept, expanded = kept_and_expanded_triples(s, monkeypatch)
    assert expanded == kept > 1


@functools.lru_cache(maxsize=None)
def tied_form(name):
    return canon.canonical_form(TIED[name]())


def paratopisms(m, n):
    perm = lambda k: st.permutations(range(k)).map(tuple)  # noqa: E731
    return st.builds(
        Paratopism, perm(m), perm(n), perm(n), st.sampled_from(shape_preserving_conjs(m, n))
    )


@pytest.mark.parametrize("name", TIED)
def test_canonical_form_idempotent_where_refinement_ties(name):
    c0 = tied_form(name)
    assert canon.canonical_form(c0).rows == c0.rows


@pytest.mark.parametrize("name", TIED)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_canonical_form_invariant_where_refinement_ties(name, data):
    s, c0 = TIED[name](), tied_form(name)
    p = data.draw(paratopisms(s.m, s.n))
    assert canon.canonical_form(apply(p, s)).rows == c0.rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_canonical_form_invariant_where_refinement_splits(seed, data):
    s = random_rectangle(random.Random(seed), 5, 7)
    c0 = canon.canonical_form(s)
    assert canon.canonical_form(c0).rows == c0.rows
    p = data.draw(paratopisms(5, 7))
    assert canon.canonical_form(apply(p, s)).rows == c0.rows


# -- isotopy classes from the stabilizer -----------------------------------------


def isotopy_classes_by_conjugates(s):
    """Distinct isotopy-level forms over the shape-preserving conjugates."""
    return len(
        {canon.canonical_form(conjugate(s, sigma), "isotopy").rows
         for sigma in shape_preserving_conjs(s.m, s.n)}
    )


def test_isotopy_classes_from_the_stabilizer():
    col6, col7 = generate.classify_column(6, 5), generate.classify_column(7, 5)
    rects = (
        col6[4].representatives + col6[5].representatives
        + col7[4].representatives + col7[5].representatives
        + [fixtures.load("fig3_a"), fixtures.load("fig3_b")]
    )
    rng = random.Random(11)
    rects += [random_rectangle(rng, 4, 6) for _ in range(5)]
    assert len(col6[5].representatives) == 0  # 5x6 has no K3,3-free class
    got = [canon.canonical_with_stabilizer(s).isotopy_classes for s in rects]
    assert got == [isotopy_classes_by_conjugates(s) for s in rects]
    assert max(got) > 1


# -- single rows -----------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 7])
def test_single_row_stabilizer_is_listed_in_full(n):
    row = LatinRectangle((tuple(reversed(range(n))),))
    stab = canon.canonical_with_stabilizer(row)
    assert stab.order == factorial(n) * 2 == len(stab.elements)
    assert all(apply(g, row).rows == row.rows for g in stab.elements)
    assert len({(g.gamma, g.lam, g.conj) for g in stab.elements}) == stab.order
    assert generated(stab, row) == {(g.rho, g.gamma, g.lam, g.conj) for g in stab.elements}
    assert len(canon.cell_orbits(stab, row)) == 1
    assert stab.isotopy_classes == 1


# -- the canonical forms since checkpoint version 2 ---------------------------------

#: sha256 of the JSON list of the sorted 3x8 and then the sorted 4x8 canonical
#: forms (rows as lists) of the representatives of classify_column(8, 4); new
#: forms need a new CHECKPOINT_VERSION
FORMS_3X8_4X8_SHA256 = "c666e00119fb98d8d357686bcf7a738ed67ed296cc4e204079643bfb747e3c1d"


def test_canonical_forms_are_pinned():
    col = generate.classify_column(8, 4)
    assert [len(col[m].representatives) for m in (3, 4)] == [67, 412]
    forms = [
        [list(r) for r in rows]
        for m in (3, 4)
        for rows in sorted(canon.canonical_form(rep).rows for rep in col[m].representatives)
    ]
    assert hashlib.sha256(json.dumps(forms).encode()).hexdigest() == FORMS_3X8_4X8_SHA256
    # version 3 stores certified representatives, which are not canonical forms
    assert generate.CHECKPOINT_VERSION == 3


def cycle_types(n, least=2):
    """Partitions of n into parts >= least, as ascending tuples."""
    if n == 0:
        yield ()
    for part in range(least, n + 1):
        for rest in cycle_types(n - part, part):
            yield (part,) + rest


def test_cycle_type_order_is_the_one_line_form_order():
    # _Search keys row pairs by cycle type and spells out only the winner
    for n in range(2, 16):
        types = list(cycle_types(n))
        assert len(set(map(canon._type_row, types))) == len(types)
        assert sorted(types) == sorted(types, key=canon._type_row), n
