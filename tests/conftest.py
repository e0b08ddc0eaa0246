"""Shared helpers: random rectangles and independent brute-force oracles."""

from __future__ import annotations

import itertools
import random
from math import factorial
from typing import NamedTuple

import pytest

from k33free import canon, fixtures
from k33free.combine import SwitchingMatrix
from k33free.core import LatinRectangle
from k33free.pattern import find_k33, is_k33_free


def load_switch(name: str) -> SwitchingMatrix:
    """A bundled switching matrix."""
    return SwitchingMatrix.parse(fixtures._read(f"{name}.txt"))


# -- Cayley tables: the inputs of the group oracles ------------------------------


def group_table(spec: str) -> LatinRectangle:
    """Cayley table of a finite group, as a latin square.

    ``spec`` is ``Z<n>`` (cyclic), a product like ``Z2xZ4``, or ``D<k>``
    (dihedral of order 2k, k >= 3), as :func:`supported_group_specs` spells
    them.
    """
    if spec.startswith("D"):
        return _dihedral_table(int(spec[1:]))
    return _abelian_product_table([int(part.removeprefix("Z")) for part in spec.split("x")])


def _abelian_product_table(factors: list[int]) -> LatinRectangle:
    elems = list(itertools.product(*(range(k) for k in factors)))
    index = {e: i for i, e in enumerate(elems)}
    return LatinRectangle(tuple(
        tuple(index[tuple((x + y) % k for x, y, k in zip(a, b, factors))] for b in elems)
        for a in elems
    ))


def _dihedral_table(k: int) -> LatinRectangle:
    # elements (i, f): rotation r^i, optionally followed by the flip
    elems = [(i, f) for f in (0, 1) for i in range(k)]
    index = {e: j for j, e in enumerate(elems)}

    def mul(a, b):
        i, f = a
        j, g = b
        if f == 0:
            return ((i + j) % k, g)
        return ((i - j) % k, 1 - g)

    return LatinRectangle(tuple(tuple(index[mul(a, b)] for b in elems) for a in elems))


def supported_group_specs(max_order: int) -> list[str]:
    """A spec of every group of order 3..max_order that :func:`group_table`
    builds: each abelian group and each dihedral group, one per isomorphism type."""
    specs: list[str] = []
    for order in range(3, max_order + 1):
        for parts in _abelian_types(order):
            specs.append("x".join(f"Z{k}" for k in parts))
        if order % 2 == 0 and order >= 6:
            specs.append(f"D{order // 2}")
    return specs


def _abelian_types(order: int) -> list[tuple[int, ...]]:
    """Invariant-factor decompositions d1 | d2 | ... with product = order."""
    result: list[tuple[int, ...]] = []

    def chains(remaining: int, prev: int, acc: tuple[int, ...]):
        if remaining == 1:
            result.append(acc)
            return
        for d in range(max(2, prev), remaining + 1):
            if remaining % d == 0 and (prev == 1 or d % prev == 0):
                chains(remaining // d, d, acc + (d,))

    chains(order, 1, ())
    return sorted(set(result))


def support_mask(support) -> int:
    """The GF(2) row word of a support: bit v for each variable index v."""
    mask = 0
    for v in support:
        mask |= 1 << v
    return mask


def blocks_of(witness) -> frozenset:
    """The 2x2 blocks of the cells of a K3,3 witness of a switched combination."""
    return frozenset((i // 2, j // 2) for i, j in witness.cells)


def footprints(square) -> set[frozenset]:
    """The blocks of each K3,3 witness of a switched combination."""
    return {blocks_of(w) for w in find_k33(square)}


def random_rectangle(rng: random.Random, m: int, n: int) -> LatinRectangle:
    """Uniform-ish random latin rectangle by randomized backtracking."""
    while True:
        rows: list[tuple[int, ...]] = []
        ok = True
        for _ in range(m):
            row = _random_row(rng, rows, n)
            if row is None:
                ok = False
                break
            rows.append(row)
        if ok:
            return LatinRectangle(tuple(rows))


def _random_row(rng, rows, n):
    cols_taken = [{r[c] for r in rows} for c in range(n)]
    order = list(range(n))
    row = [-1] * n
    used = set()

    def fill(i):
        if i == n:
            return True
        c = order[i]
        letters = [l for l in range(n) if l not in used and l not in cols_taken[c]]
        rng.shuffle(letters)
        for l in letters:
            row[c] = l
            used.add(l)
            if fill(i + 1):
                return True
            used.discard(l)
        row[c] = -1
        return False

    return tuple(row) if fill(0) else None


def all_rectangles(m: int, n: int):
    """Every labeled m-by-n latin rectangle (small shapes only)."""
    perms = list(itertools.permutations(range(n)))

    def rec(rows):
        if len(rows) == m:
            yield LatinRectangle(rows)
            return
        for p in perms:
            if all(p[c] != r[c] for r in rows for c in range(n)):
                yield from rec(rows + (p,))

    yield from rec(())


class FreeRectangles(NamedTuple):
    labeled: int  # number of K3,3-free labeled rectangles of the shape
    forms: set  # their main-class canonical forms, as row tuples


def free_rectangles(n: int) -> dict[int, FreeRectangles]:
    """The K3,3-free rectangles of every m-by-n shape with 2 <= m <= n, by m.

    Works on reduced rectangles (row 0 = 0..n-1, column 0 = 0..m-1): the
    free m-row ones are the free (m-1)-row ones extended by every
    compatible permutation row starting with m-1, filtered by the pattern
    scan (a rectangle with a witness keeps it in every extension, so none
    is missed).  Every main class has a reduced member and freeness is an
    isotopy invariant, so the forms of the reduced free rectangles are all
    the classes, and the labeled count is R * n! * (n-1)! / (n-m)! for R
    reduced ones.
    """
    perms = list(itertools.permutations(range(n)))
    level = [(tuple(range(n)),)]
    out = {}
    for m in range(2, n + 1):
        level = [
            rows + (p,)
            for rows in level
            for p in perms
            if p[0] == m - 1
            and all(p[c] != r[c] for r in rows for c in range(n))
            and is_k33_free(LatinRectangle(rows + (p,)))
        ]
        forms = {canon.canonical_form(LatinRectangle(rows)).rows for rows in level}
        labeled = len(level) * factorial(n) * factorial(n - 1) // factorial(n - m)
        out[m] = FreeRectangles(labeled, forms)
    return out


@pytest.fixture(scope="session")
def brute_force_oracle() -> dict[tuple[int, int], FreeRectangles]:
    """:func:`free_rectangles` of every shape with 2 <= m <= n <= 6, by (m, n).

    Built once per session.
    """
    return {(m, n): free for n in range(3, 7) for m, free in free_rectangles(n).items()}


def cell_graph_ktt_parts(squares, t: int) -> set[frozenset]:
    """Naive induced-K_{t,t} search straight from the graph definition.

    Vertices are the cells of the rectangles (all of one shape), adjacent
    when they share a row, a column, or a letter in any of them; returns
    every pair of independent t-sets with all t^2 cross edges present, as
    {frozenset({partA, partB})}.
    """
    m, n = squares[0].m, squares[0].n
    cells = [(r, c) for r in range(m) for c in range(n)]
    adjacent = {
        (a, b)
        for a, b in itertools.permutations(cells, 2)
        if a[0] == b[0] or a[1] == b[1]
        or any(s.rows[a[0]][a[1]] == s.rows[b[0]][b[1]] for s in squares)
    }

    def independent(part):
        return not any(pair in adjacent for pair in itertools.combinations(part, 2))

    out = set()
    for a in itertools.combinations(cells, t):
        if not independent(a):
            continue
        rest = [x for x in cells if all((x, y) in adjacent for y in a)]
        for b in itertools.combinations(rest, t):
            if independent(b):
                out.add(frozenset({frozenset(a), frozenset(b)}))
    return out


@pytest.fixture
def rng():
    return random.Random(20260826)
