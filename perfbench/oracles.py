"""Reference checks that share no code with the k33free layers under test.

Grids are plain tuples of row tuples.  A K3,3 witness is a 3x3 subarray on
rows r1, r2, r3 and columns c1, c2, c3 whose off-diagonal letters are
symmetric, ``L(ri, cj) == L(rj, ci)`` for i != j; its six off-diagonal cells
split into two induced triples of the cell graph.
"""

from __future__ import annotations

import itertools
from collections import Counter


def _positions(grid) -> list[list[int]]:
    """pos[r][l] = column of letter l in row r."""
    pos = []
    for row in grid:
        inv = [0] * len(row)
        for c, l in enumerate(row):
            inv[l] = c
        pos.append(inv)
    return pos


def witness_count(grid) -> int:
    """Number of K3,3 witnesses, by counting ordered witness tuples.

    Each witness appears once per simultaneous relabelling of its three
    (row, column) diagonal pairs, so the ordered count is six times the
    witness count.
    """
    m = len(grid)
    pos = _positions(grid)
    ordered = 0
    for r1, r2 in itertools.permutations(range(m), 2):
        g1, g2 = grid[r1], grid[r2]
        p1 = pos[r1]
        for c1 in range(len(g1)):
            c2 = p1[g2[c1]]  # L(r1, c2) == L(r2, c1)
            if c2 == c1:
                continue
            for r3 in range(m):
                if r3 == r1 or r3 == r2:
                    continue
                c3 = p1[grid[r3][c1]]  # L(r1, c3) == L(r3, c1)
                if c3 != c1 and c3 != c2 and g2[c3] == grid[r3][c2]:
                    ordered += 1
    if ordered % 6:
        raise AssertionError("ordered witness count is not a multiple of 6")
    return ordered // 6


def is_induced_k33(grid, part_a, part_b) -> bool:
    """Do two 3-cell sets induce K3,3 in the graph of shared row/column/letter?"""

    def adjacent(x, y):
        return x != y and (
            x[0] == y[0] or x[1] == y[1] or grid[x[0]][x[1]] == grid[y[0]][y[1]]
        )

    a, b = list(part_a), list(part_b)
    if len(a) != 3 or len(b) != 3 or set(a) & set(b):
        return False
    inside = any(adjacent(x, y) for part in (a, b) for x, y in itertools.combinations(part, 2))
    across = all(adjacent(x, y) for x in a for y in b)
    return across and not inside


def _pair_cycle_types(grid) -> tuple:
    """Multiset of cycle types of r_a^-1 r_b over unordered row pairs."""
    pos = _positions(grid)
    n = len(grid[0])
    types: Counter = Counter()
    for a, b in itertools.combinations(range(len(grid)), 2):
        perm = [pos[a][grid[b][c]] for c in range(n)]
        seen = [False] * n
        lengths = []
        for start in range(n):
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            if length:
                lengths.append(length)
        types[tuple(sorted(lengths))] += 1
    return tuple(sorted(types.items()))


def main_class_invariant(grid) -> tuple:
    """A paratopy invariant of a latin square.

    The row-pair cycle types of the three conjugates that put rows, columns
    and letters in turn on the row axis; conjugation permutes the three, so
    they are taken as a sorted tuple.
    """
    n = len(grid)
    by_col = [[0] * n for _ in range(n)]
    by_letter = [[0] * n for _ in range(n)]
    for r, row in enumerate(grid):
        for c, l in enumerate(row):
            by_col[c][l] = r
            by_letter[l][c] = r
    return tuple(sorted(_pair_cycle_types(g) for g in (grid, by_col, by_letter)))


def orbit_partition(triple_maps, grid) -> set[frozenset]:
    """Cell orbits under the given maps (row, col, letter) -> (row, col, letter)."""
    cells = {(r, c) for r in range(len(grid)) for c in range(len(grid[0]))}
    images = {cell: set() for cell in cells}
    for act in triple_maps:
        for r, c in cells:
            t = act((r, c, grid[r][c]))
            images[(r, c)].add((t[0], t[1]))
            images[(t[0], t[1])].add((r, c))
    orbits: set[frozenset] = set()
    unseen = set(cells)
    while unseen:
        stack = [unseen.pop()]
        orbit = set(stack)
        while stack:
            for nxt in images[stack.pop()]:
                if nxt not in orbit:
                    orbit.add(nxt)
                    stack.append(nxt)
        unseen -= orbit
        orbits.add(frozenset(orbit))
    return orbits

