"""Eigenfunction and trade certificates on latin square graphs.

The graph of a square has the cells as vertices, adjacent when they share
a row, a column, or a letter.  A K3,3 pattern spans two triples of cells
that induce a K3,3 subgraph; the +/-1 indicator of the two triples is an
eigenfunction at eigenvalue -3 with the smallest possible support, and
the triples form a transversal trade of the smallest possible volume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import LatinError, LatinRectangle
from .pattern import PatternOccurrence, is_k33_free

Cell = tuple[int, int]


@dataclass(frozen=True)
class CellFunction:
    """A rational-valued function on the cells of a square."""

    square: LatinRectangle
    values: Mapping[Cell, Fraction]

    @property
    def support(self) -> set[Cell]:
        return {cell for cell, v in self.values.items() if v != 0}

    def __call__(self, cell: Cell) -> Fraction:
        return self.values.get(cell, Fraction(0))


@dataclass(frozen=True)
class Trade:
    t_plus: frozenset[Cell]
    t_minus: frozenset[Cell]

    def __post_init__(self):
        if self.t_plus & self.t_minus:
            raise LatinError("trade parts overlap")
        if not self.t_plus or not self.t_minus:
            raise LatinError("trade parts must be nonempty")


def check_eigenfunction(s: LatinRectangle, f: CellFunction, theta) -> bool:
    """Exact check of sum_{y ~ x} f(y) == theta * f(x) at every cell."""
    if not s.is_square:
        raise LatinError("eigenfunctions are defined for squares")
    if not f.support:
        raise LatinError("the zero function is not an eigenfunction")
    n = s.n
    theta = Fraction(theta)
    row_sum = [Fraction(0)] * n
    col_sum = [Fraction(0)] * n
    let_sum = [Fraction(0)] * n
    for (r, c), v in f.values.items():
        row_sum[r] += v
        col_sum[c] += v
        let_sum[s.rows[r][c]] += v
    cells = set(f.values)
    # every cell carrying a nonzero line sum must be checked too
    for r in range(n):
        if row_sum[r]:
            cells.update((r, c) for c in range(n))
    for c in range(n):
        if col_sum[c]:
            cells.update((r, c) for r in range(n))
    for l in range(n):
        if let_sum[l]:
            pos = [(r, row.index(l)) for r, row in enumerate(s.rows)]
            cells.update(pos)
    for r, c in cells:
        fx = f((r, c))
        neighbor_sum = row_sum[r] + col_sum[c] + let_sum[s.rows[r][c]] - 3 * fx
        if neighbor_sum != theta * fx:
            return False
    return True


def witness_to_eigenfunction(s: LatinRectangle, w: PatternOccurrence) -> CellFunction:
    """+1 on one part of the induced K3,3, -1 on the other; support 6."""
    plus, minus = w.parts
    values = {cell: Fraction(1) for cell in plus}
    values.update({cell: Fraction(-1) for cell in minus})
    return CellFunction(s, values)


def check_trade(s: LatinRectangle, t: Trade) -> bool:
    """Does every row, column and letter line meet both parts equally often?"""
    for axis in range(3):
        plus: dict[int, int] = {}
        minus: dict[int, int] = {}
        for part, counter in ((t.t_plus, plus), (t.t_minus, minus)):
            for r, c in part:
                key = (r, c, s.rows[r][c])[axis]
                counter[key] = counter.get(key, 0) + 1
        if plus != minus:
            return False
    return True


#: refuse exhaustive trade search above this volume
MAX_TRADE_CAP = 4


def min_trade_volume(s: LatinRectangle, cap: int = 3) -> int | None:
    """Least volume <= cap of a transversal trade of s, if any.

    Volumes 1 and 2 are impossible.  A volume-3 trade is exactly an induced
    K3,3: each part has distinct rows, columns and letters, and a plus
    cell's row-mate and column-mate in the minus part carry other letters,
    so the third minus cell carries its letter.  Only volume 4 is searched.
    """
    if not s.is_square:
        raise LatinError("trades are searched in squares")
    if not 1 <= cap <= MAX_TRADE_CAP:
        raise LatinError(f"cap {cap} is outside the search range 1..{MAX_TRADE_CAP}")
    if cap >= 3 and not is_k33_free(s):
        return 3
    return 4 if cap == 4 and _has_trade_of_volume(s, 4) else None


def _has_trade_of_volume(s: LatinRectangle, vol: int) -> bool:
    """Exhaustive search for a transversal trade of exactly this volume."""
    all_cells = [(r, c) for r in range(s.n) for c in range(s.n)]
    # a minus cell can only sit on rows, columns and letters that the
    # plus part already touches, which keeps the second stage tiny
    for plus in itertools.combinations(all_cells, vol):
        rows_used = {r for r, _ in plus}
        cols_used = {c for _, c in plus}
        lets_used = {s.rows[r][c] for r, c in plus}
        pool = [
            (r, c)
            for r in rows_used
            for c in cols_used
            if s.rows[r][c] in lets_used and (r, c) not in plus
        ]
        for minus in itertools.combinations(pool, vol):
            if check_trade(s, Trade(frozenset(plus), frozenset(minus))):
                return True
    return False
