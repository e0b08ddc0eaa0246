"""Detection of forbidden K3,3 configurations and induced K_{t,t} subgraphs.

A witness consists of six cells, two in each of three rows, three columns and
three letters, arranged as

    .  A  B
    A  .  C
    B  C  .

Role-labelled, the cells are (r1,c2,l3), (r2,c3,l1), (r3,c1,l2) in one part
and (r2,c1,l3), (r3,c2,l1), (r1,c3,l2) in the other.  Permuting the three
role indices relabels the same witness (odd permutations swap the parts);
of these six labellings the canonical one is the least, which is the one
with r1 < r2 < r3.  The scan reports each witness once, from its least
column, already in that labelling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import LatinRectangle, is_orthogonal


@dataclass(frozen=True, slots=True)
class PatternOccurrence:
    """A six-cell K3,3 witness in its canonical role labelling (rows ascending)."""

    rows: tuple[int, int, int]
    cols: tuple[int, int, int]
    letters: tuple[int, int, int]

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        r1, r2, r3 = self.rows
        c1, c2, c3 = self.cols
        return ((r1, c2), (r2, c3), (r3, c1), (r2, c1), (r3, c2), (r1, c3))

    @property
    def parts(self) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
        cs = self.cells
        return (frozenset(cs[:3]), frozenset(cs[3:]))

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "letters": list(self.letters),
            "cells": [list(c) for c in self.cells],
        }


def find_k33(s: LatinRectangle) -> set[PatternOccurrence]:
    """All K3,3 witnesses of the rectangle, duplicate-free.

    Each witness is found once, from its least column, and labelled with
    its rows in ascending order.
    """
    return set(_scan(s))


def is_k33_free(s: LatinRectangle) -> bool:
    """True iff the rectangle has no K3,3 witness (stops at the first)."""
    return next(_scan(s), None) is None


def _scan(s: LatinRectangle) -> Iterator[PatternOccurrence]:
    """Yield each witness once, found from its least column c1.

    Row r1 holds at columns c2, c3 > c1 the letters that rows r2 < r3 hold
    at column c1, so for each (c1, r1) only the rows whose letter sits right
    of c1 in row r1 are paired up.
    """
    m, n = s.m, s.n
    grid = s.rows
    pos = s.column_positions()
    for c in range(n):
        col = [row[c] for row in grid]
        for t in range(m):
            pt = pos[t]
            # row t holds its own letter at c, so it is never among these
            later = [(r, l, pt[l]) for r, l in enumerate(col) if pt[l] > c]
            for i, (rp, lp, cp) in enumerate(later):
                gp = grid[rp]
                for rq, lq, cq in later[i + 1:]:
                    lx = gp[cq]
                    if lx != grid[rq][cp]:
                        continue
                    # roles: r1=t r2=rp r3=rq, c1=c c2=cp c3=cq,
                    # l1=lx l2=lq l3=lp; relabel so that the rows ascend
                    # (rp < rq already, so only the place of t decides)
                    if t < rp:
                        yield PatternOccurrence((t, rp, rq), (c, cp, cq), (lx, lq, lp))
                    elif t < rq:
                        yield PatternOccurrence((rp, t, rq), (cp, c, cq), (lq, lx, lp))
                    else:
                        yield PatternOccurrence((rp, rq, t), (cp, cq, c), (lq, lp, lx))


# ---------------------------------------------------------------------------
# induced K_{t,t} search on the cell graph of k mutually orthogonal squares


def find_induced_ktt(
    squares: list[LatinRectangle], t: int
) -> set[frozenset[frozenset[tuple[int, int]]]]:
    """All induced complete bipartite K_{t,t} subgraphs of the collection graph.

    Vertices are the n^2 cells; two cells are adjacent iff they share a row,
    a column, or a letter in any of the squares.  Witnesses are returned as
    unordered part-pairs of t-cell sets.

    Each witness is found once: its part A is the one holding its least
    cell, and part B is drawn from the common neighbourhood of A above that
    cell.  One walk finds both parts.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if not squares:
        raise ValueError("need at least one square")
    for a, b in itertools.combinations(squares, 2):
        if not is_orthogonal(a, b):
            raise ValueError("input squares are not pairwise orthogonal")

    # one bitmask per line: a row, a column, or one letter of one square
    m, n = squares[0].m, squares[0].n
    cells = [(r, c) for r in range(m) for c in range(n)]
    lines_of = [[("row", r), ("col", c)] + [(k, sq.rows[r][c]) for k, sq in enumerate(squares)]
                for r, c in cells]
    line_mask: dict = {}
    for i, lines in enumerate(lines_of):
        for line in lines:
            line_mask[line] = line_mask.get(line, 0) | 1 << i
    adj = []
    for i, lines in enumerate(lines_of):
        mask = 0
        for line in lines:
            mask |= line_mask[line]
        adj.append(mask & ~(1 << i))

    def parts(cand: int, common: int, chosen: tuple[int, ...]):
        """Each independent t-set made of ``chosen`` and cells of ``cand``, in
        ascending order, with its common neighbourhood within ``common``,
        which must hold at least t cells."""
        if len(chosen) == t:
            yield chosen, common
            return
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            shared = common & adj[i]
            if shared.bit_count() >= t:
                yield from parts(cand & ~adj[i], shared, chosen + (i,))

    full = (1 << len(cells)) - 1
    witnesses: set[frozenset[frozenset[tuple[int, int]]]] = set()
    for part_a, common in parts(full, full, ()):
        above = common & ~((2 << part_a[0]) - 1)
        for part_b, _ in parts(above, full, ()):
            pair = (frozenset(cells[i] for i in part) for part in (part_a, part_b))
            witnesses.add(frozenset(pair))
    return witnesses
