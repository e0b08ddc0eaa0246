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
with r1 < r2 < r3.  The scan reports each witness once, from its row
triple, already in that labelling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import LatinError, LatinRectangle, is_orthogonal

#: the translate table of the identity, whose first n bytes are range(n)
_IDENTITY = bytes(range(256))


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

    Each witness is found once, from its row triple, and labelled with
    its rows in ascending order.
    """
    return set(_scan(s))


def is_k33_free(s: LatinRectangle) -> bool:
    """True iff the rectangle has no K3,3 witness (stops at the first row
    pair that has one)."""
    return next(_scan(s), None) is None


def _scan(s: LatinRectangle) -> Iterator[PatternOccurrence]:
    """Yield each witness once, found from its row triple r1 < r2 < r3.

    link(a, b)[c] is the column where row b holds row a's letter at column
    c.  The rows carry a witness with c3 = x exactly when
    link(r1, r2)[link(r2, r3)[x]] == link(r1, r3)[x]; then
    c2 = link(r2, r3)[x] and c1 = link(r1, r3)[x].  Links are bytes, so for
    each pair r1 < r2 one ``translate`` composes link(r1, r2) with the
    links from r2 to every later row, and one int XOR against the links
    from r1 to the same rows has a zero byte exactly at the witnesses.
    Letters must fit in a byte: more than 256 columns raise
    :class:`LatinError`.
    """
    m, n = s.m, s.n
    if n > 256:
        raise LatinError(f"the K3,3 scan handles at most 256 columns, got {n}")
    grid = s.rows
    # rows padded to 256 bytes, so that their links are translate tables
    rows = [bytes(row).ljust(256, b"\0") for row in grid]
    # pos[b]: the table sending a letter to its column in row b
    pos = [bytes.maketrans(row[:n], _IDENTITY[:n]) for row in rows]
    # after[a]: link(a, b) for every b > a, joined
    after = [b"".join([rows[a][:n].translate(pos[b]) for b in range(a + 1, m)])
             for a in range(m - 1)]
    for r1 in range(m - 2):
        after1, row1 = after[r1], grid[r1]
        word1, size1 = int.from_bytes(after1, "big"), len(after1)
        for r2 in range(r1 + 1, m - 1):
            # from byte start on, word1 holds link(r1, r3) for each r3 > r2,
            # and the XOR is 0 at a byte i exactly where there is a witness,
            # with x = i % n in row r3 = r1 + 1 + i // n
            start = (r2 - r1) * n
            link2 = after[r2]
            # link(r1, r2) as a translate table: only its first n bytes are read
            got = link2.translate(rows[r1].translate(pos[r2]))
            diff = (int.from_bytes(got, "big") ^ word1).to_bytes(size1, "big")
            row2 = grid[r2]
            i = diff.find(0, start)
            while i >= 0:
                x = i % n
                c2 = link2[i - start]
                yield PatternOccurrence(
                    (r1, r2, r1 + 1 + i // n),
                    (after1[i], c2, x),
                    (row2[x], row1[x], row1[c2]),
                )
                i = diff.find(0, i + 1)


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
