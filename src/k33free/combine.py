"""Switched combinations of orthogonal latin squares.

Two order-n squares on disjoint letter sets interleave into a 2n-by-2n
square: cell (i, j) reads block (i//2, j//2) of square A_b, where the
selector b = (i + j + S(i//2, j//2)) mod 2 and S is a binary switching
matrix with one bit per block.

For orthogonal inputs every K3,3 witness of a combination spans exactly
six blocks, and flipping the parity of a witness's six-block footprint
destroys it.  Killing every witness of the 0-combination is therefore a
linear system over GF(2): one equation per footprint, asking for odd
switching parity on its blocks.  A footprint is carried from the witness
scan to the system as one int bit mask over the n*n switching variables
(bit i*n + j is block (i, j)), which is also the equation's row word.
Most systems have no solution, so the search streams each pair's
equations from the scan into elimination and stops at the first that
reduces to 0 = 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import Grid, LatinError, LatinRectangle, is_orthogonal, validate
from .gf2 import Gf2System, _eliminate, solve
from .pattern import PatternOccurrence, _scan, find_k33, is_k33_free

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SwitchingMatrix:
    n: int
    bits: Grid

    def __post_init__(self):
        if len(self.bits) != self.n or any(len(row) != self.n for row in self.bits):
            raise ValueError("switching matrix must be n x n")
        if any(b not in (0, 1) for row in self.bits for b in row):
            raise ValueError("switching matrix entries must be 0/1")

    @classmethod
    def zeros(cls, n: int) -> "SwitchingMatrix":
        return cls(n, tuple((0,) * n for _ in range(n)))

    @classmethod
    def from_vector(cls, n: int, vec: Sequence[int]) -> "SwitchingMatrix":
        """Row-major bit vector (as produced by the GF(2) solver)."""
        if len(vec) != n * n:
            raise ValueError("vector length must be n*n")
        return cls(n, tuple(tuple(vec[i * n : (i + 1) * n]) for i in range(n)))

    def serialize(self) -> str:
        return "\n".join(" ".join(str(b) for b in row) for row in self.bits) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SwitchingMatrix":
        rows = tuple(
            tuple(int(tok) for tok in line.split())
            for line in text.splitlines()
            if line.strip()
        )
        return cls(len(rows), rows)


@dataclass(frozen=True, slots=True)
class BlockPattern:
    """The block footprint of a K3,3 witness of the 0-combination.

    ``mask`` has bit ``i*n + j`` set when the witness has a cell in block
    (i, j) of the order-n switching matrix, which is the GF(2) support of
    the witness's equation.  Ints are not tracked by the cyclic GC, so tens
    of thousands of footprints cost it nothing.
    """

    witness: PatternOccurrence
    mask: int
    n: int


def switched_combination(
    a0: LatinRectangle, a1: LatinRectangle, s: SwitchingMatrix
) -> LatinRectangle:
    """The 2n-by-2n interleaving of a0 (letters 2l) and a1 (letters 2l+1)."""
    n = a0.n
    if not (a0.is_square and a1.is_square and a1.n == n):
        raise LatinError("inputs must be squares of equal order")
    if s.n != n:
        raise LatinError("switching matrix order must match the squares")
    grids = (a0.rows, a1.rows)
    rows = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            b = (i + j + s.bits[i // 2][j // 2]) % 2
            row.append(2 * grids[b][i // 2][j // 2] + b)
        rows.append(tuple(row))
    return LatinRectangle(tuple(rows))


def _footprints(
    witnesses: Iterable[PatternOccurrence], n: int
) -> Iterator[tuple[PatternOccurrence, int]]:
    """Each witness of the order-2n 0-combination of an orthogonal pair
    with its block mask.

    A witness's cells are (r1, c2), (r1, c3), (r2, c3), (r2, c1), (r3, c1)
    and (r3, c2), so its mask is read off its rows and columns: the block
    row of row r starts at bit ``shift[r]``, and column c sets ``col_bit[c]``
    within it.  Orthogonality forces exactly six blocks per mask, so any
    other count raises :class:`LatinError`.
    """
    shift = [i // 2 * n for i in range(2 * n)]
    col_bit = [1 << j // 2 for j in range(2 * n)]
    for w in witnesses:
        r1, r2, r3 = w.rows
        c1, c2, c3 = w.cols
        b1, b2, b3 = col_bit[c1], col_bit[c2], col_bit[c3]
        mask = (b2 | b3) << shift[r1] | (b3 | b1) << shift[r2] | (b1 | b2) << shift[r3]
        if mask.bit_count() != 6:
            raise LatinError(
                f"a {mask.bit_count()}-block witness footprint: the pair is not orthogonal"
            )
        yield w, mask


def block_patterns(
    pair: tuple[LatinRectangle, LatinRectangle], zero_comb: LatinRectangle
) -> list[BlockPattern]:
    """Footprints of all K3,3 witnesses of the 0-combination of an
    orthogonal pair, each spanning exactly six blocks.

    A footprint of any other size shows that the pair is not orthogonal,
    and raises :class:`LatinError`.
    """
    n = pair[0].n
    return [BlockPattern(w, mask, n) for w, mask in _footprints(find_k33(zero_comb), n)]


def _first_contradiction(zero_comb: LatinRectangle, n: int) -> int | None:
    """Index, in scan order, of the first footprint equation of an orthogonal
    pair's 0-combination that reduces to 0 = 1, or None if none does.

    The equations are eliminated as the witness scan yields them, so an
    unsolvable system is rejected without scanning its remaining witnesses.
    """
    rhs = 1 << n * n
    words = (mask | rhs for _, mask in _footprints(_scan(zero_comb), n))
    return _eliminate(words, n * n)[2]


def build_system(patterns: Iterable[BlockPattern], n: int) -> Gf2System:
    """One equation per footprint: odd switching parity on its six blocks."""
    sys = Gf2System(n_vars=n * n)
    for p in patterns:
        if p.mask.bit_count() != 6:
            raise LatinError("footprint does not span six blocks")
        if p.n != n:
            raise LatinError(f"footprint of order {p.n}, expected {n}")
        sys.add_word(p.mask, 1)
    return sys


@dataclass
class SearchHit:
    index: int
    switching: SwitchingMatrix
    square: LatinRectangle
    solution_count: int
    kernel_dimension: int


def search_k33_free_combination(
    catalog: Iterable[tuple[LatinRectangle, LatinRectangle]],
) -> list[SearchHit]:
    """Solve the switching system for each pair; emit verified hits.

    A pair is rejected at the first footprint equation that reduces to
    0 = 1, as the witness scan yields it.  A pair with no such equation is
    scanned again into ``block_patterns`` and solved in full.  The linear
    system controls six-block witnesses only, so every candidate square is
    re-checked by the generic pattern scan before it is emitted.
    """
    hits = []
    for idx, (a0, a1) in enumerate(catalog):
        try:
            validate(a0.rows)
            validate(a1.rows)
            n = a0.n
            if not is_orthogonal(a0, a1):
                log.info("pair %d: not orthogonal, skipped", idx)
                continue
            zero = switched_combination(a0, a1, SwitchingMatrix.zeros(n))
            bad = _first_contradiction(zero, n)
            if bad is not None:
                log.info(
                    "pair %d: system unsolvable (equation %d, counted from 0, reduces to 0 = 1)",
                    idx, bad,
                )
                continue
            space = solve(build_system(block_patterns((a0, a1), zero), n))
            if space.particular is None:
                raise RuntimeError(
                    f"pair {idx}: no equation reduced to 0 = 1 but the system is unsolvable"
                )
            s = SwitchingMatrix.from_vector(n, space.particular)
            square = switched_combination(a0, a1, s)
            if not is_k33_free(square):
                raise RuntimeError(
                    f"pair {idx}: solved system but combination is not K3,3-free"
                )
            hits.append(
                SearchHit(idx, s, square, space.count, space.dimension)
            )
        except LatinError as exc:
            log.warning("pair %d: %s", idx, exc)
    return hits
