"""Exact linear algebra over GF(2) with int bitsets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass
class Gf2System:
    """A system of linear equations over GF(2).

    Each row is one int word: bit v is set when variable v is in the
    support, and bit ``n_vars`` holds the rhs the support sums to.
    Duplicate rows are harmless.
    """

    n_vars: int
    rows: list[int] = field(default_factory=list)

    def add_word(self, support: int, rhs: int) -> None:
        """Add the row whose support is the bit mask ``support``."""
        if not 0 <= support < 1 << self.n_vars:
            raise ValueError("variable index out of range")
        if rhs not in (0, 1):
            raise ValueError("rhs must be a bit")
        self.rows.append(support | rhs << self.n_vars)

    def check(self, vector: tuple[int, ...]) -> bool:
        """Re-substitution: does the 0/1 vector satisfy every row?"""
        bits = 1 << self.n_vars  # the rhs joins the parity
        for v, x in enumerate(vector):
            if x:
                bits |= 1 << v
        return all((word & bits).bit_count() % 2 == 0 for word in self.rows)


@dataclass
class Gf2SolutionSpace:
    """Affine solution space: particular solution plus kernel basis."""

    n_vars: int
    particular: tuple[int, ...] | None
    basis: list[tuple[int, ...]]

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def count(self) -> int:
        return (1 << self.dimension) if self.consistent else 0


def solve(sys: Gf2System) -> Gf2SolutionSpace:
    """Gaussian elimination with deterministic pivoting (lowest index first).

    Inconsistency is reported as ``particular is None``, not as an error.
    """
    n = sys.n_vars
    pivot_of_col, reduced, contradiction = _eliminate(sys.rows, n)
    if contradiction is not None:
        return Gf2SolutionSpace(n, None, [])
    pivots = sorted(pivot_of_col)
    free_cols = [c for c in range(n) if c not in pivot_of_col]

    particular = [0] * n
    for col in pivots:
        particular[col] = reduced[pivot_of_col[col]] >> n & 1

    basis = []
    for f in free_cols:
        vec = [0] * n
        vec[f] = 1
        for col in pivots:
            if reduced[pivot_of_col[col]] >> f & 1:
                vec[col] = 1
        basis.append(tuple(vec))
    return Gf2SolutionSpace(n, tuple(particular), basis)


def _eliminate(
    words: Iterable[int], n: int
) -> tuple[dict[int, int], list[int], int | None]:
    """Reduce ``words`` (rows in ``Gf2System``'s format over ``n`` variables)
    one at a time, as they are read.

    Returns the pivot row index of each pivot column, the fully reduced
    pivot rows and, if some word reduces to 0 = 1, its index.  That one
    word proves the system unsolvable, so no word after it is read.
    """
    pivot_of_col: dict[int, int] = {}
    reduced: list[int] = []
    for index, word in enumerate(words):
        for col, row_idx in pivot_of_col.items():
            if word >> col & 1:
                word ^= reduced[row_idx]
        if word == 0:
            continue
        low = (word & ((1 << n) - 1))
        if low == 0:
            # 0 = 1
            return pivot_of_col, reduced, index
        col = (low & -low).bit_length() - 1
        # back-substitute into existing rows
        for i, other in enumerate(reduced):
            if other >> col & 1:
                reduced[i] = other ^ word
        pivot_of_col[col] = len(reduced)
        reduced.append(word)
    return pivot_of_col, reduced, None


def enumerate_solutions(
    space: Gf2SolutionSpace, limit: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Gray-code walk of particular + span(basis), up to ``limit`` vectors."""
    if not space.consistent:
        raise ValueError("cannot enumerate an inconsistent system")
    assert space.particular is not None
    current = list(space.particular)
    total = 1 << space.dimension
    emitted = 0
    for i in range(total):
        if limit is not None and emitted >= limit:
            return
        yield tuple(current)
        emitted += 1
        if i + 1 < total:
            # Gray code: flip the basis vector indexed by the lowest set bit
            b = ((i + 1) & -(i + 1)).bit_length() - 1
            vec = space.basis[b]
            for j, bit in enumerate(vec):
                if bit:
                    current[j] ^= 1
