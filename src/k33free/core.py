"""Latin rectangles and squares: representation, symmetry actions, orthogonality.

A latin rectangle is stored as an immutable m-by-n grid of letters in
``range(n)``.  Equivalently it is the set of triples ``(r, c, l)`` with
``grid[r][c] == l``; no two triples differ in exactly one position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

Grid = tuple[tuple[int, ...], ...]

#: the identity coordinate permutation (rows, columns, letters stay put)
CONJ_ID = (0, 1, 2)
#: swap the column and letter coordinates; the only non-identity conjugation
#: that preserves the shape of a proper rectangle (m < n)
CONJ_CL = (0, 2, 1)
ALL_CONJS = tuple(itertools.permutations((0, 1, 2)))


class LatinError(ValueError):
    """A grid violates the latin rectangle constraints."""


@dataclass(frozen=True)
class LatinRectangle:
    """An m-by-n latin rectangle over letters 0..n-1.

    Use :func:`validate` to build one from untrusted data; the constructor
    itself does not check anything.
    """

    rows: Grid

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    def triples(self) -> Iterator[tuple[int, int, int]]:
        for r, row in enumerate(self.rows):
            for c, l in enumerate(row):
                yield (r, c, l)

    def column_positions(self) -> list[list[int]]:
        """pos[r][l] = column where row r holds letter l."""
        n = self.n
        pos = []
        for row in self.rows:
            inv = [0] * n
            for c, l in enumerate(row):
                inv[l] = c
            pos.append(inv)
        return pos


def validate(cells: Sequence[Sequence[int]]) -> LatinRectangle:
    """Check the latin constraints and wrap the grid.

    Raises :class:`LatinError` naming the first violated constraint.
    """
    if not cells or not cells[0]:
        raise LatinError("empty grid")
    m = len(cells)
    n = len(cells[0])
    if m > n:
        raise LatinError(f"more rows ({m}) than columns ({n})")
    for r, row in enumerate(cells):
        if len(row) != n:
            raise LatinError(f"row {r} has {len(row)} entries, expected {n}")
        for c, l in enumerate(row):
            if not (0 <= l < n):
                raise LatinError(f"entry {l} at ({r},{c}) out of range [0,{n})")
        if len(set(row)) != n:
            seen: set[int] = set()
            for l in row:
                if l in seen:
                    raise LatinError(f"duplicate letter {l} in row {r}")
                seen.add(l)
    for c in range(n):
        seen = set()
        for r in range(m):
            l = cells[r][c]
            if l in seen:
                raise LatinError(f"duplicate letter {l} in column {c}")
            seen.add(l)
    return LatinRectangle(tuple(tuple(row) for row in cells))


@dataclass(frozen=True)
class Paratopism:
    """(row perm, column perm, letter perm, conjugation).

    ``conj`` is a permutation sigma of (0,1,2); it sends the triple t to
    ``(t[sigma[0]], t[sigma[1]], t[sigma[2]])`` before the isotopy part acts.
    Pure isotopisms have ``conj == (0, 1, 2)``.
    """

    rho: tuple[int, ...]
    gamma: tuple[int, ...]
    lam: tuple[int, ...]
    conj: tuple[int, int, int] = CONJ_ID

    def inverse(self) -> "Paratopism":
        sigma = self.conj
        sigma_inv = _perm_inverse(sigma)
        maps = (self.rho, self.gamma, self.lam)
        inv_maps = tuple(_perm_inverse(maps[sigma_inv[j]]) for j in range(3))
        return Paratopism(inv_maps[0], inv_maps[1], inv_maps[2], tuple(sigma_inv))

    def compose(self, other: "Paratopism") -> "Paratopism":
        """self after other: apply(self.compose(other), s) == apply(self, apply(other, s))."""
        sp, sq = self.conj, other.conj
        sigma = tuple(sq[sp[i]] for i in range(3))
        mp = (self.rho, self.gamma, self.lam)
        mq = (other.rho, other.gamma, other.lam)
        maps = tuple(tuple(map(mp[i].__getitem__, mq[sp[i]])) for i in range(3))
        return Paratopism(maps[0], maps[1], maps[2], sigma)

    def act_triple(self, t: tuple[int, int, int]) -> tuple[int, int, int]:
        s = self.conj
        u = (t[s[0]], t[s[1]], t[s[2]])
        return (self.rho[u[0]], self.gamma[u[1]], self.lam[u[2]])


def _perm_inverse(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def shape_preserving_conjs(m: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """Conjugations allowed for an m-by-n rectangle: all six iff m == n."""
    if m == n:
        return ALL_CONJS
    return (CONJ_ID, CONJ_CL)


def conjugate(s: LatinRectangle, sigma: tuple[int, int, int]) -> LatinRectangle:
    """The conjugate rectangle {(t[sigma0], t[sigma1], t[sigma2])}."""
    if sigma == CONJ_ID:
        return s
    if sigma not in shape_preserving_conjs(s.m, s.n):
        raise LatinError(f"conjugation {sigma} does not preserve shape {s.m}x{s.n}")
    i, j, k = sigma
    new = [[-1] * s.n for _ in range(s.m)]
    for t in s.triples():
        new[t[i]][t[j]] = t[k]
    return LatinRectangle(tuple(tuple(row) for row in new))


def apply(p: Paratopism, s: LatinRectangle) -> LatinRectangle:
    """Image of s under the paratopism p (conjugation first, then isotopy)."""
    t = conjugate(s, p.conj)
    m, n = t.m, t.n
    if len(p.rho) != m or len(p.gamma) != n or len(p.lam) != n:
        raise LatinError("paratopism size does not match rectangle shape")
    new = [[-1] * n for _ in range(m)]
    rho, gamma, lam = p.rho, p.gamma, p.lam
    for r, row in enumerate(t.rows):
        nr = rho[r]
        target = new[nr]
        for c, l in enumerate(row):
            target[gamma[c]] = lam[l]
    return LatinRectangle(tuple(tuple(row) for row in new))


def is_orthogonal(a0: LatinRectangle, a1: LatinRectangle) -> bool:
    """True iff superimposing the squares yields all n^2 ordered letter pairs."""
    if not (a0.is_square and a1.is_square and a0.n == a1.n):
        raise LatinError("orthogonality is defined for squares of equal order")
    n = a0.n
    seen = [False] * (n * n)
    for r in range(n):
        r0, r1 = a0.rows[r], a1.rows[r]
        for c in range(n):
            key = r0[c] * n + r1[c]
            if seen[key]:
                return False
            seen[key] = True
    return True


# ---------------------------------------------------------------------------
# group tables


def linear_square(n: int, alpha: int, beta: int) -> LatinRectangle:
    """The square S(r, c) = alpha*r + beta*c mod n.

    Latin exactly when both coefficients are units mod n; intended for
    prime n, where that just means alpha, beta != 0.
    """
    if gcd(alpha % n, n) != 1 or gcd(beta % n, n) != 1:
        raise LatinError(f"coefficients {alpha}, {beta} are not units mod {n}")
    return LatinRectangle(
        tuple(
            tuple((alpha * r + beta * c) % n for c in range(n)) for r in range(n)
        )
    )


def slope_pair_orbit(pair: frozenset[int], p: int) -> frozenset[frozenset[int]]:
    """Equivalence class of the slope pair {s, t} of squares r + s*c over GF(p).

    Closes the pair under scaling both slopes by a unit, inverting both
    (transposing the squares) and exchanging the rows with the letters of
    either square; pairs with a zero or repeated slope are dropped.
    """
    inv = {a: pow(a, p - 2, p) for a in range(1, p)}
    seen = {pair}
    stack = [pair]
    while stack:
        s, t = sorted(stack.pop())
        images = [frozenset(((s * b) % p, (t * b) % p)) for b in range(1, p)]
        images.append(frozenset((inv[s], inv[t])))
        images.append(frozenset(((-s) % p, (t - s) % p)))
        images.append(frozenset(((-t) % p, (s - t) % p)))
        for q in images:
            if len(q) == 2 and 0 not in q and q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def group_table(spec: str) -> LatinRectangle:
    """Cayley table of a supported finite group, as a latin square.

    Accepted specs: ``Z<n>`` (cyclic), products like ``Z2xZ4``, and ``D<n>``
    (dihedral, order 2n, n >= 3).  Case-insensitive; underscores ignored.
    """
    name = spec.replace("_", "").replace(" ", "").upper()
    if not name:
        raise LatinError("empty group spec")
    if name.startswith("D") and "X" not in name:
        k = _parse_order(name[1:], spec)
        if k < 3:
            raise LatinError(f"dihedral D{k} needs n >= 3")
        return _dihedral_table(k)
    factors = []
    for part in name.split("X"):
        if not part.startswith("Z"):
            raise LatinError(f"unsupported group family: {spec!r}")
        factors.append(_parse_order(part[1:], spec))
    return _abelian_product_table(factors)


def _parse_order(text: str, spec: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise LatinError(f"bad group order in spec {spec!r}")
    return int(text)


def _abelian_product_table(factors: list[int]) -> LatinRectangle:
    elems = list(itertools.product(*(range(k) for k in factors)))
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    rows = []
    for a in elems:
        rows.append(
            tuple(index[tuple((x + y) % k for x, y, k in zip(a, b, factors))] for b in elems)
        )
    return LatinRectangle(tuple(rows))


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

    rows = [tuple(index[mul(a, b)] for b in elems) for a in elems]
    return LatinRectangle(tuple(rows))


def supported_group_specs(max_order: int) -> list[str]:
    """All supported group specs of order 3..max_order (one per isomorphism type)."""
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


# ---------------------------------------------------------------------------
# text format: first line "m n", then m rows of space-separated letters


def serialize(s: LatinRectangle) -> str:
    lines = [f"{s.m} {s.n}"]
    lines.extend(" ".join(str(l) for l in row) for row in s.rows)
    return "\n".join(lines) + "\n"


def parse(text: str) -> LatinRectangle:
    lines = [ln for ln in text.strip().splitlines()]
    if not lines:
        raise LatinError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise LatinError(f"bad header line {lines[0]!r}, expected 'm n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise LatinError(f"bad header line {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise LatinError(f"expected {m} rows, got {len(lines) - 1}")
    grid = []
    for idx, ln in enumerate(lines[1:]):
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise LatinError(f"malformed line {idx + 2}: {ln!r}") from None
        if len(row) != n:
            raise LatinError(f"line {idx + 2}: {len(row)} entries, expected {n}")
        grid.append(row)
    return validate(grid)


def parse_catalog(text: str) -> list[LatinRectangle]:
    """Parse rectangle records separated by blank or whitespace-only lines."""
    groups = itertools.groupby(text.splitlines(), key=lambda ln: bool(ln.strip()))
    return [parse("\n".join(block)) for filled, block in groups if filled]


def serialize_catalog(items: Iterable[LatinRectangle]) -> str:
    return "\n".join(serialize(s) for s in items)
