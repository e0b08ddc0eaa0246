"""Canonical forms under paratopy/isotopy and symmetry-group computation.

The canonical representative of a class is its image under the allowed
group (row, column and letter permutations, plus the shape-preserving
conjugations at main level) picked by three group-invariant rules in turn
(so it is not the lex-least cell matrix):

1. Rows 0 and 1 come from a (conjugation, row r0, row r1) triple of the
   distinguished cycle type: the permutation linking r0 and r1 has the
   fewest conjugating maps, then the least cycle type (ascending cycle
   lengths, compared as tuples), which orders triples as the lex-least
   one-line forms of the types do.
2. Only the triples of least row-cycle invariant are expanded: the sorted
   multiset, over the other rows r, of (cycle type of (r0, r), cycle type
   of (r1, r)), after McKay, Meynert & Myrvold (J. Combin. Des. 2007).
3. The lex-least tail (rows 2..m-1, compared row by row) wins.

The search exploits latin structure instead of permuting blindly:

* row 0 of any candidate image can always be normalized to 0..n-1, so it is
  never stored or searched;
* row 1 is the one-line form of a conjugate of the column permutation linking
  r0 and r1, fixed by its cycle type (cycles sorted by ascending length, laid
  out on consecutive positions); the branching enumerates which cycle lands
  on which block and with which rotation;
* once the column map is complete the images of the remaining rows are fixed
  and their optimal order is just sorted order.

Each complete column map is a leaf; it names the paratopism P(leaf) that
sends the rectangle s to rows 0, 1 and the leaf's tail.  The automorphism
group Aut(s) permutes the triples of rules 1 and 2, since the allowed group
keeps both keys, and an automorphism a maps the leaves of a triple T one
to one onto those of its image with equal tails (P(leaf) to P(leaf).a^-1).
Conversely two leaves lam, mu with equal tails give the automorphism
P(lam)^-1 . P(mu), which maps mu's triple onto lam's.  This gives the pruning
rule (orbit pruning by the automorphisms found so far, as in McKay & Piperno,
"Practical graph isomorphism II", J. Symbolic Comput. 60, 2014):

4. Every automorphism found is kept as a generator: P(lam)^-1 . P(mu) for
   the two equal-tail leaves that drop a triple (below), and
   P(first)^-1 . P(leaf) for each further minimal leaf of the triple
   holding the best tail.  A generator g with conjugation kappa maps the
   triple (sigma, r0, r1) onto (kappa^-1 . sigma, pi(r0), pi(r1)), where pi
   is g's map on the image's row coordinate, and a union-find merges each
   triple not yet reached with its images.  A triple whose class already
   holds a fully explored triple is skipped: its tails are those of that
   triple.  A triple T expanded anyway is dropped at its first leaf with
   the tail of a leaf of a fully explored triple R: T is an image of R, and
   the two leaves give a new generator mapping R onto T.  Tails are checked
   against the best tail and, from the first leaf on, against a table of
   the explored triples' tails, so a triple can be dropped before any
   automorphism has shown up.

The minimal leaves are a coset of Aut(s), all of them in the orbit of T*,
the first triple holding the least tail, and T* is fully explored.  Its
minimal leaves give Stab(T*), the stabilizer of T* in Aut(s).  Every other
triple of its orbit is skipped or dropped, and so ends in the class of T*,
which then is the whole orbit (each merge is by an automorphism).  So, by
orbit-stabilizer, the order is |minimal leaves of T*| x |class of T*|.  A
breadth-first search from T* over the generators gives a transversal, one
automorphism mapping T* onto each triple of the orbit, and Aut(s) is the
transversal times Stab(T*).  So the generators, which hold Stab(T*),
generate Aut(s): cell orbits are their closures, and the elements are
listed only when read.  The conjugations of the minimal leaves are
those of the triples of that orbit, and they make a coset of the image of
Aut(s) in the conjugation group: isotopy classes = |conjugations| / |image|.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from math import factorial
from typing import NamedTuple

from .core import (
    CONJ_ID,
    LatinRectangle,
    Paratopism,
    conjugate,
    shape_preserving_conjs,
)

Level = str  # 'main' | 'isotopy'

#: the most tails the table of explored triples holds (bounds search memory;
#: a tail left out only lets a triple be expanded that could be dropped)
_TAIL_TABLE_CAP = 100_000


def allowed_group_order(m: int, n: int) -> int:
    """Order of the main-class group of the m-by-n shape."""
    return factorial(m) * factorial(n) ** 2 * len(shape_preserving_conjs(m, n))


def _cycles_of(perm: tuple[int, ...]) -> list[list[int]]:
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        cycles.append(cyc)
    return cycles


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    """Cycle type (ascending lengths) of a permutation, with no cycle lists built.

    Each cycle is walked from its least point, which no later start can
    reach, so the starts go unmarked.
    """
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        k = 1
        x = perm[start]
        while x != start:
            seen[x] = True
            x = perm[x]
            k += 1
        lengths.append(k)
    lengths.sort()
    return tuple(lengths)


def _link_type(pos_a: list[int], row_b: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type (ascending lengths) of the permutation linking two rows.

    ``pos_a`` is the inverse of row a; the permutation c -> pos_a[row_b[c]]
    and its inverse (the same pair read from b) have the same type.
    """
    return _cycle_type([pos_a[l] for l in row_b])


@functools.cache
def _centralizer_order(lengths: tuple[int, ...]) -> int:
    """Number of permutations commuting with one of this cycle type."""
    out = 1
    for ell in set(lengths):
        reps = lengths.count(ell)
        out *= ell**reps * factorial(reps)
    return out


def _type_row(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """Lex-least one-line form of a permutation with the given cycle type."""
    row = []
    p = 0
    for ell in lengths:
        row.extend(range(p + 1, p + ell))
        row.append(p)
        p += ell
    return tuple(row)


class _Abandon(Exception):
    """The triple being expanded is an automorphic image of an explored one."""


class _Search:
    """Minimization over one shape, pruned by the automorphisms it finds."""

    def __init__(self, s: LatinRectangle, level: Level):
        self.m, self.n = s.m, s.n
        if level == "isotopy":
            self.conjs = (CONJ_ID,)
        else:
            self.conjs = shape_preserving_conjs(self.m, self.n)
        # per conjugate: its grid and pos[r][l], the column of letter l in row r
        self.images = []
        for sigma in self.conjs:
            t = conjugate(s, sigma)
            self.images.append((sigma, t.rows, t.column_positions()))
        self.gens: list[Paratopism] = []
        self.actions: list[dict] = []

    def run(self) -> tuple[LatinRectangle, int, int]:
        """(form, stabilizer order, isotopy classes).

        The minimal leaves of the triple T* that holds the least tail,
        ``(sigma, row_order, col2pos)``, are left in ``self.leaves``, to be
        read once (for a single row it is an iterator); ``self.gens`` holds
        the automorphisms found and ``self.actions`` their maps of the
        triples, which :meth:`elements` reads.
        """
        m, n = self.m, self.n
        if m == 1:
            return self._run_single_row()

        # gather (sigma, grid, pos, r0, r1) for the distinguished cycle type:
        # fewest conjugating maps first (keeps the expansion small for
        # squares rich in short cycles), then least cycle type.
        # types_of[sigma[0]][a][b] is the link type of rows a and b; it is
        # symmetric, and shared by the two conjugates with the same row
        # coordinate (column<->letter turns a^-1 b into a b^-1, of one type)
        best_key: tuple | None = None
        group: list[tuple] = []
        types_of = {}
        for sigma, grid, pos in self.images:
            if sigma[0] not in types_of:
                types_of[sigma[0]] = types = [[()] * m for _ in range(m)]
                for a, b in itertools.combinations(range(m), 2):
                    types[a][b] = types[b][a] = _link_type(pos[a], grid[b])
            types = types_of[sigma[0]]
            for r0 in range(m):
                for r1 in range(m):
                    if r1 == r0:
                        continue
                    lengths = types[r0][r1]
                    key = (_centralizer_order(lengths), lengths)
                    entry = (sigma, grid, pos, r0, r1)
                    if best_key is None or key < best_key:
                        best_key = key
                        group = [entry]
                    elif key == best_key:
                        group.append(entry)
        assert best_key is not None

        # row-cycle refinement: keep the triples of least invariant
        invariants = [
            sorted(
                (types_of[sg[0]][r0][r], types_of[sg[0]][r1][r])
                for r in range(m) if r not in (r0, r1)
            )
            for sg, _, _, r0, r1 in group
        ]
        least = min(invariants)
        self.triples = [entry for entry, inv in zip(group, invariants) if inv == least]

        self.best_tail: list[tuple[int, ...]] | None = None
        self.owner = -1  # index of the triple holding best_tail
        self.leaves: list[tuple] = []
        # union-find over the triples, and per root whether its class holds
        # a fully explored triple
        self.parent = list(range(len(self.triples)))
        self.index = {(sg, r0, r1): u for u, (sg, _, _, r0, r1) in enumerate(self.triples)}
        self.explored = [False] * len(self.triples)
        # tail bytes -> (triple, leaf) over the fully explored triples, kept
        # from the first leaf on
        self.seen: dict[bytes, tuple[int, tuple]] = {}
        for t, entry in enumerate(self.triples):
            if not self.explored[self._root(t)]:
                self._expand(t, *entry)

        assert self.best_tail is not None
        canon = LatinRectangle((tuple(range(n)), _type_row(best_key[1]), *self.best_tail))
        # orbit-stabilizer over the class of T*, which is its whole orbit
        root = self._root(self.owner)
        orbit = [u for u in range(len(self.triples)) if self._root(u) == root]
        conjs = {self.triples[u][0] for u in orbit}
        return canon, len(self.leaves) * len(orbit), len(self.conjs) // len(conjs)

    # -- expansion of one (sigma, r0, r1) triple ---------------------------

    def _expand(self, t, sigma, grid, pos, r0, r1):
        m, n = self.m, self.n
        pos0 = pos[r0]
        cycles = _cycles_of([pos0[l] for l in grid[r1]])
        by_len: dict[int, list[list[int]]] = {}
        for cy in cycles:
            by_len.setdefault(len(cy), []).append(cy)
        lengths = sorted(len(cy) for cy in cycles)

        other_rows = [r for r in range(m) if r != r0 and r != r1]
        pis = {r: [pos0[l] for l in grid[r]] for r in other_rows}

        col2pos = [-1] * n
        used = {ell: [False] * len(cys) for ell, cys in by_len.items()}

        def assign_block(bi: int, p: int):
            if bi == len(lengths):
                self._evaluate(t, sigma, r0, r1, pis, other_rows, col2pos)
                return
            ell = lengths[bi]
            cys = by_len[ell]
            flags = used[ell]
            for ci, cy in enumerate(cys):
                if flags[ci]:
                    continue
                flags[ci] = True
                for off in range(ell):
                    # cycle element cy[off] sits at position p, successive
                    # elements at successive positions
                    for k in range(ell):
                        col2pos[cy[(off + k) % ell]] = p + k
                    assign_block(bi + 1, p + ell)
                for k in range(ell):
                    col2pos[cy[k]] = -1
                flags[ci] = False

        self.pending: list[tuple[bytes, tuple[int, tuple]]] = []
        try:
            assign_block(0, 0)
        except _Abandon:
            return
        self.explored[self._root(t)] = True
        self.seen.update(self.pending)

    def _evaluate(self, t, sigma, r0, r1, pis, other_rows, col2pos):
        pos2col = [0] * self.n
        for c, p in enumerate(col2pos):
            pos2col[p] = c
        imgs = sorted(
            (tuple([col2pos[pis[r][c]] for c in pos2col]), r) for r in other_rows
        )
        tail = [img for img, _ in imgs]
        best = self.best_tail
        leaf = (sigma, [r0, r1] + [r for _, r in imgs], tuple(col2pos))
        if best is None or tail < best:
            self.best_tail = tail
            self.owner = t
            self.leaves = []
        elif tail > best:
            # a hit in the table (kept from the first leaf) makes the triple an image of the hit's
            key = bytes(itertools.chain.from_iterable(tail))
            hit = self.seen.get(key)
            if hit is not None:
                self._abandon(t, hit, leaf)
            if len(self.seen) + len(self.pending) < _TAIL_TABLE_CAP:
                self.pending.append((key, (t, leaf)))
            return
        elif self.owner != t:
            # the best tail again: the current triple is an image of its owner
            self._abandon(t, (self.owner, self.leaves[0]), leaf)
        else:
            # a second minimal leaf: an automorphism fixing the current triple
            self._add_generator(t, self.leaves[0], leaf)
        self.leaves.append(leaf)

    def _abandon(self, t: int, hit: tuple[int, tuple], leaf: tuple):
        """Drop triple ``t``: its ``leaf`` has the tail of ``hit``'s leaf.

        The two leaves differ by an automorphism that maps the explored triple
        onto triple ``t``, so ``t`` adds no new tail.
        """
        explored, theirs = hit
        self._add_generator(t, leaf, theirs)
        self._merge(t, explored)
        raise _Abandon

    # -- automorphisms and the orbits of the triples -----------------------

    def _paratopism(self, leaf: tuple) -> Paratopism:
        """P(leaf): the paratopism that sends s to the leaf's image."""
        sigma, row_order, col2pos = leaf
        rho = [0] * len(row_order)
        for position, r in enumerate(row_order):
            rho[r] = position
        # row_order[0] becomes the identity row: its letter at column c
        # goes to the letter col2pos[c]
        grid = next(g for sg, g, _ in self.images if sg == sigma)
        lam = [0] * len(col2pos)
        for c, l in enumerate(grid[row_order[0]]):
            lam[l] = col2pos[c]
        return Paratopism(tuple(rho), col2pos, tuple(lam), sigma)

    def _add_generator(self, t: int, mine: tuple, theirs: tuple):
        """Keep P(mine)^-1 . P(theirs), an automorphism of s, as a generator.

        It maps the triple of ``theirs`` onto that of ``mine``, and
        ``(sigma, r0, r1)`` onto ``(conj^-1 . sigma, pi(r0), pi(r1))``, where
        pi is its map on the image's row coordinate.  Every triple from ``t``
        on is merged with its image: the triples before ``t`` are all in
        classes that hold an explored triple already, so their merges could
        not skip anything.
        """
        g = self._paratopism(mine).inverse().compose(self._paratopism(theirs))
        conj_inv = [0, 0, 0]
        for i, x in enumerate(g.conj):
            conj_inv[x] = i
        maps = (g.rho, g.gamma, g.lam)
        action = {}
        for sigma in self.conjs:
            image = tuple(conj_inv[x] for x in sigma)
            action[sigma] = (image, maps[image[0]])
        self.gens.append(g)
        self.actions.append(action)
        # this loop is the cost of a generator
        index, triples = self.index, self.triples
        for u in range(t, len(triples)):
            sigma, _, _, r0, r1 = triples[u]
            image, pi = action[sigma]
            v = index[image, pi[r0], pi[r1]]
            if v != u:
                self._merge(u, v)

    def _root(self, u: int) -> int:
        parent = self.parent
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    def _merge(self, u: int, v: int):
        ru, rv = self._root(u), self._root(v)
        if ru != rv:
            self.parent[ru] = rv
            self.explored[rv] = self.explored[rv] or self.explored[ru]

    def elements(self) -> list[Paratopism]:
        """Every automorphism: a transversal times Stab(T*).

        Stab(T*) is P(first)^-1 . P(leaf) over the minimal leaves of T*.  The
        transversal, one automorphism mapping T* onto each other triple of its
        orbit, comes from a breadth-first search from T* over the generators.
        """
        maps = [self._paratopism(leaf) for leaf in self.leaves]
        g0_inv = maps[0].inverse()
        fixing = [g0_inv.compose(g) for g in maps]
        shifts = {self.owner: None}
        queue = [self.owner]
        for u in queue:
            c = shifts[u]
            for g, action in zip(self.gens, self.actions):
                sigma, _, _, r0, r1 = self.triples[u]
                image, pi = action[sigma]
                v = self.index[image, pi[r0], pi[r1]]
                if v not in shifts:
                    shifts[v] = g if c is None else g.compose(c)
                    queue.append(v)
        return fixing + [c.compose(h) for c in list(shifts.values())[1:] for h in fixing]

    # -- degenerate single-row shape ---------------------------------------

    def _run_single_row(self):
        # any single row normalizes to the identity, so every column map,
        # under every conjugation, is a minimal leaf (its letter map is
        # forced) and the main class is one isotopy class; the leaves are
        # produced lazily, as only a listing of the elements reads them.
        # The leaves make one pseudo-triple T*, which every generator fixes
        # (so no action is kept): the n-cycle and a transposition of the
        # columns, letters following, and each other conjugation
        n = self.n
        identity = tuple(range(n))
        self.leaves = (
            (sg, [0], gamma) for sg in self.conjs for gamma in itertools.permutations(identity)
        )
        self.owner = 0
        moves = [(CONJ_ID, [0], identity[1:] + identity[:1])]
        moves += [(CONJ_ID, [0], identity[1::-1] + identity[2:])]
        moves += [(sigma, [0], identity) for sigma in self.conjs[1:]]
        g0_inv = self._paratopism((CONJ_ID, [0], identity)).inverse()
        self.gens = [g0_inv.compose(self._paratopism(leaf)) for leaf in moves]
        return LatinRectangle((identity,)), factorial(n) * len(self.conjs), 1


class _Listed(Sequence):
    """The list that ``build()`` returns, built at its first read."""

    def __init__(self, build):
        self._build = build

    @functools.cached_property
    def _items(self) -> list:
        return self._build()

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        return iter(self._items)


class Stabilized(NamedTuple):
    """What :func:`canonical_with_stabilizer` returns.

    The isotopy class count of the same search comes from
    :func:`canonical_with_order`.
    """

    form: LatinRectangle
    order: int  # exact stabilizer order
    elements: Sequence[Paratopism]  # every element fixing the rectangle, listed at first read
    generators: list[Paratopism]  # automorphisms that generate the whole stabilizer


def canonical_with_order(
    s: LatinRectangle, level: Level = "main"
) -> tuple[LatinRectangle, int, int]:
    """(canonical form, stabilizer order, isotopy classes), with no element list."""
    return _Search(s, level).run()


def canonical_form(s: LatinRectangle, level: Level = "main") -> LatinRectangle:
    """Distinguished class representative; idempotent."""
    return canonical_with_order(s, level)[0]


def canonical_with_stabilizer(s: LatinRectangle, level: Level = "main") -> Stabilized:
    """Canonical form, stabilizer order, elements and generators.

    The elements and generators fix ``s`` itself (not the canonical form)
    and their conj component is the identity when ``level == 'isotopy'``.
    """
    search = _Search(s, level)
    canon, count, _ = search.run()
    return Stabilized(canon, count, _Listed(search.elements), search.gens)


def symmetry_group(s: LatinRectangle, kind: str = "autotopism") -> Stabilized:
    """Full stabilizer of the rectangle, with exact order.

    kind 'autotopism' restricts to pure isotopisms; 'paratopism' allows the
    shape-preserving conjugations as well.
    """
    level = "isotopy" if kind == "autotopism" else "main"
    return canonical_with_stabilizer(s, level)


def cell_orbits(group: Stabilized, s: LatinRectangle) -> list[set[tuple[int, int]]]:
    """Orbit partition of the cells of s under the stabilizer.

    The stabilizer permutes the triples (r, c, s[r][c]) of s, so it permutes
    the cells.  The orbit of a cell is its closure under the generators,
    grown breadth first: #cells x |generators| images, and no element listed.
    """
    covered: set[tuple[int, int]] = set()
    orbits = []
    for cell in itertools.product(range(s.m), range(s.n)):
        if cell not in covered:
            covered.add(cell)
            orbit = [cell]
            for r, c in orbit:
                for g in group.generators:
                    image = g.act_triple((r, c, s.rows[r][c]))[:2]
                    if image not in covered:
                        covered.add(image)
                        orbit.append(image)
            orbits.append(set(orbit))
    return orbits
