"""Isomorph-free exhaustive generation of K3,3-free latin rectangles.

One level extends every main-class representative of K3,3-free m-by-n
rectangles by a row: candidate cells, a compatibility graph whose extra
clause kills every pair that would close a K3,3 with the existing rows,
and size-n cliques (one candidate per column) as the new rows, one per
orbit of the parent's stabilizer.  Each class keeps one representative
with its stabilizer order and isotopy class count.

Before a child with fewer rows than columns is canonised, its new row must
pass a cheap test (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998, sec. 3).  L(r, a)[c] = pos_a[row_r[c]] is the link
from row r to row a, where pos_a is the inverse of row a.  The invariant of
a row r is a pair of rounds, compared lexicographically.  The first round
is the sorted list, over the other rows a, of the cycle type of L(r, a)
(its link types).  The second is the sorted list, over the unordered pairs
{a, b} of other rows, of (the cycle types of L(r, a) and L(r, b), sorted;
the cycle type of L(r, a) L(r, b)).  The new row's invariant must be the
greatest among the child's rows.  No class is lost.  With fewer rows than
columns the allowed conjugations (the identity and column<->letter) keep
rows as rows.  An isotopy conjugates every link, and so every product, by
its column map.  Column<->letter conjugates every L(r, a) to its inverse
by one map, and so turns L(r, a) L(r, b) into a conjugate of
(L(r, b) L(r, a))^-1; XY and YX have one cycle type, and so do a
permutation and its inverse.  So every allowed map keeps the invariant.  A
class C has a row d of greatest invariant, C - d is isomorphic to a parent
P, and the image of d in P + row, or any image of it under the stabilizer
of P, is then a greatest new row.  Squares (m = n) are not filtered:
conjugations there move rows.

The second round costs products of links, so it runs only for a new row
whose first round ties another row's, and is compared only with the rows
it ties.  It breaks most ties: over the levels of n = 9, child canon calls
fall from 22,768 with the first round alone to 2,190.

A new row whose invariant is the only greatest one is accepted with no
canon call (certified acceptance, McKay 1998).  Every automorphism of the
child C = P + r keeps rows and invariants, so it fixes r and restricts to an
automorphism of P: Aut(C) is the stabilizer of r in Aut(P), of order
|Aut(P)| / |orbit of r|, and its conjugations give the isotopy count.  Such
a class arises from one parent only (P is the representative of C - r, r
the unique greatest row) and from one orbit (an isomorphism P + r -> P + r'
between two such children maps r to r' and fixes P), so it needs no
deduplication; its multiset of row invariants keeps it apart from the
classes with a tie, which are canonised and deduplicated by canonical form.
Certified children keep the rows P + r as their representative, which is
then not a canonical form.  Squares are canonised.

Level 2 needs no canon call.  The second rows of the identity row are the
derangements, and two of them give isomorphic rectangles iff they have the
same cycle type lambda (a partition of n into parts >= 2), so each type is
one main class and one isotopy class.  Its representative (0..n-1,
``canon._type_row(lambda)``) is already its canonical form.  The n! first
rows times the n! / |C_lambda| permutations of type lambda are its labeled
members, where C_lambda is the centralizer; by orbit-stabilizer its
stabilizer order is ``allowed_group_order(2, n) * |C_lambda| / n!^2``.  The
classes are counted as ``certified``.

Each level is validated by counting all labeled rectangles two ways (from
parent orbits times raw extension counts, and from child orbits); any
disagreement raises.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from math import factorial
from multiprocessing import Pool
from pathlib import Path
from typing import NamedTuple, Sequence

from . import canon, pattern
from .core import CONJ_ID, LatinError, LatinRectangle, Paratopism, shape_preserving_conjs, validate

#: least seconds between two ``progress`` lines while a level runs
HEARTBEAT_S = 30


class Candidate(NamedTuple):
    """A cell (new row, col) holding letter; candidate for the extension row."""

    col: int
    letter: int


def candidates(s: LatinRectangle) -> list[Candidate]:
    """The (n-m)*n admissible cells for a new row: per column, its missing letters."""
    m, n = s.m, s.n
    if m >= n:
        raise LatinError("rectangle is already a square; nothing to extend")
    out = []
    for c in range(n):
        present = {s.rows[r][c] for r in range(m)}
        out.extend(Candidate(c, l) for l in range(n) if l not in present)
    return out


def compatibility_graph(s: LatinRectangle, cands: Sequence[Candidate]) -> list[int]:
    """The adjacency of the candidates, as one bitmask per candidate.

    Bit j of entry i is set when candidates i and j are compatible:
    distinct columns, distinct letters, and no K3,3 closed with s.  For a
    column c, distinct rows r', r'' and a letter x, the candidates
    (pos[r''][x], s(r', c)) and (pos[r'][x], s(r'', c)) are incompatible,
    where pos[r][x] is the column of x in row r: with the cells of rows r'
    and r'' in column c and in the columns of x, they would close a K3,3.
    Swapping r' and r'' names the same pair, so each row pair is visited once.
    """
    m, n = s.m, s.n
    grid = s.rows
    pos = s.column_positions()
    index = [[-1] * n for _ in range(n)]  # index[c][l]: vertex of (c, l), or -1
    col_mask, letter_mask = [0] * n, [0] * n
    for i, (c, l) in enumerate(cands):
        index[c][l] = i
        col_mask[c] |= 1 << i
        letter_mask[l] |= 1 << i
    full = (1 << len(cands)) - 1
    adj = [full & ~(col_mask[c] | letter_mask[l]) for c, l in cands]
    for c in range(n):
        for r1 in range(m):
            at1, pos1 = grid[r1][c], pos[r1]
            for r2 in range(r1 + 1, m):
                at2, pos2 = grid[r2][c], pos[r2]
                for x in range(n):
                    a = index[pos2[x]][at1]
                    b = index[pos1[x]][at2]
                    if a >= 0 and b >= 0:
                        adj[a] &= ~(1 << b)
                        adj[b] &= ~(1 << a)
    return adj


def cliques_of_size(
    cands: Sequence[Candidate], adjacency: Sequence[int], n: int
) -> list[tuple[int, ...]]:
    """The new rows: every size-n clique of the candidates of an n-column rectangle.

    ``adjacency`` is what :func:`compatibility_graph` returns for ``cands``.
    Such a clique takes one candidate in each column, so the search walks
    the columns as an exact cover, fewest candidates first, and each row is
    found once, spelled out in ``row`` as it goes.
    """
    by_col: list[list[int]] = [[] for _ in range(n)]
    for i, cand in enumerate(cands):
        by_col[cand.col].append(i)
    cols = sorted(range(n), key=lambda c: len(by_col[c]))
    row = [0] * n
    out: list[tuple[int, ...]] = []

    def rec(k: int, mask: int):
        if k == n:
            out.append(tuple(row))
            return
        col = cols[k]
        for i in by_col[col]:
            if mask >> i & 1:
                row[col] = cands[i].letter
                rec(k + 1, mask & adjacency[i])

    rec(0, (1 << len(cands)) - 1)
    return out


# ---------------------------------------------------------------------------
# level-by-level classification


ClassStats = tuple[int, int]  # (stabilizer order, isotopy classes) of a class


@dataclass
class ClassificationResult:
    m: int
    n: int
    classes: dict[tuple, ClassStats]  # rows of each main-class representative -> its stats
    raw_extensions: int  # cliques found while extending the previous level
    seconds: float = 0.0  # the whole level, checkpoint and isotopy counts included
    canonised: int = 0  # child canon calls made in this run (0 if loaded)
    certified: int = 0  # children accepted with no canon call in this run (0 if loaded)

    @property
    def representatives(self) -> list[LatinRectangle]:
        """One rectangle per main class, in row order; built on each access."""
        return [LatinRectangle(rows) for rows in sorted(self.classes)]

    @property
    def main_class_count(self) -> int:
        return len(self.classes)

    @property
    def isotopy_class_count(self) -> int:
        return sum(iso for _, iso in self.classes.values())

    @property
    def total_labeled_count(self) -> int:
        group = canon.allowed_group_order(self.m, self.n)
        return sum(group // order for order, _ in self.classes.values())


class DoubleCountError(RuntimeError):
    """The two orbit-stabilizer totals disagree: internal inconsistency."""


def _derangements(n: int) -> int:
    d0, d1 = 1, 0
    for k in range(2, n + 1):
        d0, d1 = d1, (k - 1) * (d0 + d1)
    return d1 if n >= 1 else 1


class Extension(NamedTuple):
    """What extending one parent gives."""

    raw: int  # new rows found
    canonised: int  # children canonised
    certified: dict[tuple, ClassStats]  # children accepted with no canon call, by rows
    children: dict[tuple, ClassStats]  # the canonised children, by canonical form


def _orbit_representatives(
    rows: list[tuple], stab: Sequence[Paratopism]
) -> list[tuple[tuple[int, ...], int, set]]:
    """The first new row of each orbit of the parent's stabilizer ``stab``.

    Each comes with the size of its orbit and the conjugations of the
    elements that fix it.  The elements fix the parent rows, so each maps a
    child to the child with the image row; marking every image of a kept row
    costs orbits x |stab| instead of rows x |stab|.  Orbits are disjoint, so
    an orbit's size is the number of rows it adds to ``seen``, the kept row
    included; an empty ``stab`` stands for the identity alone.
    """
    seen: set[tuple[int, ...]] = set()
    kept = []
    for row in rows:
        if row in seen:
            continue
        before = len(seen)
        seen.add(row)
        fixing = {CONJ_ID}
        for g in stab:
            gamma, lam = g.gamma, g.lam
            image = [0] * len(row)
            if g.conj != CONJ_ID:
                for c, l in enumerate(row):
                    image[gamma[l]] = lam[c]
            else:
                for c, l in enumerate(row):
                    image[gamma[c]] = lam[l]
            image = tuple(image)
            seen.add(image)
            if image == row:
                fixing.add(g.conj)
        kept.append((row, len(seen) - before, fixing))
    return kept


#: verdicts of the new-row test: the child is dropped, canonised, or certified;
#: a verdict is true iff the row passes
FAILS, TIES, ONLY_GREATEST = 0, 1, 2


def _new_row_test(parent: LatinRectangle):
    """The verdict on a new row, from its invariant against the other rows'.

    The invariant is the pair of rounds of the module docstring.  A new row
    whose invariant is less than another row's ``FAILS``; one whose
    invariant equals another's ``TIES``; else it is the ``ONLY_GREATEST``.
    The parent's pair types are computed at the first row tested, each
    unordered pair once, and m types per new row.  Only a new row whose first
    round ties gets a second round, compared only with the rows it ties: the
    parent's links and its rows' entries over pairs of parent rows are
    computed at the first tie, then m(m - 1)/2 entries for the new row and
    m - 1 per tied row.  Verdicts are memoised, as :func:`_process_parent`
    asks for some twice.  A child that is a square always ``TIES``:
    conjugations there move rows.
    """
    m, n = parent.m, parent.n
    if m + 1 == n:
        return lambda row: TIES
    grid = parent.rows
    pos = parent.column_positions()
    cycle_type = canon._cycle_type
    types: list[list[tuple[int, ...]]] = []  # types[a][b]: the type of L(a, b)
    base: list[list[tuple[int, ...]]] = []  # per row, its types to the other rows
    links: list[list[list[int]]] = []  # links[a][b]: L(a, b)
    pair_entries: list[list[tuple]] = []  # per row, its entries over parent row pairs

    def entry(t, u, x, y) -> tuple:
        """The second-round entry of links x, y of types t, u."""
        product = cycle_type([x[c] for c in y])
        return (t, u, product) if t <= u else (u, t, product)

    @cache
    def verdict(row: tuple[int, ...]) -> int:
        if not types:
            types.extend([()] * m for _ in range(m))
            for a, b in combinations(range(m), 2):
                types[a][b] = types[b][a] = canon._link_type(pos[a], grid[b])
            base.extend(types[a][:a] + types[a][a + 1:] for a in range(m))
        new_links = [[p[l] for l in row] for p in pos]  # L(new, a)
        new_types = list(map(cycle_type, new_links))
        inv = sorted(new_types)
        tied = []
        for a, t in enumerate(new_types):
            other = sorted(base[a] + [t])
            if other > inv:
                return FAILS
            if other == inv:
                tied.append(a)
        if not tied:
            return ONLY_GREATEST
        if not links:
            links.extend([[p[l] for l in row_a] for p in pos] for row_a in grid)
            for a in range(m):
                ta, la = types[a], links[a]
                pairs = combinations([b for b in range(m) if b != a], 2)
                pair_entries.append([entry(ta[b], ta[c], la[b], la[c]) for b, c in pairs])
        inv2 = sorted(entry(new_types[a], new_types[b], new_links[a], new_links[b])
                      for a, b in combinations(range(m), 2))
        back = [0] * n  # the inverse of the new row
        for c, l in enumerate(row):
            back[l] = c
        out = ONLY_GREATEST
        for a in tied:
            ta, la, t = types[a], links[a], new_types[a]
            to_new = [back[l] for l in grid[a]]  # L(a, new)
            other = pair_entries[a] + [entry(ta[b], t, la[b], to_new) for b in range(m) if b != a]
            other.sort()
            if other > inv2:
                return FAILS
            if other == inv2:
                out = TIES
        return out

    return verdict


def _process_parent(args) -> Extension:
    """Extend one parent representative: certify or canonise its children.

    ``args`` is (rows, n, stabilizer order as stored with the parent's
    level).  A parent of order 1 has the identity as its whole stabilizer,
    so it needs no stabilizer search.  One passing row per orbit is kept: it
    is certified if it is the ``ONLY_GREATEST``, else canonised, and
    canonised children are deduplicated by canonical form within the parent.
    """
    parent_rows, n, order = args
    parent = LatinRectangle(parent_rows)
    cands = candidates(parent)
    rows = cliques_of_size(cands, compatibility_graph(parent, cands), n)

    # the verdicts are kept by the parent's stabilizer, so they can follow
    # the orbit reduction; a parent with no passing row is spared its
    # stabilizer, at the cost of a scan up to the first passing row
    verdict = _new_row_test(parent)
    canonised = 0
    certified: dict[tuple, ClassStats] = {}
    children: dict[tuple, ClassStats] = {}
    if any(map(verdict, rows)):
        elements: Sequence[Paratopism] = ()
        if order != 1:
            stab = canon.canonical_with_stabilizer(parent, "main")
            order, elements = stab.order, stab.elements
        conjs = len(shape_preserving_conjs(parent.m + 1, n))
        for row, orbit, fixing in _orbit_representatives(rows, elements):
            v = verdict(row)
            if v == ONLY_GREATEST:
                certified[parent_rows + (row,)] = (order // orbit, conjs // len(fixing))
            elif v:
                form, child_order, iso = canon.canonical_with_order(
                    LatinRectangle(parent_rows + (row,))
                )
                canonised += 1
                children.setdefault(form.rows, (child_order, iso))
    return Extension(len(rows), canonised, certified, children)


def _two_row_reps(n: int) -> Extension:
    """Extend the identity row as :func:`_process_parent` does, without cliques.

    The second rows are the derangements and the main classes their cycle
    types (partitions of n into parts >= 2), each certified in closed form
    (see the module docstring).
    """
    identity = tuple(range(n))
    group = canon.allowed_group_order(2, n)
    reps: dict[tuple, ClassStats] = {}

    def partitions(remaining: int, min_part: int, acc: tuple[int, ...]):
        if remaining == 0:
            order = group * canon._centralizer_order(acc) // factorial(n) ** 2
            reps[(identity, canon._type_row(acc))] = (order, 1)
            return
        for p in range(min_part, remaining + 1):
            if remaining - p != 1:
                partitions(remaining - p, p, acc + (p,))

    partitions(n, 2, ())
    return Extension(_derangements(n), 0, reps, {})


def classify_column(
    n: int,
    m_max: int,
    jobs: int = 1,
    out_dir: str | Path | None = None,
    progress: bool = False,
) -> dict[int, ClassificationResult]:
    """Classify K3,3-free m-by-n rectangles for every m up to m_max.

    With ``out_dir`` set, finished levels are persisted and reloaded on a
    rerun (resume support for long columns).  With ``progress`` set, each
    level prints one line when it ends, and while it runs, at most once per
    ``HEARTBEAT_S`` seconds, the parents done so far.
    """
    if not (1 <= m_max <= n):
        raise ValueError("need 1 <= m_max <= n")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    # level 1: single reduced row
    level_reps: dict[tuple, ClassStats] = {
        (tuple(range(n)),): (canon.allowed_group_order(1, n) // factorial(n), 1)
    }
    results = {1: ClassificationResult(1, n, level_reps, raw_extensions=0)}

    pool = None  # one worker pool for the column, forked at its first use
    try:
        for m in range(2, m_max + 1):
            t0 = time.time()
            cached = _load_level(out_path, n, m)
            if cached is not None:
                r = ClassificationResult(m, n, *cached)
            else:
                parents = sorted(level_reps)
                tasks = [(rows, n, level_reps[rows][0]) for rows in parents]
                merged: dict[tuple, ClassStats] = {}
                raw = lhs = canonised = certified = 0
                if m == 2:
                    outputs = [_two_row_reps(n)]
                elif jobs > 1:
                    if pool is None:
                        pool = Pool(jobs)
                    outputs = pool.imap(_process_parent, tasks, chunksize=1)
                else:
                    outputs = map(_process_parent, tasks)
                beat = t0
                for done, (rows, ext) in enumerate(zip(parents, outputs), 1):
                    raw += ext.raw
                    canonised += ext.canonised
                    certified += len(ext.certified)
                    lhs += (
                        canon.allowed_group_order(m - 1, n)
                        // level_reps[rows][0]
                        * ext.raw
                    )
                    for child_rows, stats in chain(ext.certified.items(), ext.children.items()):
                        merged.setdefault(child_rows, stats)
                    if progress and time.time() - beat >= HEARTBEAT_S:
                        beat = time.time()
                        print(f"  level {m}x{n}: {done}/{len(parents)} parents "
                              f"({beat - t0:.1f}s)", flush=True)
                r = ClassificationResult(m, n, merged, raw, canonised=canonised,
                                         certified=certified)
                rhs = r.total_labeled_count
                if lhs != rhs:
                    raise DoubleCountError(
                        f"level {m}x{n}: parent-side total {lhs} != child-side total {rhs}"
                    )
                _store_level(out_path, n, m, r.classes, r.raw_extensions)
            results[m] = r
            level_reps = r.classes
            r.seconds = time.time() - t0
            if progress:
                print(
                    f"  level {m}x{n}: {r.main_class_count} main classes, "
                    f"total {r.total_labeled_count}, {r.canonised} canonised, "
                    f"{r.certified} certified ({r.seconds:.1f}s)",
                    flush=True,
                )
            if not level_reps:
                # nothing to extend; all higher levels are empty
                for mm in range(m + 1, m_max + 1):
                    results[mm] = ClassificationResult(mm, n, {}, raw_extensions=0)
                break
    finally:
        if pool is not None:
            pool.terminate()
    return results


# -- level persistence -------------------------------------------------------

#: layout and representatives of ``level_MxN.json``; version 2 added the
#: per-class isotopy count and the row-cycle refined canonical forms, version
#: 3 the certified representatives, which are not canonical forms
CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """A stored level is of another format version, shape or layout."""


def _level_file(out_path: Path, n: int, m: int) -> Path:
    return out_path / f"level_{m}x{n}.json"


def _store_level(out_path, n, m, reps: dict[tuple, ClassStats], raw: int) -> None:
    if out_path is None:
        return
    payload = {
        "version": CHECKPOINT_VERSION,
        "m": m,
        "n": n,
        "raw_extensions": raw,
        "classes": [
            {"rows": [list(r) for r in rows], "stab_order": order, "iso_classes": iso}
            for rows, (order, iso) in sorted(reps.items())
        ],
    }
    tmp = _level_file(out_path, n, m).with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.rename(_level_file(out_path, n, m))


def _class_entry(e: dict, m: int, n: int, group: int) -> tuple[tuple, ClassStats]:
    """One stored class as (rows, stats); ValueError unless it is well formed.

    The stabilizer order must divide the order ``group`` of the level's
    paratopism group; the rows must be a K3,3-free m-by-n latin rectangle.
    """
    rows, order, iso = e["rows"], e["stab_order"], e["iso_classes"]
    for name, value in (("stab_order", order), ("iso_classes", iso)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} {value!r} is not a positive integer")
    if group % order:
        raise ValueError(f"stab_order {order} does not divide the group order {group}")
    if len(rows) != m or any(len(row) != n or any(type(x) is not int for x in row)
                             for row in rows):
        raise ValueError(f"rows are not an {m}x{n} grid of integers")
    rect = validate(rows)
    if not pattern.is_k33_free(rect):
        raise ValueError(f"rows {rect.rows} hold a K3,3 witness")
    return rect.rows, (order, iso)


def _load_level(out_path, n, m):
    if out_path is None:
        return None
    f = _level_file(out_path, n, m)
    if not f.exists():
        return None
    try:
        payload = json.loads(f.read_text())
        version, shape = payload.get("version"), (payload.get("m"), payload.get("n"))
        if version == CHECKPOINT_VERSION and shape == (m, n):
            group = canon.allowed_group_order(m, n)
            reps = dict(_class_entry(e, m, n, group) for e in payload["classes"])
            raw = payload["raw_extensions"]
            if type(raw) is not int or raw < 0:
                raise ValueError(f"raw_extensions {raw!r} is not a non-negative integer")
            return reps, raw
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{f}: malformed checkpoint ({exc!r})") from None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{f}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    raise CheckpointError(f"{f}: holds level {shape[0]}x{shape[1]}, expected {m}x{n}")
