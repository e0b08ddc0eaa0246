"""Isomorph-free exhaustive generation of K3,3-free latin rectangles.

One level extends every main-class representative of K3,3-free m-by-n
rectangles by a row: candidate cells, a compatibility graph whose extra
clause kills every pair that would close a K3,3 with the existing rows,
and size-n cliques (one candidate per column) as the new rows, one per
orbit of the parent's stabilizer.  Children are deduplicated by main-level
canonical form and keep their stabilizer order and isotopy class count.

Before a child with fewer rows than columns is canonised, its new row must
pass a cheap test (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998, sec. 3).  The invariant of a row r is the sorted list,
over the other rows r', of the cycle type of the permutation linking r and
r'; the new row's invariant must be the greatest among the child's rows.
No class is lost.  With fewer rows than columns the allowed conjugations
(the identity and column<->letter) keep rows as rows; an isotopy conjugates
each linking permutation, and column<->letter turns a^-1 b into a b^-1, of
the same cycle type; so every allowed map keeps the invariant.  A class C
has a row d of greatest invariant, C - d is isomorphic to a parent P, and
the image of d in P + row, or any image of it under the stabilizer of P,
is then a greatest new row.  Squares (m = n) are not filtered: conjugations
there move rows.

Each level is validated by counting all labeled rectangles two ways (from
parent orbits times raw extension counts, and from child orbits); any
disagreement raises.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import factorial
from multiprocessing import Pool
from pathlib import Path
from typing import NamedTuple, Sequence

from . import canon
from .core import CONJ_ID, LatinError, LatinRectangle, Paratopism


class Candidate(NamedTuple):
    """A cell (new row, col) holding letter; candidate for the extension row."""

    col: int
    letter: int


@dataclass
class CompatibilityGraph:
    vertices: list[Candidate]
    adjacency: list[int]  # bitmask per vertex


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


def compatibility_graph(s: LatinRectangle, cands: Sequence[Candidate]) -> CompatibilityGraph:
    """Edges: distinct columns, distinct letters, and no K3,3 closed with s.

    For a column c, distinct rows r', r'' and a letter x, the candidates
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
    return CompatibilityGraph(list(cands), adj)


def cliques_of_size(g: CompatibilityGraph, n: int) -> list[tuple[int, ...]]:
    """The new rows: every size-n clique of the graph of an n-column rectangle.

    Such a clique takes one candidate in each column, so the search walks
    the columns as an exact cover, fewest candidates first, and each row is
    found once, spelled out in ``row`` as it goes.
    """
    by_col: list[list[int]] = [[] for _ in range(n)]
    for i, cand in enumerate(g.vertices):
        by_col[cand.col].append(i)
    cols = sorted(range(n), key=lambda c: len(by_col[c]))
    adj, vertices = g.adjacency, g.vertices
    row = [0] * n
    out: list[tuple[int, ...]] = []

    def rec(k: int, mask: int):
        if k == n:
            out.append(tuple(row))
            return
        col = cols[k]
        for i in by_col[col]:
            if mask >> i & 1:
                row[col] = vertices[i].letter
                rec(k + 1, mask & adj[i])

    rec(0, (1 << len(vertices)) - 1)
    return out


# ---------------------------------------------------------------------------
# level-by-level classification


@dataclass
class ClassificationResult:
    m: int
    n: int
    representatives: list[LatinRectangle]
    main_class_count: int
    isotopy_class_count: int
    total_labeled_count: int
    raw_extensions: int  # cliques found while extending the previous level
    seconds: float = 0.0  # the whole level, checkpoint and isotopy counts included
    canonised: int = 0  # child canon calls made in this run (0 if loaded)


class DoubleCountError(RuntimeError):
    """The two orbit-stabilizer totals disagree: internal inconsistency."""


def _derangements(n: int) -> int:
    d0, d1 = 1, 0
    for k in range(2, n + 1):
        d0, d1 = d1, (k - 1) * (d0 + d1)
    return d1 if n >= 1 else 1


ClassStats = tuple[int, int]  # (stabilizer order, isotopy classes) of a class


def _orbit_representatives(rows: list[tuple], stab: Sequence[Paratopism]) -> list[tuple]:
    """The first new row of each orbit of the parent's stabilizer ``stab``.

    ``stab`` must be complete.  Its elements fix the parent rows, so each
    maps a child to the child with the image row; marking every image of a
    kept row costs orbits x |stab| instead of rows x |stab|.
    """
    actions = [(g.gamma, g.lam, g.conj != CONJ_ID) for g in stab]
    seen: set[tuple[int, ...]] = set()
    kept = []
    for row in rows:
        if row in seen:
            continue
        kept.append(row)
        for gamma, lam, swap in actions:
            image = [0] * len(row)
            if swap:
                for c, l in enumerate(row):
                    image[gamma[l]] = lam[c]
            else:
                for c, l in enumerate(row):
                    image[gamma[c]] = lam[l]
            seen.add(tuple(image))
    return kept


def _new_row_test(parent: LatinRectangle):
    """The test a new row must pass before its child is canonised.

    The invariant of a row is the sorted list of its link types to the other
    rows, and the new row's must be the greatest among the child's rows; the
    parent's pair types are computed once, and m types per new row.  A child
    that is a square is not tested: conjugations there move rows.
    """
    m, n = parent.m, parent.n
    if m + 1 == n:
        return lambda row: True
    pos = parent.column_positions()
    base = [[canon._link_type(pos[a], parent.rows[b]) for b in range(m) if b != a]
            for a in range(m)]

    def passes(row: tuple[int, ...]) -> bool:
        types = [canon._link_type(p, row) for p in pos]
        inv = sorted(types)
        return all(inv >= sorted(base[a] + [t]) for a, t in enumerate(types))

    return passes


def _process_parent(args) -> tuple[int, int, dict[tuple, ClassStats]]:
    """Extend one parent representative; dedupe children by canonical form.

    Returns the raw extension count, the number of children canonised and
    the children's classes.
    """
    parent_rows, n = args
    parent = LatinRectangle(parent_rows)
    g = compatibility_graph(parent, candidates(parent))
    rows = cliques_of_size(g, n)
    raw = len(rows)

    # the test's pass set is closed under the parent's stabilizer, so it can
    # follow the orbit reduction; a parent with no passing row is spared its
    # stabilizer, at the cost of a scan up to the first passing row
    passes = _new_row_test(parent)
    if any(map(passes, rows)):
        stab = canon.canonical_with_stabilizer(parent, "main")
        if len(stab.elements) == stab.order:
            rows = _orbit_representatives(rows, stab.elements)
        rows = [row for row in rows if passes(row)]
    else:
        rows = []

    children: dict[tuple, ClassStats] = {}
    for row in rows:
        child = LatinRectangle(parent_rows + (row,))
        form, order, _, iso = canon.canonical_with_stabilizer(child, "main")
        children.setdefault(form.rows, (order, iso))
    return raw, len(rows), children


def _two_row_reps(n: int) -> tuple[int, int, dict[tuple, ClassStats]]:
    """Extend the identity row as :func:`_process_parent` does, without cliques.

    The second rows are the derangements and the main classes their cycle
    types (partitions of n into parts >= 2).
    """
    reps: dict[tuple, ClassStats] = {}

    def partitions(remaining: int, min_part: int, acc: tuple[int, ...]):
        if remaining == 0:
            row1 = canon._type_row(acc)
            rect = LatinRectangle((tuple(range(n)), row1))
            form, order, _, iso = canon.canonical_with_stabilizer(rect, "main")
            reps[form.rows] = (order, iso)
            return
        for p in range(min_part, remaining + 1):
            if remaining - p != 1:
                partitions(remaining - p, p, acc + (p,))

    partitions(n, 2, ())
    return _derangements(n), len(reps), reps


def classify_column(
    n: int,
    m_max: int,
    jobs: int = 1,
    out_dir: str | Path | None = None,
    progress: bool = False,
) -> dict[int, ClassificationResult]:
    """Classify K3,3-free m-by-n rectangles for every m up to m_max.

    With ``out_dir`` set, finished levels are persisted and reloaded on a
    rerun (resume support for long columns).
    """
    if not (1 <= m_max <= n):
        raise ValueError("need 1 <= m_max <= n")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    results: dict[int, ClassificationResult] = {}
    # level 1: single reduced row
    level_reps: dict[tuple, ClassStats] = {
        (tuple(range(n)),): (canon.allowed_group_order(1, n) // factorial(n), 1)
    }
    results[1] = _make_result(1, n, level_reps, raw=0)

    pool = None  # one worker pool for the column, forked at its first use
    try:
        for m in range(2, m_max + 1):
            t0 = time.time()
            canonised = 0
            cached = _load_level(out_path, n, m)
            if cached is not None:
                level_reps, raw = cached
            else:
                parents = sorted(level_reps)
                tasks = [(rows, n) for rows in parents]
                merged: dict[tuple, ClassStats] = {}
                raw = 0
                lhs = 0
                if m == 2:
                    outputs = [_two_row_reps(n)]
                elif jobs > 1:
                    if pool is None:
                        pool = Pool(jobs)
                    outputs = pool.map(_process_parent, tasks, chunksize=1)
                else:
                    outputs = [_process_parent(t) for t in tasks]
                for rows, (raw_p, canonised_p, children) in zip(parents, outputs):
                    raw += raw_p
                    canonised += canonised_p
                    lhs += (
                        canon.allowed_group_order(m - 1, n, "main")
                        // level_reps[rows][0]
                        * raw_p
                    )
                    for child_rows, stats in children.items():
                        merged.setdefault(child_rows, stats)
                level_reps = merged
                rhs = _labeled_total(m, n, level_reps)
                if lhs != rhs:
                    raise DoubleCountError(
                        f"level {m}x{n}: parent-side total {lhs} != child-side total {rhs}"
                    )
            _store_level(out_path, n, m, level_reps, raw)
            results[m] = r = _make_result(m, n, level_reps, raw)
            r.canonised = canonised
            r.seconds = seconds = time.time() - t0
            if progress:
                print(
                    f"  level {m}x{n}: {r.main_class_count} main classes, "
                    f"total {r.total_labeled_count}, {canonised} canonised "
                    f"({seconds:.1f}s)",
                    flush=True,
                )
            if not level_reps:
                # nothing to extend; all higher levels are empty
                for mm in range(m + 1, m_max + 1):
                    results[mm] = _make_result(mm, n, {}, raw=0)
                break
    finally:
        if pool is not None:
            pool.terminate()
    return results


def _labeled_total(m: int, n: int, reps: dict[tuple, ClassStats]) -> int:
    group = canon.allowed_group_order(m, n, "main")
    return sum(group // order for order, _ in reps.values())


def _make_result(m: int, n: int, reps: dict[tuple, ClassStats], raw: int) -> ClassificationResult:
    rep_rects = [LatinRectangle(rows) for rows in sorted(reps)]
    total = _labeled_total(m, n, reps)
    iso = sum(iso for _, iso in reps.values())
    return ClassificationResult(
        m=m,
        n=n,
        representatives=rep_rects,
        main_class_count=len(rep_rects),
        isotopy_class_count=iso,
        total_labeled_count=total,
        raw_extensions=raw,
    )


# -- level persistence -------------------------------------------------------

#: layout and canonical forms of ``level_MxN.json``; version 2 added the
#: per-class isotopy count and the row-cycle refined canonical forms
CHECKPOINT_VERSION = 2


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
            reps = {
                tuple(map(tuple, e["rows"])): (e["stab_order"], e["iso_classes"])
                for e in payload["classes"]
            }
            return reps, payload["raw_extensions"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{f}: malformed checkpoint ({exc!r})") from None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{f}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    raise CheckpointError(f"{f}: holds level {shape[0]}x{shape[1]}, expected {m}x{n}")
