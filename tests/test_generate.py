"""Enumeration engine: unit pieces plus brute-force class-count equality."""

import functools
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_rectangles
from k33free import canon, generate
from k33free.core import CONJ_CL, CONJ_ID, LatinError, LatinRectangle, Paratopism, apply
from k33free.pattern import is_k33_free


def test_candidates_counts():
    s = LatinRectangle(((0, 1, 2, 3), (1, 0, 3, 2)))
    cands = generate.candidates(s)
    assert len(cands) == (4 - 2) * 4
    for c, l in cands:
        assert l not in {s.rows[r][c] for r in range(2)}


def test_candidates_rejects_squares():
    with pytest.raises(LatinError):
        generate.candidates(LatinRectangle(((0, 1), (1, 0))))


def test_compatibility_and_cliques_give_exactly_the_valid_rows():
    # every size-n clique must be a legal K3,3-free extension row, found
    # once, and every legal extension row must appear as a clique; the 3x6
    # and 4x7 parents put more than one row pair under the K3,3 clause
    parents = list(itertools.islice(all_rectangles(2, 5), 40))
    parents += generate.classify_column(6, 3)[3].representatives
    parents += generate.classify_column(7, 4)[4].representatives
    for parent in parents:
        cands = generate.candidates(parent)
        n = parent.n
        rows = generate.cliques_of_size(cands, generate.compatibility_graph(parent, cands), n)
        assert len(rows) == len(set(rows))
        direct = set()
        for p in itertools.permutations(range(n)):
            if all(p[c] != r[c] for r in parent.rows for c in range(n)):
                child = LatinRectangle(parent.rows + (p,))
                if is_k33_free(child):
                    direct.add(p)
        assert set(rows) == direct, parent.rows


def test_cliques_empty_graph():
    cands = [generate.Candidate(0, 1), generate.Candidate(1, 0)]
    assert generate.cliques_of_size(cands, [0, 0], 2) == []


def test_derangement_numbers():
    assert [generate._derangements(n) for n in range(2, 8)] == [1, 2, 9, 44, 265, 1854]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_engine_matches_brute_force_classification(n, brute_force_oracle):
    col = generate.classify_column(n, n)
    for m in range(2, n + 1):
        oracle = brute_force_oracle[(m, n)]
        assert col[m].main_class_count == len(oracle.forms), (m, n)
        assert col[m].total_labeled_count == oracle.labeled, (m, n)


# a stored class must be a latin rectangle whose stabilizer order divides
# the order of its level's group
_rows = st.sampled_from([s.rows for s in all_rectangles(2, 3)])
_group_2x3 = canon.allowed_group_order(2, 3)
_orders = st.sampled_from([d for d in range(1, _group_2x3 + 1) if _group_2x3 % d == 0])


@given(st.dictionaries(_rows, st.tuples(_orders, st.integers(1, 6)), max_size=5),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_checkpoint_round_trip(reps, raw):
    with tempfile.TemporaryDirectory() as tmp:
        generate._store_level(Path(tmp), 3, 2, reps, raw)
        assert generate._load_level(Path(tmp), 3, 2) == (reps, raw)


def test_double_count_error_is_raised_on_corruption(tmp_path, monkeypatch):
    # corrupt a stored stabilizer order; the resumed run must detect it
    generate.classify_column(5, 2, out_dir=tmp_path)
    f = tmp_path / "level_2x5.json"
    payload = json.loads(f.read_text())
    assert payload["version"] == generate.CHECKPOINT_VERSION
    for cls in payload["classes"]:
        cls["stab_order"] //= 2
    f.write_text(json.dumps(payload))
    with pytest.raises(generate.DoubleCountError):
        generate.classify_column(5, 3, out_dir=tmp_path)


@pytest.mark.parametrize(
    "version", [None, 1, generate.CHECKPOINT_VERSION - 1, generate.CHECKPOINT_VERSION + 1]
)
def test_checkpoint_of_another_version_is_rejected(tmp_path, version):
    generate.classify_column(5, 3, out_dir=tmp_path)
    f = tmp_path / "level_3x5.json"
    payload = json.loads(f.read_text())
    if version is None:  # the unversioned layout: no version, no isotopy counts
        del payload["version"]
        for cls in payload["classes"]:
            del cls["iso_classes"]
    else:
        payload["version"] = version
    f.write_text(json.dumps(payload))
    with pytest.raises(generate.CheckpointError, match="version"):
        generate.classify_column(5, 4, out_dir=tmp_path)


def test_checkpoint_of_another_shape_is_rejected(tmp_path):
    generate.classify_column(5, 2, out_dir=tmp_path)
    # a 2x5 level stored under the name of the 2x6 level
    (tmp_path / "level_2x6.json").write_text((tmp_path / "level_2x5.json").read_text())
    with pytest.raises(generate.CheckpointError, match="expected 2x6"):
        generate.classify_column(6, 3, out_dir=tmp_path)


def _unreduced_children(parent_rows, n):
    """Canonize the child of every new row, with no stabilizer reduction."""
    parent = LatinRectangle(parent_rows)
    cands = generate.candidates(parent)
    rows = generate.cliques_of_size(cands, generate.compatibility_graph(parent, cands), n)
    children = {}
    for row in rows:
        form, order, iso = canon.canonical_with_order(LatinRectangle(parent_rows + (row,)))
        children.setdefault(form.rows, (order, iso))
    return len(rows), children


@pytest.mark.parametrize("m, n, sample", [(3, 6, None), (4, 7, None), (4, 8, 12)])
def test_orbit_reduction_keeps_every_child_class(m, n, sample):
    # each child a parent canonises or certifies is one of its unreduced
    # children, with the same stats; with all parents, their children are all
    # the classes
    reps = generate.classify_column(n, m)[m].representatives
    if sample is not None:
        reps = random.Random(20260826).sample(reps, sample)
    processed = certified = orbit_reps = raw_total = 0
    reduced, unreduced = {}, {}
    for rep in reps:
        stab = canon.canonical_with_stabilizer(rep)
        assert len(stab.elements) == stab.order
        ext = generate._process_parent((rep.rows, n, stab.order))
        raw_all, children_all = _unreduced_children(rep.rows, n)
        assert ext.raw == raw_all and ext.canonised >= len(ext.children)
        # a certified child is keyed by its rows, not by its canonical form
        children = dict(ext.children)
        for rows, stats in ext.certified.items():
            form = canon.canonical_form(LatinRectangle(rows)).rows
            assert form not in children
            children[form] = stats
        assert all(children_all.get(form) == stats for form, stats in children.items())
        reduced.update(children)
        unreduced.update(children_all)
        cands = generate.candidates(rep)
        rows = generate.cliques_of_size(cands, generate.compatibility_graph(rep, cands), n)
        orbit_reps += len(generate._orbit_representatives(rows, stab.elements))
        processed += ext.canonised + len(ext.certified)
        certified += len(ext.certified)
        raw_total += ext.raw
    if sample is None:
        assert reduced == unreduced
    # both the orbit reduction and the row filter removed work on these parents,
    # and some children were accepted with no canon call
    assert processed < orbit_reps < raw_total
    assert certified > 0


def _certified_children(n, m):
    """(rows, stats) of every child certified at level m of column n."""
    out = []
    for parent in generate.classify_column(n, m - 1)[m - 1].representatives:
        order = canon.canonical_with_order(parent)[1]
        out.extend(generate._process_parent((parent.rows, n, order)).certified.items())
    return out


@pytest.mark.parametrize("n, levels, sample", [
    (6, range(3, 6), None),  # columns 4 and 5 certify no child
    (7, range(3, 7), None),
    (8, (4,), 40),
    (8, (5,), 40),
])
def test_certified_stats_match_the_stabilizer_search(n, levels, sample):
    # a certified child's stabilizer order and isotopy count come from its
    # parent's stabilizer; the full search on the child must give the same
    children = [child for m in levels for child in _certified_children(n, m)]
    if sample is not None:
        assert len(children) > sample
        children = random.Random(20261019).sample(children, sample)
    assert children
    for rows, (order, iso) in children:
        assert canon.canonical_with_order(LatinRectangle(rows))[1:] == (order, iso), rows


@pytest.mark.parametrize("n", range(2, 11))
def test_two_row_classes_are_certified_in_closed_form(n):
    # each cycle type's class is its canonical form, with the stats the
    # stabilizer search gives, and no canon call is made
    ext = generate._two_row_reps(n)
    assert ext.canonised == 0 and not ext.children and ext.certified
    for rows, stats in ext.certified.items():
        form, order, iso = canon.canonical_with_order(LatinRectangle(rows))
        assert form.rows == rows
        assert (order, iso) == stats, rows


def _level_stats(results):
    return {
        m: (r.main_class_count, r.isotopy_class_count, r.total_labeled_count,
            r.raw_extensions, r.canonised, r.certified,
            [x.rows for x in r.representatives])
        for m, r in results.items()
    }


@pytest.mark.parametrize("n", [7, 8])
def test_trivial_stabilizer_parents_make_no_canon_call(monkeypatch, n):
    # a parent stored with stabilizer order 1 is extended with the identity as
    # its stabilizer; with the order hidden, every parent with a passing row
    # makes a stabilizer search, and the results must be the same
    orders = []
    search = canon.canonical_with_stabilizer

    def counted(s, level="main"):
        stab = search(s, level)
        orders.append(stab.order)
        return stab

    monkeypatch.setattr(canon, "canonical_with_stabilizer", counted)
    skipped = _level_stats(generate.classify_column(n, n))
    skipped_orders, orders[:] = list(orders), []
    process = generate._process_parent
    monkeypatch.setattr(generate, "_process_parent", lambda task: process((*task[:2], None)))
    searched = _level_stats(generate.classify_column(n, n))
    assert skipped == searched
    assert 1 not in skipped_orders
    assert len(skipped_orders) == len(orders) - orders.count(1)
    assert orders.count(1) > 0


def _cycle_type(perm):
    """Ascending cycle lengths, by following each point until it returns."""
    lengths, seen = [], set()
    for x in range(len(perm)):
        if x not in seen:
            cycle = [x]
            while perm[cycle[-1]] != x:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            lengths.append(len(cycle))
    return tuple(sorted(lengths))


def _link(s, r, a):
    """L(r, a): column c to the column where row a holds row r's letter at c."""
    return tuple(s.rows[a].index(s.rows[r][c]) for c in range(s.n))


def _row_invariants(s):
    """Per row r, the pair (first round, second round) of the new-row test.

    The first round is the sorted link types of r to the other rows; the
    second the sorted (the types of L(r, a) and L(r, b), sorted; the type of
    L(r, a) . L(r, b)) over the unordered pairs {a, b} of other rows.
    """
    out = []
    for r in range(s.m):
        others = [a for a in range(s.m) if a != r]
        links = {a: _link(s, r, a) for a in others}
        first = sorted(_cycle_type(links[a]) for a in others)
        second = sorted(
            (tuple(sorted((_cycle_type(links[a]), _cycle_type(links[b])))),
             _cycle_type(tuple(links[a][links[b][c]] for c in range(s.n))))
            for a, b in itertools.combinations(others, 2)
        )
        out.append((first, second))
    return out


@functools.cache
def _children_4x7():
    """(parent, new row) for every new row of every 3x7 representative."""
    out = []
    for parent in generate.classify_column(7, 3)[3].representatives:
        cands = generate.candidates(parent)
        graph = generate.compatibility_graph(parent, cands)
        out.extend((parent, row) for row in generate.cliques_of_size(cands, graph, 7))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_invariant_is_kept_by_isotopy_and_cl_conjugation(data):
    children = _children_4x7()
    parent, row = children[data.draw(st.integers(0, len(children) - 1))]
    child = LatinRectangle(parent.rows + (row,))
    rho = data.draw(st.permutations(range(4)))
    p = Paratopism(
        tuple(rho),
        tuple(data.draw(st.permutations(range(7)))),
        tuple(data.draw(st.permutations(range(7)))),
        data.draw(st.sampled_from([CONJ_ID, CONJ_CL])),
    )
    image = apply(p, child)
    invs = _row_invariants(image)
    assert [invs[rho[r]] for r in range(4)] == _row_invariants(child)
    # the filter's verdict follows the new row to its image
    new = rho[3]
    image_parent = LatinRectangle(image.rows[:new] + image.rows[new + 1:])
    verdict = generate._new_row_test(image_parent)(image.rows[new])
    assert verdict == generate._new_row_test(parent)(row)


def test_new_row_verdict_is_the_brute_force_one():
    # on every 4x7 child, the verdict compares the new row's (first, second)
    # invariant with every other row's; some children need the second round
    # (their first round ties), and every verdict shows up
    verdicts, decided_by_second = [], 0
    for parent, row in _children_4x7():
        invs = _row_invariants(LatinRectangle(parent.rows + (row,)))
        new, others = invs[-1], invs[:-1]
        if any(o > new for o in others):
            expected = generate.FAILS
        elif new in others:
            expected = generate.TIES
        else:
            expected = generate.ONLY_GREATEST
        assert generate._new_row_test(parent)(row) == expected, (parent.rows, row)
        verdicts.append(expected)
        firsts = [o[0] for o in others]
        decided_by_second += (new[0] in firsts and max(firsts) <= new[0]
                              and expected != generate.TIES)
    assert set(verdicts) == {generate.FAILS, generate.TIES, generate.ONLY_GREATEST}
    assert decided_by_second > 0


def test_checkpoint_resume_equivalence(tmp_path):
    fresh = generate.classify_column(6, 4)
    generate.classify_column(6, 3, out_dir=tmp_path)
    resumed = generate.classify_column(6, 4, out_dir=tmp_path)
    for m in range(1, 5):
        assert fresh[m].main_class_count == resumed[m].main_class_count
        assert fresh[m].total_labeled_count == resumed[m].total_labeled_count
        assert [r.rows for r in fresh[m].representatives] == [
            r.rows for r in resumed[m].representatives
        ]


def test_jobs_parallel_equivalence():
    serial = generate.classify_column(6, 6, jobs=1)
    parallel = generate.classify_column(6, 6, jobs=2)
    for m in range(1, 7):
        assert serial[m].main_class_count == parallel[m].main_class_count
        assert [r.rows for r in serial[m].representatives] == [
            r.rows for r in parallel[m].representatives
        ]
        counters = ("raw_extensions", "canonised", "certified")
        assert [getattr(serial[m], c) for c in counters] == [
            getattr(parallel[m], c) for c in counters
        ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_heartbeat_counts_the_parents(monkeypatch, capsys, jobs):
    # with no wait between heartbeats every parent is reported, in order
    monkeypatch.setattr(generate, "HEARTBEAT_S", 0)
    col = generate.classify_column(6, 4, jobs=jobs, progress=True)
    lines = capsys.readouterr().out.splitlines()
    for m in (2, 3, 4):
        parents = col[m - 1].main_class_count
        beats = [ln.split()[2] for ln in lines
                 if ln.startswith(f"  level {m}x6: ") and " parents (" in ln]
        assert beats == [f"{k}/{parents}" for k in range(1, parents + 1)], m
        assert any(ln.startswith(f"  level {m}x6: {col[m].main_class_count} main classes")
                   for ln in lines)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_representatives_are_free_and_pairwise_non_isomorphic(n):
    # certified representatives are class members, not canonical forms; the
    # squares are always canonised, so their representatives are canonical
    col = generate.classify_column(n, n)
    for m in range(2, n + 1):
        forms = set()
        for rep in col[m].representatives:
            assert is_k33_free(rep)
            forms.add(canon.canonical_form(rep).rows)
        assert len(forms) == col[m].main_class_count, (m, n)
    assert all(canon.canonical_form(rep).rows == rep.rows for rep in col[n].representatives)
