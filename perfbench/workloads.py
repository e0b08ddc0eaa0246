"""The benchmark's workloads: seeded inputs, one closed-loop pass, and checks.

Every pass is a single caller making one library call at a time; the only
parallelism is the program's own ``--jobs`` pool in ``census8_jobs2``.
Each check compares an output with a published value (``k33free.tables``),
a constant from the paper, or a reference in ``oracles`` that shares no code
with the layer under test.  An exception in a call is one failed check.
"""

from __future__ import annotations

import contextlib
import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import oracles

LAYERS = ("generate", "canon", "pattern", "combine", "gf2", "spectral")
SUPPORT = ("core", "fixtures", "tables")


def import_library() -> SimpleNamespace:
    """A fresh import of every k33free module (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "k33free" or m.startswith("k33free.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"k33free.{name}") for name in LAYERS + SUPPORT}
    )


class Checks:
    """Counts attempted and failed checks; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str | Callable[[], str]) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what() if callable(what) else what)

    def equal(self, got, want, what: str) -> None:
        self.check(got == want, lambda: f"{what}: got {got!r}, want {want!r}")

    @contextlib.contextmanager
    def guard(self, what: str):
        """An exception raised inside the block counts as one failed check."""
        try:
            yield
        except Exception as exc:  # any library error is a failed check, not a crash
            self.attempted += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (lib, seed) -> inputs; the seed is the only source of randomness
    check_inputs: Callable  # (lib, inputs, checks) -> None, once per run
    run: Callable  # (lib, inputs, checks, work_dir) -> dict of work counts
    checkpoints: bool = False  # run gets a fresh checkpoint dir per pass


# -- census ------------------------------------------------------------------

#: the census columns run; n = 9 takes minutes per level and is left out
CENSUS_COLUMNS = range(3, 9)


def census_setup(lib, seed):
    return CENSUS_COLUMNS  # exhaustive: the seed draws nothing


def no_input_checks(lib, inputs, checks):
    pass


def census_run(jobs):
    def run(lib, columns, checks, work_dir):
        classes = 0
        for n in columns:
            with checks.guard(f"classify_column({n}, {n}, jobs={jobs})"):
                col = lib.generate.classify_column(n, n, jobs=jobs, out_dir=work_dir)
                for m in range(3, n + 1):
                    exp, got = lib.tables.expected(m, n), col[m]
                    checks.equal(got.main_class_count, exp.main, f"{m}x{n} main classes")
                    checks.equal(got.isotopy_class_count, exp.iso, f"{m}x{n} isotopy classes")
                    checks.equal(got.total_labeled_count, exp.total, f"{m}x{n} labeled total")
                    classes += got.main_class_count
        return {"classes": classes, "jobs": jobs}

    return run


# -- squares -----------------------------------------------------------------

#: order-8 squares drawn per main class (the two classes cost ~20 and ~43 ms)
SQUARES_PER_CLASS = 8
#: order-16 squares drawn from the fig5 solution space
SQUARES_16 = 4
#: autotopism / paratopism orders given in the paper
GROUP_ORDERS = {
    ("fig3_a", "autotopism"): 64,
    ("fig3_b", "autotopism"): 192,
    ("fig6", "autotopism"): 32,
    ("fig6", "paratopism"): 64,
}
SYMMETRY_SQUARES = ("fig3_a", "fig3_b", "fig6")


def solution_space(lib, fig):
    """The pair, 0-combination, block patterns, system and solution space of a fixture pair."""
    pair = (lib.fixtures.load(f"{fig}_a0"), lib.fixtures.load(f"{fig}_a1"))
    n = pair[0].n
    zero = lib.combine.switched_combination(*pair, lib.combine.SwitchingMatrix.zeros(n))
    patterns = lib.combine.block_patterns(pair, zero)
    system = lib.combine.build_system(patterns, n)
    return SimpleNamespace(
        pair=pair, n=n, zero=zero, patterns=patterns, system=system,
        space=lib.gf2.solve(system),
    )


def _random_solution(rng, space) -> tuple[int, ...]:
    vec = list(space.particular)
    for b in space.basis:
        if rng.random() < 0.5:
            vec = [x ^ y for x, y in zip(vec, b)]
    return tuple(vec)


def _square(lib, sol, vec):
    return lib.combine.switched_combination(
        *sol.pair, lib.combine.SwitchingMatrix.from_vector(sol.n, vec)
    )


def squares_setup(lib, seed):
    """Draw a stratified sample of fig2 combinations and a sample of fig5 ones.

    The two order-8 main classes are told apart by the benchmark's own
    paratopy invariant, so every seed gets the same mix of cheap and costly
    canonical-form calls.
    """
    rng = random.Random(seed)
    fx = lib.fixtures
    fixtures = {name: fx.load(name) for name in SYMMETRY_SQUARES}
    sol8, sol16 = solution_space(lib, "fig2"), solution_space(lib, "fig5")
    by_class = {
        oracles.main_class_invariant(fixtures[name].rows): [] for name in ("fig3_a", "fig3_b")
    }
    strays, seen = [], set()
    for _ in range(10_000):
        if all(len(v) >= SQUARES_PER_CLASS for v in by_class.values()):
            break
        vec = _random_solution(rng, sol8.space)
        if vec in seen:
            continue
        seen.add(vec)
        sq = _square(lib, sol8, vec)
        bucket = by_class.get(oracles.main_class_invariant(sq.rows), strays)
        if len(bucket) < SQUARES_PER_CLASS:
            bucket.append(sq)
    order8 = [sq for bucket in by_class.values() for sq in bucket] + strays
    order16, seen = [], set()
    while len(order16) < SQUARES_16:
        vec = _random_solution(rng, sol16.space)
        if vec not in seen:
            seen.add(vec)
            order16.append(_square(lib, sol16, vec))
    return SimpleNamespace(order8=order8, order16=order16, fixtures=fixtures)


def squares_check_inputs(lib, inputs, checks):
    checks.equal(len(inputs.order8), 2 * SQUARES_PER_CLASS, "order-8 sample size")
    for sq in inputs.order8 + inputs.order16:
        with checks.guard("sampled square is latin"):
            lib.core.validate(sq.rows)
        checks.equal(oracles.witness_count(sq.rows), 0, "K3,3 witnesses of a sampled square")


def squares_run(lib, inputs, checks, work_dir):
    canon = lib.canon
    with checks.guard("canonical forms of the order-8 sample"):
        forms8 = [canon.canonical_form(sq) for sq in inputs.order8]
        classes = {f.rows for f in forms8}
        checks.equal(len(classes), lib.tables.expected(8, 8).main, "order-8 main classes")
        fixture_forms = {
            canon.canonical_form(inputs.fixtures[name]).rows for name in ("fig3_a", "fig3_b")
        }
        checks.equal(classes, fixture_forms, "order-8 classes are those of fig3_a and fig3_b")
        _check_forms(lib, inputs.order8, forms8, checks)
    with checks.guard("canonical forms of the order-16 sample"):
        forms16 = [canon.canonical_form(sq) for sq in inputs.order16]
        checks.equal(len({f.rows for f in forms16}), 1, "order-16 main classes")
        _check_forms(lib, inputs.order16, forms16, checks)
    for name in SYMMETRY_SQUARES:
        sq = inputs.fixtures[name]
        for kind in ("autotopism", "paratopism"):
            with checks.guard(f"symmetry of {name} ({kind})"):
                group = canon.symmetry_group(sq, kind)
                orbits = canon.cell_orbits(group, sq)
                _check_group(lib, name, kind, sq, group, orbits, checks)
    return {}


def _check_forms(lib, squares, forms, checks):
    """Forms are idempotent, keep the paratopy invariant, and split as it does."""
    form_of_class = {}
    for sq, form in zip(squares, forms):
        key = oracles.main_class_invariant(sq.rows)
        checks.equal(
            oracles.main_class_invariant(form.rows), key, "canonical form keeps the invariant"
        )
        checks.equal(form_of_class.setdefault(key, form.rows), form.rows,
                     "one canonical form per invariant class")
    for rows in set(form_of_class.values()):
        form = lib.core.LatinRectangle(rows)
        checks.equal(lib.canon.canonical_form(form).rows, rows, "canonical_form is idempotent")


def _check_group(lib, name, kind, sq, group, orbits, checks):
    want = GROUP_ORDERS.get((name, kind))
    if want is not None:
        checks.equal(group.order, want, f"{kind} order of {name}")
    checks.equal(len(group.elements), group.order, f"{kind} elements of {name}")
    checks.check(
        all(lib.core.apply(g, sq) == sq for g in group.elements),
        f"every {kind} element fixes {name}",
    )
    got = {frozenset(o) for o in orbits}
    checks.equal(
        got,
        oracles.orbit_partition([g.act_triple for g in group.elements], sq.rows),
        f"{kind} cell orbits of {name}",
    )
    if name in ("fig3_a", "fig3_b"):
        checks.equal(sorted(len(o) for o in got), [64], f"{kind} cell orbits of {name}")


# -- doubling ----------------------------------------------------------------

#: primes of the seeded orthogonal linear pairs (their systems have no solution)
LINEAR_PRIMES = (11, 13, 17)
#: switching vectors walked by enumerate_solutions on the fig5 system
ENUMERATED = 48
#: zero-combination witnesses certified as eigenfunctions
CERTIFIED = 24
#: kernel dimensions of the doubling systems (catalog index -> dimension)
KERNEL_DIMENSIONS = {0: 15, 1: 9}


def doubling_setup(lib, seed):
    rng = random.Random(seed)
    core, fx = lib.core, lib.fixtures
    catalog = [
        (fx.load("fig5_a0"), fx.load("fig5_a1")),
        (fx.load("fig2_a0"), fx.load("fig2_a1")),
    ]
    for p in LINEAR_PRIMES:
        s, t = rng.sample(range(1, p), 2)
        catalog.append((core.linear_square(p, 1, s), core.linear_square(p, 1, t)))
    return SimpleNamespace(
        catalog=catalog,
        walk_seed=rng.getrandbits(64),
        witness_picks=[rng.random() for _ in range(CERTIFIED)],
        fig3_a=fx.load("fig3_a"),
    )


def doubling_run(lib, inputs, checks, work_dir):
    with checks.guard("search_k33_free_combination"):
        hits = {h.index: h for h in lib.combine.search_k33_free_combination(inputs.catalog)}
        checks.equal(sorted(hits), sorted(KERNEL_DIMENSIONS), "catalog entries with a hit")
        for index, dim in KERNEL_DIMENSIONS.items():
            h = hits.get(index)
            if h is None:
                continue
            checks.equal(h.kernel_dimension, dim, f"kernel dimension of catalog entry {index}")
            checks.equal(h.solution_count, 2**dim, f"solution count of catalog entry {index}")
            checks.equal(oracles.witness_count(h.square.rows), 0, f"witnesses of hit {index}")
    sols = {}
    for index, fig in ((0, "fig5"), (1, "fig2")):
        with checks.guard(f"{fig} system"):
            sol = sols[fig] = solution_space(lib, fig)
            checks.equal(len(sol.patterns), oracles.witness_count(sol.zero.rows),
                         f"{fig} 0-combination witnesses")
            checks.equal(sol.space.dimension, KERNEL_DIMENSIONS[index], f"{fig} kernel dimension")
            p = sol.space.particular
            checks.check(sol.system.check(p), f"{fig} particular solution")
            checks.check(
                all(sol.system.check(tuple(x ^ y for x, y in zip(p, b))) for b in sol.space.basis),
                f"{fig} kernel basis",
            )
    fig5 = sols.get("fig5")
    if fig5 is None:
        return {}
    with checks.guard("enumerated fig5 switchings"):
        walk = random.Random(inputs.walk_seed)
        basis = list(fig5.space.basis)
        walk.shuffle(basis)
        start = lib.gf2.Gf2SolutionSpace(
            fig5.space.n_vars, _random_solution(walk, fig5.space), basis
        )
        vectors = list(lib.gf2.enumerate_solutions(start, limit=ENUMERATED))
        checks.equal(len(vectors), ENUMERATED, "enumerated switchings")
        for vec in vectors:
            checks.check(fig5.system.check(vec), "enumerated switching solves the system")
            checks.check(lib.pattern.is_k33_free(_square(lib, fig5, vec)),
                         "enumerated switching square is K3,3-free")
    with checks.guard("eigenfunctions of fig5 0-combination witnesses"):
        witnesses = sorted(
            (p.witness for p in fig5.patterns), key=lambda w: (w.rows, w.cols, w.letters)
        )
        for x in inputs.witness_picks:
            w = witnesses[int(x * len(witnesses))]
            checks.check(oracles.is_induced_k33(fig5.zero.rows, *w.parts), "witness is a K3,3")
            f = lib.spectral.witness_to_eigenfunction(fig5.zero, w)
            checks.equal(len(f.support), 6, "eigenfunction support")
            checks.check(lib.spectral.check_eigenfunction(fig5.zero, f, Fraction(-3)),
                         "witness eigenfunction at -3")
    with checks.guard("min_trade_volume(fig3_a, 3)"):
        checks.equal(lib.spectral.min_trade_volume(inputs.fig3_a, 3), None,
                     "minimum trade volume of fig3_a")
    return {}


WORKLOADS: dict[str, Workload] = {
    "census8": Workload(census_setup, no_input_checks, census_run(1)),
    "census8_jobs2": Workload(census_setup, no_input_checks, census_run(2), checkpoints=True),
    "squares": Workload(squares_setup, squares_check_inputs, squares_run),
    "doubling": Workload(doubling_setup, no_input_checks, doubling_run),
}
