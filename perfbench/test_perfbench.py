"""Tests of the benchmark itself: its checks catch wrong answers, its output
follows BENCHMARK.json, and its tracer records and restores what it wraps.

    python3 -m pytest -q perfbench

Workloads are shrunk through their module constants so the suite runs in
seconds; the checks themselves are the ones the benchmark runs.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layers.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a fraction of a second per pass."""
    monkeypatch.setattr(workloads, "CENSUS_COLUMNS", range(3, 7))
    monkeypatch.setattr(workloads, "SQUARES_16", 1)
    monkeypatch.setattr(workloads, "LINEAR_PRIMES", (5, 7))
    monkeypatch.setattr(workloads, "ENUMERATED", 4)
    monkeypatch.setattr(workloads, "CERTIFIED", 4)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def corrupt_library(monkeypatch, change):
    """Apply ``change(lib)`` to every fresh import the benchmark makes."""
    real = workloads.import_library

    def patched():
        lib = real()
        change(lib)
        return lib

    monkeypatch.setattr(workloads, "import_library", patched)


def bench(capsys, workload, trace=0, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_clean_run_reports_every_metric(small, capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        assert result["metrics"]["run_s"]["value"] > 0
        return
    calls = {k[: -len(".calls")]: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".calls")}
    for prefix in LAYER_MAP["zero_calls"][workload]:
        hits = [k for k in calls if k == prefix or k.startswith(prefix + ".")]
        assert hits and all(calls[k] == 0 for k in hits), prefix


def test_layer_map_covers_every_per_layer_metric():
    mapped = [name for entry in LAYER_MAP["moves"] for name in entry["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads_named = {w["name"] for w in SPEC["workloads"]}
    assert set(LAYER_MAP["zero_calls"]) == set(LAYER_MAP["seed_draws"]) == workloads_named
    for entry in LAYER_MAP["moves"]:
        for metric in entry["end_to_end"]:
            w, m = metric.split(".")
            assert w in workloads_named and m in {e["name"] for e in SPEC["end_to_end"]}


def assert_caught(code, result):
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1.0


@pytest.mark.parametrize("workload", ["census8", "census8_jobs2"])
def test_census_check_catches_a_wrong_cell(small, capsys, monkeypatch, workload):
    def change(lib):
        real = lib.tables.expected
        lib.tables.expected = lambda m, n: _wrong_cell(real, m, n)

    corrupt_library(monkeypatch, change)
    assert_caught(*bench(capsys, workload))


def _wrong_cell(real, m, n):
    cell = real(m, n)
    return dataclasses.replace(cell, iso=cell.iso + 1) if (m, n) == (4, 6) else cell


def test_census_double_count_error_is_a_failed_check(small, capsys, monkeypatch):
    def change(lib):
        real = lib.generate.classify_column

        def failing(n, m_max, **kw):
            if n == 5:
                raise lib.generate.DoubleCountError("injected")
            return real(n, m_max, **kw)

        lib.generate.classify_column = failing

    corrupt_library(monkeypatch, change)
    assert_caught(*bench(capsys, "census8"))


def test_squares_check_catches_a_wrong_group_order(small, capsys, monkeypatch):
    monkeypatch.setitem(workloads.GROUP_ORDERS, ("fig6", "autotopism"), 33)
    assert_caught(*bench(capsys, "squares"))


def test_squares_check_catches_a_non_canonical_form(small, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "SQUARES_16", 2)

    def change(lib):
        real = lib.canon.canonical_form
        lib.canon.canonical_form = lambda s, level="main": (
            s if s.n == 16 else real(s, level)
        )

    corrupt_library(monkeypatch, change)
    assert_caught(*bench(capsys, "squares"))


def test_doubling_check_catches_a_wrong_kernel_dimension(small, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "KERNEL_DIMENSIONS", {0: 14, 1: 9})
    assert_caught(*bench(capsys, "doubling"))


def test_doubling_check_catches_a_missed_witness(small, capsys, monkeypatch):
    def change(lib):
        real = lib.pattern.find_k33
        lib.combine.find_k33 = lambda s: set(list(real(s))[1:])

    corrupt_library(monkeypatch, change)
    assert_caught(*bench(capsys, "doubling"))


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "census8", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["squares", "doubling"])
def test_seed_fixes_the_inputs(small, workload):
    lib = workloads.import_library()
    setup = workloads.WORKLOADS[workload].setup
    a, b, c = setup(lib, 7), setup(lib, 7), setup(lib, 8)
    assert repr(a) == repr(b) and repr(a) != repr(c)


def test_witness_oracle_agrees_with_the_scan():
    lib = workloads.import_library()
    for name in ("z3", "fig2_comb0", "fig2_comb1", "sq5_completion", "fig3_a", "fig6"):
        s = lib.fixtures.load(name)
        assert oracles.witness_count(s.rows) == len(lib.pattern.find_k33(s)), name


def test_class_invariant_separates_the_order8_classes():
    lib = workloads.import_library()
    a, b = (lib.fixtures.load(name) for name in ("fig3_a", "fig3_b"))
    assert oracles.main_class_invariant(a.rows) != oracles.main_class_invariant(b.rows)
    for sigma in lib.core.ALL_CONJS:
        image = lib.core.conjugate(a, sigma)
        assert oracles.main_class_invariant(image.rows) == oracles.main_class_invariant(a.rows)


def test_tracer_records_nested_spans_and_restores_bindings():
    lib = workloads.import_library()
    originals = (lib.pattern.find_k33, lib.combine.find_k33, lib.canon.canonical_with_stabilizer)
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.combine.find_k33 is lib.pattern.find_k33 is not originals[0]
        lib.canon.symmetry_group(lib.fixtures.load("fig3_a"), "autotopism")
        a0, a1 = lib.fixtures.load("fig2_a0"), lib.fixtures.load("fig2_a1")
        lib.combine.search_k33_free_combination([(a0, a1)])
        vectors = list(lib.gf2.enumerate_solutions(
            lib.gf2.solve(lib.gf2.Gf2System(n_vars=3)), limit=5))
    finally:
        tracer.uninstall()
    assert (lib.pattern.find_k33, lib.combine.find_k33,
            lib.canon.canonical_with_stabilizer) == originals
    names = [s.name for s in tracer.spans]
    sym = names.index("canon.symmetry_group")
    cws = tracer.spans[names.index("canon.canonical_with_stabilizer")]
    assert cws.parent == sym and cws.shape == "8x8" and cws.count == 64
    search = names.index("combine.search_k33_free_combination")
    assert {tracer.spans[i].name for i, s in enumerate(tracer.spans)
            if s.parent == search} >= {"combine.block_patterns", "gf2.solve",
                                       "pattern.is_k33_free"}
    for s in tracer.spans:
        assert 0 <= s.self_s <= s.end - s.start
    enum = tracer.spans[names.index("gf2.enumerate_solutions")]
    assert enum.count == len(vectors) == 5


def test_all_prints_every_metric_of_every_workload():
    # a full-length run of each workload is too slow for a test; a zero
    # second run still makes one pass of each
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "all", "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    merged = json.loads(proc.stdout.splitlines()[-1])
    assert merged["correct"] and merged["failed"] == 0
    assert set(merged["metrics"]) == {
        f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC["end_to_end"]
    }
