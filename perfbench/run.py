#!/usr/bin/env python3
"""Benchmark of the k33free package, run from the root of a source checkout.

    python3 perfbench/run.py --workload census8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to be
installed.  A run sets up its inputs several times (import, fixture load and
input construction) and reports the median set-up time, then repeats its
workload pass while the next one should end within ``--seconds`` plus half a
pass (at least once) and reports medians over passes.  Every pass checks its
outputs; a failed check makes the run exit 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics: passes then
alternate between untraced and traced, the tracer wraps the layers' public
functions, and the spans are written to ``.perfbench_out/`` when the run
ends.  The line before the result holds the machine context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 11


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "k33free" / "__init__.py").is_file():
        print(f"error: no k33free sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = machine_context(args)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = workloads.import_library()
        inputs = workload.setup(lib, args.seed)
        setup_times.append(time.perf_counter() - t0)
    if not Path(lib.core.__file__).resolve().is_relative_to(src):
        print(f"error: k33free imported from {lib.core.__file__}, not {src}", file=sys.stderr)
        return 2

    checks = workloads.Checks()
    workload.check_inputs(lib, inputs, checks)
    tracer = Tracer() if args.trace else None
    passes: dict[bool, list[dict]] = {False: [], True: []}
    # another pass starts while it should end within --seconds plus half a
    # pass, judged by the pass before it, so a run of census-length passes
    # still gets two of them; a run makes at least one pass (one of each
    # kind when tracing)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes[False]) > len(passes[True])
        passes[traced].append(run_pass(workload, lib, inputs, checks, tracer if traced else None))
        projected = time.perf_counter() - start + passes[traced][-1]["wall"] / 2
        if projected > args.seconds and (tracer is None or passes[True]):
            break

    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is None:
        metrics = end_to_end(passes[False], setup_times, peak_kib, checks)
        wanted = spec["end_to_end"]
    else:
        metrics = per_layer(passes)
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.json", passes[True])

    context["passes"] = {"untraced": [p["wall"] for p in passes[False]],
                         "traced": [p["wall"] for p in passes[True]]}
    context["setup_s"] = setup_times
    context["failures"] = checks.failures[:20]
    for msg in checks.failures[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 1 if checks.failures else 0


def run_all(args) -> int:
    """Run every workload in its own process (so none inherits another's peak
    memory) and print each metric as ``workload.metric value unit``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {w['name']} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w['name']}.{name}"] = m
            print(f"{w['name']}.{name} {m['value']} {m['unit']}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def run_pass(workload, lib, inputs, checks, tracer) -> dict:
    """One timed pass: first library call to a verified result."""
    work_dir = None
    if workload.checkpoints:
        (OUT / "work").mkdir(parents=True, exist_ok=True)
        work_dir = tempfile.mkdtemp(dir=OUT / "work")
    if tracer is not None:
        tracer.install()
    try:
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        work = workload.run(lib, inputs, checks, work_dir)
        wall = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "wall": wall,
        "self_cpu": _cpu(self1) - _cpu(self0),
        "child_cpu": _cpu(child1) - _cpu(child0),
        "work": work,
        "checkpoint_bytes": 0,
    }
    if work_dir is not None:
        record["checkpoint_bytes"] = sum(f.stat().st_size for f in Path(work_dir).iterdir())
        shutil.rmtree(work_dir)
    if tracer is not None:
        record["spans"] = tracer.spans
        tracer.reset()
    return record


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def end_to_end(passes, setup_times, peak_kib, checks) -> dict:
    return {
        "run_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(p["self_cpu"] + p["child_cpu"] for p in passes),
        "peak_rss_mib": peak_kib / 1024,
        "pass_ratio": (checks.attempted - len(checks.failures)) / max(checks.attempted, 1),
    }


def _percentile(sorted_values, q) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _rows(shape) -> int:
    return int(shape.split("x")[0]) if shape else 0


def layer_values(record) -> dict:
    """Per-layer metrics of one traced pass."""
    by_name = defaultdict(list)
    for span in record["spans"]:
        by_name[span.name].append(span)
    out = {}
    for modname, fname, count_name, _ in TARGETS:
        name = f"{modname}.{fname}"
        spans = by_name[name]
        ms = sorted((s.end - s.start) * 1000 for s in spans)
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.self_s"] = sum(s.self_s for s in spans)
        out[f"{name}.p50_ms"] = _percentile(ms, 0.50)
        out[f"{name}.p95_ms"] = _percentile(ms, 0.95)
        if count_name:
            out[f"{name}.{count_name}"] = sum(s.count or 0 for s in spans)

    # every parent extended at m >= 3 makes one stabilizer call and one
    # compatibility graph; every other stabilizer call at m >= 3 is a child
    child_calls = sum(
        _rows(s.shape) >= 3 for s in by_name["canon.canonical_with_stabilizer"]
    ) - sum(_rows(s.shape) >= 3 for s in by_name["generate.compatibility_graph"])
    classes = record["work"].get("classes", 0)
    out["generate.canon_calls_per_class"] = child_calls / classes if classes else 0.0
    jobs = record["work"].get("jobs")  # set by the workloads that run the census engine
    wall = record["wall"]
    out["generate.pool.worker_cpu_s"] = record["child_cpu"] if jobs else 0.0
    out["generate.pool.parent_cpu_s"] = record["self_cpu"] if jobs else 0.0
    out["generate.pool.utilization"] = (
        (record["child_cpu"] + record["self_cpu"]) / (jobs * wall) if jobs else 0.0
    )
    out["generate.checkpoint_bytes"] = record["checkpoint_bytes"]
    out["trace.run_s"] = wall
    return out


def per_layer(passes) -> dict:
    """Median over traced passes of each per-layer value, plus the tracing overhead."""
    values = [layer_values(p) for p in passes[True]]
    out = {k: statistics.median(v[k] for v in values) for k in values[0]}
    out["trace.overhead_ratio"] = statistics.median(p["wall"] for p in passes[True]) / (
        statistics.median(p["wall"] for p in passes[False])
    )
    return out


def write_spans(path, traced_passes) -> None:
    fields = ["name", "start", "end", "parent", "shape", "count", "self_s"]
    payload = {
        "fields": fields,
        "passes": [
            [[getattr(s, f) for f in fields] for s in p["spans"]] for p in traced_passes
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))


def machine_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "loadavg": os.getloadavg(),
    }


def _source_digest() -> str:
    """Digest of the package sources, which identifies the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
