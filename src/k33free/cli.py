"""Command-line surface: verdicts, census runs, symmetry and construction.

Exit codes: 0 on success/verified, 1 on a verification mismatch, 2 on
usage or parse errors.  Every run can emit a JSON manifest (command,
parameters, input hashes, timings, counts) — it is the JSON report
itself under ``--format json``, and a file in ``$K33FREE_WORK_DIR``
otherwise, when that variable is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, canon, generate, spectral, tables
from .combine import (
    SwitchingMatrix,
    search_k33_free_combination,
    switched_combination,
)
from .core import (
    LatinError,
    LatinRectangle,
    parse,
    parse_catalog,
    serialize,
)
from .pattern import find_induced_ktt, find_k33


class Report:
    """Accumulates text lines and JSON fields for one command run."""

    def __init__(self, command: str, params: dict):
        self.lines: list[str] = []
        self.data: dict = {
            "command": command,
            "parameters": params,
            "version": __version__,
            "input_hashes": {},
        }
        self.t0 = time.time()

    def read(self, path: str) -> str:
        """The input file's text, decoded as UTF-8; the sha256 of the bytes
        read goes into ``input_hashes``."""
        data = Path(path).read_bytes()
        self.data["input_hashes"][path] = hashlib.sha256(data).hexdigest()
        return data.decode("utf-8")

    def say(self, line: str, **fields) -> None:
        self.lines.append(line)
        self.data.update(fields)

    def emit(self, fmt: str) -> None:
        """Print the report; in text mode write the manifest first, so a
        failed write leaves stdout empty."""
        self.data["seconds"] = round(time.time() - self.t0, 3)
        if fmt == "json":
            print(json.dumps(self.data, indent=2, default=str))
            return
        work = os.environ.get("K33FREE_WORK_DIR")
        if work:
            Path(work).mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%d-%H%M%S")
            name = f"{self.data['command']}-{stamp}-{os.getpid()}.json"
            (Path(work) / name).write_text(json.dumps(self.data, default=str))
        print("\n".join(self.lines))


def cmd_check(args, report: Report) -> int:
    if args.max_witnesses < 0:
        raise ValueError(f"--max-witnesses must be at least 0, got {args.max_witnesses}")
    s = parse(report.read(args.file))
    witnesses = sorted(find_k33(s), key=lambda w: w.cells)
    free = not witnesses
    report.say(f"K3,3-free: {str(free).lower()}", free=free,
               witness_count=len(witnesses),
               witnesses=[w.to_json_dict() for w in witnesses[: args.max_witnesses]])
    for w in witnesses[: args.max_witnesses]:
        report.lines.append(f"  witness rows={w.rows} cols={w.cols} letters={w.letters}")
    if len(witnesses) > args.max_witnesses:
        report.lines.append(f"  ... {len(witnesses) - args.max_witnesses} more")
    return 0


def _level_fields(column: dict[int, generate.ClassificationResult]) -> list[dict]:
    """The manifest entry of each level of a census column."""
    return [
        {"m": m, "n": res.n, "raw_extensions": res.raw_extensions,
         "canonised": res.canonised, "certified": res.certified,
         "seconds": round(res.seconds, 3)}
        for m, res in sorted(column.items())
    ]


def cmd_enumerate(args, report: Report) -> int:
    column = generate.classify_column(args.n, args.m, jobs=args.jobs,
                                      out_dir=args.work_dir)
    res = column[args.m]
    report.data["levels"] = _level_fields(column)
    report.say(
        f"{args.m}x{args.n}: {res.main_class_count} main classes, "
        f"{res.isotopy_class_count} isotopy classes, "
        f"{res.total_labeled_count} labeled rectangles",
        main=res.main_class_count,
        iso=res.isotopy_class_count,
        total=res.total_labeled_count,
    )
    if args.out:
        from .core import serialize_catalog

        Path(args.out).write_text(serialize_catalog(res.representatives))
        report.lines.append(f"catalog written to {args.out}")
    return 0


def cmd_census(args, report: Report) -> int:
    if args.n_max < 3:
        raise ValueError(f"--n-max must be at least 3, got {args.n_max}")
    if args.n_max >= 10 and not args.stretch:
        raise LatinError("columns n >= 10 are stretch runs; pass --stretch")
    mismatches = 0
    for n in range(3, args.n_max + 1):
        col = generate.classify_column(n, n, jobs=args.jobs,
                                       out_dir=args.work_dir,
                                       progress=args.progress)
        report.data.setdefault("levels", []).extend(_level_fields(col))
        for m in range(3, n + 1):
            res = col[m]
            exp = tables.expected(m, n)
            got = (res.main_class_count, res.isotopy_class_count,
                   res.total_labeled_count)
            if exp is None:
                status = "untabulated"
            else:
                ok = exp.agrees(*got)
                status = "ok" if ok else f"MISMATCH expected {(exp.main, exp.iso, exp.total)}"
                mismatches += 0 if ok else 1
            report.say(
                f"({m},{n}): main {got[0]}, iso {got[1]}, total {got[2]} [{status}]"
            )
            report.data.setdefault("cells", []).append(
                {"m": m, "n": n, "main": got[0], "iso": got[1],
                 "total": got[2], "status": status}
            )
    report.data["mismatches"] = mismatches
    return 1 if mismatches else 0


def cmd_canon(args, report: Report) -> int:
    s = parse(report.read(args.file))
    form = canon.canonical_form(s, args.level)
    report.say(serialize(form).rstrip("\n"), canonical=[list(r) for r in form.rows])
    return 0


def cmd_symmetry(args, report: Report) -> int:
    s = parse(report.read(args.file))
    group = canon.symmetry_group(s, args.kind)
    orbits = canon.cell_orbits(group, s)
    sizes = sorted(len(o) for o in orbits)
    report.say(
        f"{args.kind} group order {group.order}; "
        f"{len(orbits)} cell orbit(s) of sizes {sizes}",
        order=group.order,
        cell_orbits=len(orbits),
        orbit_sizes=sizes,
        transitive=len(orbits) == 1,
    )
    return 0


def cmd_combine(args, report: Report) -> int:
    a0, a1 = parse(report.read(args.a0)), parse(report.read(args.a1))
    if args.switch:
        s = SwitchingMatrix.parse(report.read(args.switch))
    else:
        s = SwitchingMatrix.zeros(a0.n)
    square = switched_combination(a0, a1, s)
    report.say(serialize(square).rstrip("\n"),
               square=[list(r) for r in square.rows])
    return 0


def cmd_find_free(args, report: Report) -> int:
    if args.order is not None and args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    squares = parse_catalog(report.read(args.catalog))
    if len(squares) % 2:
        raise LatinError("catalog must hold an even number of squares (pairs)")
    pairs = [(squares[i], squares[i + 1]) for i in range(0, len(squares), 2)]
    if args.order is not None:
        pairs = [p for p in pairs if p[0].n == args.order]
    hits = search_k33_free_combination(pairs)
    report.say(f"{len(hits)} hit(s) from {len(pairs)} pair(s)",
               hits=len(hits), pairs=len(pairs))
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for h in hits:
        report.lines.append(
            f"  pair {h.index}: order {h.square.n}, "
            f"{h.solution_count} solutions (kernel dimension {h.kernel_dimension})"
        )
        report.data.setdefault("solutions", []).append(
            {"pair": h.index, "order": h.square.n,
             "solution_count": h.solution_count,
             "kernel_dimension": h.kernel_dimension}
        )
        if out_dir:
            (out_dir / f"pair{h.index}_switch.txt").write_text(h.switching.serialize())
            (out_dir / f"pair{h.index}_square.txt").write_text(serialize(h.square))
    return 0


def _fraction(text: str) -> Fraction:
    """A rational number; a zero denominator is bad input like any other."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_function(path: str, text: str, s: LatinRectangle) -> spectral.CellFunction:
    """The cell function in ``text`` on the square s; ``path`` names it in errors."""
    values = {}
    for ln, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            r, c, v = line.split()
            r, c, v = int(r), int(c), _fraction(v)
        except ValueError as exc:
            raise LatinError(f"{path}:{ln}: bad function line {line!r}") from exc
        if not (0 <= r < s.m and 0 <= c < s.n):
            raise LatinError(f"{path}:{ln}: cell ({r}, {c}) is outside the {s.m}x{s.n} square")
        if (r, c) in values:
            raise LatinError(f"{path}:{ln}: cell ({r}, {c}) is given a second value")
        values[(r, c)] = v
    return spectral.CellFunction(s, values)


def cmd_verify_eigen(args, report: Report) -> int:
    s = parse(report.read(args.file))
    f = _parse_function(args.function, report.read(args.function), s)
    ok = spectral.check_eigenfunction(s, f, _fraction(args.theta))
    report.say(f"eigenfunction at theta={args.theta}: {str(ok).lower()}",
               verified=ok, support=len(f.support))
    return 0 if ok else 1


def cmd_min_trade(args, report: Report) -> int:
    s = parse(report.read(args.file))
    vol = spectral.min_trade_volume(s, cap=args.cap)
    report.say(f"minimum trade volume (cap {args.cap}): {vol}", volume=vol)
    return 0


def cmd_mols_check(args, report: Report) -> int:
    squares = parse_catalog(report.read(args.file))
    witnesses = find_induced_ktt(tuple(squares), args.t)
    free = not witnesses
    report.say(
        f"K{args.t},{args.t}-free: {str(free).lower()} "
        f"({len(witnesses)} witness(es))",
        free=free, witness_count=len(witnesses),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="k33free",
        description="K3,3-free latin rectangles: census, symmetry, construction",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="K3,3 verdict and witnesses for one file")
    sp.add_argument("file")
    sp.add_argument("--max-witnesses", type=int, default=10)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("enumerate", help="classify one shape")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", help="write the class catalog here")
    sp.add_argument("--work-dir", default=os.environ.get("K33FREE_WORK_DIR"))
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("census", help="regenerate and diff the census tables (n<=9: ~20 s)")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--stretch", action="store_true",
                    help="allow the n>=10 columns (CPU-hours; memory-bound)")
    sp.add_argument("--progress", action="store_true")
    sp.add_argument("--work-dir", default=os.environ.get("K33FREE_WORK_DIR"))
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("canon", help="canonical form of a rectangle")
    sp.add_argument("file")
    sp.add_argument("--level", choices=("main", "isotopy"), default="main")
    sp.set_defaults(func=cmd_canon)

    sp = sub.add_parser("symmetry", help="stabilizer group and cell orbits")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=("autotopism", "paratopism"),
                    default="autotopism")
    sp.set_defaults(func=cmd_symmetry)

    sp = sub.add_parser("combine", help="switched combination of two squares")
    sp.add_argument("--a0", required=True)
    sp.add_argument("--a1", required=True)
    sp.add_argument("--switch")
    sp.set_defaults(func=cmd_combine)

    sp = sub.add_parser("find-free",
                        help="solve switching systems over a pair catalog")
    sp.add_argument("--catalog", required=True)
    sp.add_argument("--order", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_find_free)

    sp = sub.add_parser("verify-eigen", help="exact eigenfunction check")
    sp.add_argument("file")
    sp.add_argument("--function", required=True,
                    help="lines of 'row col value'")
    sp.add_argument("--theta", required=True)
    sp.set_defaults(func=cmd_verify_eigen)

    sp = sub.add_parser("min-trade", help="smallest transversal trade volume")
    sp.add_argument("file")
    sp.add_argument("--cap", type=int, default=3)
    sp.set_defaults(func=cmd_min_trade)

    sp = sub.add_parser("mols-check",
                        help="induced K_{t,t} check on a square collection")
    sp.add_argument("file", help="catalog of pairwise orthogonal squares")
    sp.add_argument("--t", type=int, default=4)
    sp.set_defaults(func=cmd_mols_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(args.command, {
        k: v for k, v in vars(args).items() if k not in ("func", "format")
    })
    try:
        code = args.func(args, report)
        report.emit(args.format)
    except (LatinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except generate.DoubleCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
