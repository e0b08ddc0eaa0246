"""Command-line surface: outputs, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_table, load_switch
from k33free import cli, fixtures
from k33free.core import linear_square, parse, serialize, serialize_catalog


@pytest.fixture
def fx(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.txt"
        p.write_text(serialize(fixtures.load(name)))
        return str(p)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_check_free(capsys, fx):
    code, out = run(capsys, "check", fx("fig6"))
    assert code == 0 and "K3,3-free: true" in out


def test_check_not_free_lists_witnesses(capsys, fx):
    code, out = run(capsys, "check", fx("z3"))
    assert code == 0 and "K3,3-free: false" in out and "witness" in out


def test_check_json_format(capsys, fx):
    code, out = run(capsys, "--format", "json", "check", fx("z3"))
    data = json.loads(out)
    assert data["free"] is False and data["witness_count"] == 3
    assert data["command"] == "check" and data["input_hashes"]


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 1\n0 1\n")
    assert cli.main(["check", str(bad)]) == 2


def test_missing_file(capsys):
    assert cli.main(["check", "/no/such/file"]) == 2


def test_enumerate(capsys, tmp_path):
    out_file = tmp_path / "cat.txt"
    code, out = run(capsys, "enumerate", "--m", "3", "--n", "5",
                    "--out", str(out_file))
    assert code == 0 and "1 main classes" in out
    assert out_file.exists()


def test_census_small_ok(capsys):
    code, out = run(capsys, "census", "--n-max", "5")
    assert code == 0 and "MISMATCH" not in out


@pytest.mark.parametrize("argv, shapes", [
    (("census", "--n-max", "4"), [(m, n) for n in (3, 4) for m in range(1, n + 1)]),
    (("enumerate", "--m", "4", "--n", "6"), [(m, 6) for m in range(1, 5)]),
])
def test_json_manifest_lists_every_level(capsys, argv, shapes):
    code, out = run(capsys, "--format", "json", *argv)
    levels = json.loads(out)["levels"]
    assert code == 0 and [(lv["m"], lv["n"]) for lv in levels] == shapes
    for lv in levels:
        assert lv["raw_extensions"] >= 0 and lv["seconds"] >= 0
        # a level with new rows canonises or certifies at least one child, at
        # most one per row
        accepted = lv["canonised"] + lv["certified"]
        assert (accepted > 0) == (lv["raw_extensions"] > 0)
        assert accepted <= lv["raw_extensions"]
    # the second rows of a 2xn level are the derangements of n letters
    derangements = {3: 2, 4: 9, 6: 265}
    assert all(lv["raw_extensions"] == derangements[lv["n"]] for lv in levels if lv["m"] == 2)


def test_json_manifest_counts_no_canon_call_for_a_loaded_level(capsys, tmp_path):
    argv = ("--format", "json", "enumerate", "--m", "4", "--n", "6",
            "--work-dir", str(tmp_path))
    fresh = json.loads(run(capsys, *argv)[1])["levels"]
    resumed = json.loads(run(capsys, *argv)[1])["levels"]
    accepted = [lv["canonised"] + lv["certified"] for lv in fresh]
    assert accepted[0] == 0 and all(accepted[1:])
    assert [(lv["canonised"], lv["certified"]) for lv in resumed] == [(0, 0)] * 4
    assert [lv["raw_extensions"] for lv in resumed] == [lv["raw_extensions"] for lv in fresh]


def test_resumed_run_leaves_the_checkpoints_untouched(capsys, tmp_path):
    argv = ("enumerate", "--m", "3", "--n", "6", "--work-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    files = sorted(tmp_path.glob("level_*.json"))
    assert [f.name for f in files] == ["level_2x6.json", "level_3x6.json"]
    before = [(f.stat().st_mtime_ns, f.read_bytes()) for f in files]
    assert run(capsys, *argv)[0] == 0
    assert [(f.stat().st_mtime_ns, f.read_bytes()) for f in files] == before


def test_census_gating(capsys):
    assert cli.main(["census", "--n-max", "9"]) == 2
    assert cli.main(["census", "--n-max", "10", "--long"]) == 2


def one_line_error(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return code


@pytest.mark.parametrize("argv", [
    ("census", "--n-max", "2"),
    ("census", "--n-max", "-1"),
    ("census", "--n-max", "5", "--jobs", "0"),
    ("census", "--n-max", "5", "--jobs", "-2"),
    ("enumerate", "--m", "3", "--n", "5", "--jobs", "0"),
])
def test_census_and_enumerate_reject_bad_sizes(capsys, argv):
    assert one_line_error(capsys, *argv) == 2


@pytest.mark.parametrize("argv", [
    ("check", "--max-witnesses", "-1"),
    ("min-trade", "--cap", "0"),
    ("min-trade", "--cap", "-1"),
])
def test_out_of_range_counts_are_input_errors(capsys, fx, argv):
    command, *flags = argv
    assert one_line_error(capsys, command, fx("z3"), *flags) == 2


def test_check_max_witnesses_zero_lists_none(capsys, fx):
    code, out = run(capsys, "check", fx("z3"), "--max-witnesses", "0")
    assert code == 0 and "witness rows" not in out and "... 3 more" in out


def test_stale_checkpoint_is_an_input_error(capsys, tmp_path):
    work = tmp_path / "work"
    assert cli.main(["enumerate", "--m", "3", "--n", "5", "--work-dir", str(work)]) == 0
    capsys.readouterr()
    f = work / "level_3x5.json"
    payload = json.loads(f.read_text())
    del payload["version"]
    f.write_text(json.dumps(payload))
    assert one_line_error(capsys, "enumerate", "--m", "4", "--n", "5",
                          "--work-dir", str(work)) == 2


@pytest.mark.parametrize("field, value", [
    ("stab_order", 0),
    ("stab_order", "x"),
    ("stab_order", 7),  # not a divisor of the 3x6 group order
    ("iso_classes", 0),
    ("rows", [[0, 1, 2, 3, 4, 6]] * 3),
    ("rows", [[0, 1, 2, 3, 4, 5]] * 2),
    ("rows", [[0, 1, 2, 3, 4, 5]] * 3),  # not latin
    ("rows", [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], [2, 3, 4, 5, 0, 1.5]]),
    ("raw_extensions", "x"),
    ("raw_extensions", -1),
])
def test_malformed_checkpoint_is_an_input_error(capsys, tmp_path, field, value):
    work = tmp_path / "work"
    assert cli.main(["enumerate", "--m", "3", "--n", "6", "--work-dir", str(work)]) == 0
    capsys.readouterr()
    f = work / "level_3x6.json"
    payload = json.loads(f.read_text())
    (payload if field == "raw_extensions" else payload["classes"][0])[field] = value
    f.write_text(json.dumps(payload))
    assert one_line_error(capsys, "enumerate", "--m", "4", "--n", "6",
                          "--work-dir", str(work)) == 2


def test_enumerate_two_by_two(capsys):
    code, out = run(capsys, "--format", "json", "enumerate", "--m", "2", "--n", "2")
    data = json.loads(out)
    assert code == 0 and (data["main"], data["total"]) == (1, 2)


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = {line.split()[1] for line in block.splitlines() if line.startswith("k33free ")}
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert listed == set(sub.choices)


def test_canon_idempotent(capsys, fx):
    code, out = run(capsys, "canon", fx("fig3_a"))
    assert code == 0
    form = parse(out)
    code2, out2 = run(capsys, "canon", fx("fig3_b"))
    assert parse(out2).rows != form.rows


#: every key of a JSON symmetry report: the results are exact, so none marks a cut
SYMMETRY_KEYS = {"command", "parameters", "version", "input_hashes", "seconds",
                 "order", "cell_orbits", "orbit_sizes", "transitive"}


def test_symmetry(capsys, fx):
    code, out = run(capsys, "--format", "json", "symmetry", "--kind",
                    "autotopism", fx("fig3_a"))
    data = json.loads(out)
    assert data["order"] == 64 and data["transitive"] is True
    assert set(data) == SYMMETRY_KEYS


def test_symmetry_of_a_single_row_is_listed_in_full(capsys, tmp_path):
    row = tmp_path / "row.txt"
    row.write_text("1 7\n6 5 4 3 2 1 0\n")
    code, out = run(capsys, "--format", "json", "symmetry", "--kind", "paratopism", str(row))
    data = json.loads(out)
    assert code == 0 and data["order"] == 10080
    assert data["cell_orbits"] == 1 and set(data) == SYMMETRY_KEYS


def test_symmetry_of_a_long_row_is_exact(capsys, tmp_path):
    # 10! x 2 paratopisms, transitive on the cells
    row = tmp_path / "row.txt"
    row.write_text("1 10\n" + " ".join(map(str, range(10))) + "\n")
    code, out = run(capsys, "--format", "json", "symmetry", "--kind", "paratopism", str(row))
    data = json.loads(out)
    assert code == 0 and data["order"] == 7_257_600 and data["cell_orbits"] == 1


def test_combine_and_switch(capsys, fx, tmp_path):
    sw = tmp_path / "sw.txt"
    sw.write_text(load_switch("fig5_switch").serialize())
    code, out = run(capsys, "combine", "--a0", fx("fig5_a0"),
                    "--a1", fx("fig5_a1"), "--switch", str(sw))
    assert code == 0 and parse(out).rows == fixtures.load("fig6").rows


def test_find_free(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text(serialize_catalog(
        [fixtures.load("fig5_a0"), fixtures.load("fig5_a1")]
    ))
    out_dir = tmp_path / "hits"
    code, out = run(capsys, "find-free", "--catalog", str(cat),
                    "--out", str(out_dir))
    assert code == 0 and "1 hit(s)" in out and "32768 solutions" in out
    assert (out_dir / "pair0_square.txt").exists()


@pytest.mark.parametrize("order", ["0", "-1"])
def test_find_free_rejects_an_order_below_one(capsys, tmp_path, order):
    cat = tmp_path / "cat.txt"
    cat.write_text(serialize_catalog(
        [linear_square(3, 1, 1), linear_square(3, 1, 2)] * 2
    ))
    assert one_line_error(capsys, "find-free", "--catalog", str(cat),
                          "--order", order) == 2


def test_verify_eigen(capsys, fx, tmp_path):
    from k33free.pattern import find_k33

    z3 = fixtures.load("z3")
    w = sorted(find_k33(z3), key=lambda x: x.cells)[0]
    plus, minus = w.parts
    func = tmp_path / "f.txt"
    func.write_text(
        "\n".join(f"{r} {c} 1" for r, c in plus)
        + "\n"
        + "\n".join(f"{r} {c} -1" for r, c in minus)
    )
    code, out = run(capsys, "verify-eigen", fx("z3"),
                    "--function", str(func), "--theta", "-3")
    assert code == 0 and "true" in out
    code, _ = run(capsys, "verify-eigen", fx("z3"),
                  "--function", str(func), "--theta", "5")
    assert code == 1


def test_manifest_hashes_the_bytes_parsed(capsys, fx, tmp_path):
    sw = tmp_path / "sw.txt"
    sw.write_text(load_switch("fig5_switch").serialize())
    func = tmp_path / "f.txt"
    func.write_text("0 0 1\n0 1 -1\n")
    a0, a1, z3, sw, func = fx("fig5_a0"), fx("fig5_a1"), fx("z3"), str(sw), str(func)
    for inputs, argv in (
        ([a0, a1, sw], ["combine", "--a0", a0, "--a1", a1, "--switch", sw]),
        ([z3, func], ["verify-eigen", z3, "--function", func, "--theta", "-3"]),
    ):
        code, out = run(capsys, "--format", "json", *argv)
        assert code in (0, 1) and json.loads(out)["input_hashes"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs
        }


def test_input_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 3\n0 1 \xff\n")
    assert one_line_error(capsys, "check", str(bad)) == 2


@pytest.mark.parametrize("line", ["5 0 1", "-1 0 1", "0 3 1"])
def test_verify_eigen_rejects_cells_outside_the_square(capsys, fx, tmp_path, line):
    func = tmp_path / "f.txt"
    func.write_text(f"0 0 1\n{line}\n")
    assert one_line_error(capsys, "verify-eigen", fx("z3"), "--function", str(func),
                          "--theta", "-3") == 2


def test_verify_eigen_rejects_a_cell_named_twice(capsys, fx, tmp_path):
    func = tmp_path / "f.txt"
    func.write_text("0 0 1\n0 1 -1\n\n0 0 -1\n")
    code = cli.main(["verify-eigen", fx("z3"), "--function", str(func), "--theta", "-3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {func}:4: cell (0, 0) is given a second value\n"


def test_min_trade(capsys, fx):
    code, out = run(capsys, "min-trade", fx("z3"), "--cap", "3")
    assert code == 0 and "3" in out


def test_mols_check(capsys, tmp_path):
    from k33free.core import linear_square

    cat = tmp_path / "pair.txt"
    cat.write_text(serialize_catalog(
        [linear_square(5, 2, 1), linear_square(5, 1, 2)]
    ))
    code, out = run(capsys, "mols-check", str(cat), "--t", "4")
    assert code == 0 and "free: false" in out


def test_manifest_written_to_work_dir(capsys, fx, tmp_path, monkeypatch):
    monkeypatch.setenv("K33FREE_WORK_DIR", str(tmp_path / "runs"))
    run(capsys, "check", fx("z3"))
    files = list((tmp_path / "runs").glob("check-*.json"))
    assert len(files) == 1
    data = json.loads(files[0].read_text())
    assert data["command"] == "check" and "seconds" in data


def test_manifest_dir_that_is_a_file_is_an_input_error(capsys, fx, tmp_path, monkeypatch):
    blocker = tmp_path / "runs"
    blocker.write_text("")
    monkeypatch.setenv("K33FREE_WORK_DIR", str(blocker))
    assert one_line_error(capsys, "check", fx("z3")) == 2


@pytest.mark.parametrize("value, theta", [("1/0", "-3"), ("1", "1/0")])
def test_zero_denominator_is_an_input_error(capsys, fx, tmp_path, value, theta):
    func = tmp_path / "f.txt"
    func.write_text(f"0 0 {value}\n")
    assert one_line_error(capsys, "verify-eigen", fx("z3"), "--function", str(func),
                          "--theta", theta) == 2


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(max_denominator=50),
))
@settings(max_examples=60)
def test_eigenfunction_file_round_trip(values):
    text = "".join(f"{r} {c} {v}\n" for (r, c), v in values.items())
    assert cli._parse_function("f.txt", text, fixtures.load("z3")).values == values


# -- junk input: every subcommand exits 0, 1 or 2 and never raises -----------

_SMALL = [fixtures.load("z3"), fixtures.load("fig2_a0"), fixtures.load("fig2_a1"),
          fixtures.load("rect_4x5"), group_table("Z4"),
          linear_square(5, 1, 1), linear_square(5, 1, 2)]
_junk_words = st.sampled_from(["", "x", "-", "1/0", "0/0", "2.5", "1e3", "nan"])


def _mostly(good, bad):
    """``good`` three times in four, else ``bad``: several inputs of one
    run must all be good for the run to get past parsing."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


def _number(lo, hi):
    """A small integer in [lo, hi] as text, or a word that is not an integer."""
    return _mostly(st.integers(lo, hi).map(str), _junk_words)


def _lines(rows):
    return "".join(" ".join(row) + "\n" for row in rows)


_cell = st.integers(-1, 3).map(str)
# per kind of input file: well-formed texts (with numbers out of range), or
# the same texts cut short, or noise
_file_texts = {
    "square": st.sampled_from([serialize(s) for s in _SMALL]),
    "catalog": st.one_of(
        st.sampled_from([_SMALL[1:3], _SMALL[5:7]]),  # orthogonal pairs
        st.lists(st.sampled_from(_SMALL), min_size=1, max_size=3),
    ).map(serialize_catalog),
    "function": st.lists(st.tuples(_cell, _cell, _number(-2, 2)), max_size=4).map(_lines),
    "switch": st.integers(2, 5).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from("01"), min_size=n, max_size=n), min_size=n, max_size=n,
    )).map(_lines),
}


def _junk_file(kind):
    text = _file_texts[kind]
    whole = text.map(str.encode)
    cut = st.tuples(whole, st.integers(0, 40)).map(lambda bc: bc[0][:bc[1]])
    return _mostly(whole, st.one_of(cut, st.binary(max_size=12)))


_jobs = st.sampled_from(["-1", "0", "1"])
_ARGV = {
    "check": lambda f, x: [f("square"), "--max-witnesses", x(_number(-2, 5))],
    "enumerate": lambda f, x: ["--m", x(_number(-1, 5)), "--n", x(_number(-1, 5)),
                               "--jobs", x(_jobs), "--out", f(None)],
    "census": lambda f, x: ["--n-max", x(_number(-1, 5)), "--jobs", x(_jobs)],
    "canon": lambda f, x: [f("square"), "--level", x(st.sampled_from(["main", "isotopy", "x"]))],
    "symmetry": lambda f, x: [f("square"), "--kind",
                              x(st.sampled_from(["autotopism", "paratopism", "x"]))],
    "combine": lambda f, x: ["--a0", f("square"), "--a1", f("square"),
                             *(["--switch", f("switch")] if x(st.booleans()) else [])],
    "find-free": lambda f, x: ["--catalog", f("catalog"), "--order", x(_number(-1, 6)),
                               "--out", f(None)],
    "verify-eigen": lambda f, x: [f("square"), "--function", f("function"),
                                  "--theta", x(_number(-4, 4))],
    "min-trade": lambda f, x: [f("square"), "--cap", x(_number(-1, 5))],
    "mols-check": lambda f, x: [f("catalog"), "--t", x(_number(-1, 5))],
}


@pytest.mark.parametrize("command", sorted(_ARGV))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_junk_input_exits_0_1_or_2_and_never_raises(command, data):
    """``cli.main`` on junk files and numbers, with ``K33FREE_WORK_DIR``
    unset, a fresh directory or a file; sizes stay tiny."""
    with tempfile.TemporaryDirectory() as tmp:
        def file(kind):
            if kind is None:  # the path of an output
                return f"{tmp}/out"
            path = Path(tmp) / f"in{len(os.listdir(tmp))}.txt"
            path.write_bytes(data.draw(_junk_file(kind)))
            return str(path)

        fmt = data.draw(st.sampled_from(["text", "json"]))
        argv = ["--format", fmt, command, *_ARGV[command](file, data.draw)]
        work = data.draw(st.sampled_from([None, f"{tmp}/work", file("square")]))
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.environ.pop("K33FREE_WORK_DIR", None)
            if work is not None:
                os.environ["K33FREE_WORK_DIR"] = work
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, work)
