"""Command-line surface: outputs, formats, exit codes."""

import json
from pathlib import Path

import pytest

from k33free import cli, fixtures
from k33free.core import parse, serialize, serialize_catalog


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
        # a level with new rows canonises at least one child, at most one per row
        assert (lv["canonised"] > 0) == (lv["raw_extensions"] > 0)
        assert lv["canonised"] <= lv["raw_extensions"]
    # the second rows of a 2xn level are the derangements of n letters
    derangements = {3: 2, 4: 9, 6: 265}
    assert all(lv["raw_extensions"] == derangements[lv["n"]] for lv in levels if lv["m"] == 2)


def test_json_manifest_counts_no_canon_call_for_a_loaded_level(capsys, tmp_path):
    argv = ("--format", "json", "enumerate", "--m", "4", "--n", "6",
            "--work-dir", str(tmp_path))
    fresh = json.loads(run(capsys, *argv)[1])["levels"]
    resumed = json.loads(run(capsys, *argv)[1])["levels"]
    assert fresh[0]["canonised"] == 0 and all(lv["canonised"] > 0 for lv in fresh[1:])
    assert [lv["canonised"] for lv in resumed] == [0, 0, 0, 0]
    assert [lv["raw_extensions"] for lv in resumed] == [lv["raw_extensions"] for lv in fresh]


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


def test_canon_idempotent(capsys, fx):
    code, out = run(capsys, "canon", fx("fig3_a"))
    assert code == 0
    form = parse(out)
    code2, out2 = run(capsys, "canon", fx("fig3_b"))
    assert parse(out2).rows != form.rows


def test_symmetry(capsys, fx):
    code, out = run(capsys, "--format", "json", "symmetry", "--kind",
                    "autotopism", fx("fig3_a"))
    data = json.loads(out)
    assert data["order"] == 64 and data["transitive"] is True
    assert data["truncated"] is False


def test_symmetry_of_a_single_row_is_listed_in_full(capsys, tmp_path):
    row = tmp_path / "row.txt"
    row.write_text("1 7\n6 5 4 3 2 1 0\n")
    code, out = run(capsys, "--format", "json", "symmetry", "--kind", "paratopism", str(row))
    data = json.loads(out)
    assert code == 0 and data["order"] == 10080
    assert data["cell_orbits"] == 1 and data["truncated"] is False


def test_symmetry_marks_truncated_orbits(capsys, fx, monkeypatch):
    from k33free import canon

    monkeypatch.setattr(canon, "ELEMENT_CAP", 2)
    code, out = run(capsys, "--format", "json", "symmetry", fx("fig3_a"))
    data = json.loads(out)
    assert code == 0 and data["order"] == 64 and data["truncated"] is True
    assert data["cell_orbits"] > 1  # the full group is transitive
    code, out = run(capsys, "symmetry", fx("fig3_a"))
    assert code == 0 and out.count("truncated") == 1


def test_combine_and_switch(capsys, fx, tmp_path):
    sw = tmp_path / "sw.txt"
    sw.write_text(fixtures.load_switch("fig5_switch").serialize())
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


@pytest.mark.parametrize("line", ["5 0 1", "-1 0 1", "0 3 1"])
def test_verify_eigen_rejects_cells_outside_the_square(capsys, fx, tmp_path, line):
    func = tmp_path / "f.txt"
    func.write_text(f"0 0 1\n{line}\n")
    assert one_line_error(capsys, "verify-eigen", fx("z3"), "--function", str(func),
                          "--theta", "-3") == 2


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
