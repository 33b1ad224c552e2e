import json
import os
import subprocess
import sys
import textwrap

import pytest

from qcb.cli import main
from qcb.crystal import raise_to_highest

# child interpreters import qcb from this checkout, installed or not
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_columns_json(capsys):
    code, out, _ = run_cli(capsys, "--type", "B", "--rank", "2", "columns", "--height", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["columns"]) == 11
    assert sum(c["admissible"] for c in doc["columns"]) == 10


def test_columns_admissible_only(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "B", "--rank", "2", "columns", "--height", "2", "--admissible-only"
    )
    doc = json.loads(out)
    assert len(doc["columns"]) == 10


def test_spin_columns(capsys):
    code, out, _ = run_cli(capsys, "--type", "D", "--rank", "3", "columns", "--spin", "--spin-class", "+")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["columns"]) == 4
    assert all(c["class"] == "+" for c in doc["columns"])


def test_marsh_json(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "B", "--rank", "4", "marsh", "--column", "0,0,0,0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["path"] == [[4, 1], [3, 1], [2, 1], [1, 1], [4, 1], [3, 1], [2, 1], [4, 1], [3, 1], [4, 1]]
    assert len(doc["terms"]) == 6


def test_apath_json(capsys):
    code, out, _ = run_cli(capsys, "--type", "B", "--rank", "3", "apath", "--tabloid", "2,0,0/2,-3/3")
    assert code == 0
    doc = json.loads(out)
    assert doc["path"] == [[2, 1], [1, 3], [3, 3], [2, 2], [3, 1]]
    assert len(doc["intermediates"]) == 5


def test_crystal_edges(capsys):
    code, out, _ = run_cli(capsys, "--type", "B", "--rank", "2", "crystal", "--lambda", "1,0")
    doc = json.loads(out)
    assert len(doc["vertices"]) == 5
    assert len(doc["edges"]) == 4


def test_canonical_weight_space(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "B", "--rank", "3", "canonical", "--lambda", "1,1,2", "--weight", "0,2,-1"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cols"]) == 11 and len(doc["rows"]) == 40
    assert doc["weight2"] == [0, 4, -2]
    assert doc["gamma"] == [[3, 2, [[0, 1]]], [4, 2, [[-1, 1], [1, 1]]], [8, 5, [[0, 1]]]]


def test_canonical_tex_layout(capsys):
    code, out, _ = run_cli(
        capsys,
        "--type", "B", "--rank", "3",
        "canonical", "--lambda", "1,1,2", "--weight", "0,2,-1", "--format", "tex",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(r"\begin{array}")
    assert lines[2].split("&")[1].strip() == "q^{8}"
    assert out.count(r" \\") == 41  # header + 40 rows


def test_output_deterministic(capsys, tmp_path):
    args = ["--type", "B", "--rank", "3", "canonical", "--lambda", "0,1,0"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(p1)]) == 0
    assert main(args + ["--output", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_jobs_parallel_matches_serial(capsys, tmp_path, monkeypatch):
    """--jobs still parses and changes nothing: no worker pool is started."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("canonical started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    base = ["--type", "B", "--rank", "2", "canonical", "--lambda", "1,1"]
    p1 = tmp_path / "s.json"
    assert main(base + ["--output", str(p1)]) == 0
    for jobs in ("4", "1000"):
        p2 = tmp_path / f"p{jobs}.json"
        assert main(base + ["--jobs", jobs, "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
    capsys.readouterr()


def test_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "--type", "B", "--rank", "3", "marsh", "--column", "1,-1,2")
    assert code == 1 and "column" in err
    code, _, err = run_cli(capsys, "--type", "B", "--rank", "3", "marsh", "--column", "1,-1")
    assert code == 1  # valid column, not admissible
    code, _, err = run_cli(capsys, "--type", "D", "--rank", "2", "columns", "--height", "1")
    assert code == 1


def test_domain_errors_say_what_is_wrong(capsys):
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "3", "marsh", "--column", "1,-1")
    assert (code, out, err) == (1, "", "qcb: column 1,-1 is not admissible\n")
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "3", "apath", "--tabloid", "2/1")
    assert (code, out, err) == (1, "", "qcb: 2/1 is not an orthogonal tableau of its shape\n")


def test_mixed_parity_weight_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "2", "canonical", "--lambda", "1,1", "--weight", "1/2,1")
    assert (code, out) == (1, "")
    assert err == "qcb: weight 1/2,1 mixes integer and half-integer coordinates\n"


def test_empty_weight_is_a_domain_error(capsys):
    """An empty --weight names no weight space: it is refused, not read as the whole module."""
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "2", "canonical", "--lambda", "1,0", "--weight=")
    assert (code, out, err) == (1, "", "qcb: expected 2 weight coordinates, got 1\n")


@pytest.mark.parametrize(
    "argv,err",
    [
        (["canonical", "--lambda", "1,0", "--weight=,"], "qcb: bad weight coordinate ''\n"),
        (["canonical", "--lambda", "1,a"], "qcb: bad lambda coefficient 'a'\n"),
        (["canonical", "--lambda", "1,0", "--weight", "b/2,1/2"], "qcb: bad weight coordinate 'b/2'\n"),
        (["marsh", "--column", "1,a"], "qcb: bad letter 'a'\n"),
        (["apath", "--tabloid", "1,a/2"], "qcb: bad letter 'a'\n"),
        (["apath", "--tabloid", "s:1,x/1"], "qcb: bad letter 'x'\n"),
    ],
)
def test_malformed_numbers_are_named(capsys, argv, err):
    """A token that is not an integer is refused by what it stands for, quoted as typed."""
    assert run_cli(capsys, "--type", "B", "--rank", "2", *argv) == (1, "", err)


def test_marsh_raises_the_column_once(capsys, monkeypatch):
    import qcb.canonical

    calls = []

    def counted(w):
        calls.append(w)
        return raise_to_highest(w)

    monkeypatch.setattr(qcb.canonical, "raise_to_highest", counted)
    code, _, _ = run_cli(capsys, "--type", "B", "--rank", "4", "marsh", "--column", "0,0,0,0")
    assert code == 0 and len(calls) == 1


def test_unwritable_output_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "2", "columns", "--height", "1", "--output", str(path))
    assert code == 1 and out == ""
    assert f"cannot write {path}" in err and "Traceback" not in err


def test_usage_error_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "qcb.cli", "--type", "E", "--rank", "3", "check"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 64


def test_parser_is_reused_without_leaking_state(capsys, tmp_path):
    """One process: a usage error, then two canonical calls; both outputs match their golden files."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    argv = ["--type", "B", "--rank", "2", "canonical", "--lambda", "1,1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "xml"])
    assert exc.value.code == 64
    assert "invalid choice" in capsys.readouterr().err
    for name, extra in (("canonical_B2.csv", ["--format", "csv"]), ("canonical_B2.json", [])):
        out = tmp_path / name
        assert main(argv + extra + ["--output", str(out)]) == 0
        with open(os.path.join(golden, name), "rb") as fh:
            assert out.read_bytes() == fh.read(), name


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcb.cli", "--type", "B", "--rank", "2", "columns", "--height", "1", "--format", "csv"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "column,admissible"
    assert len(proc.stdout.splitlines()) == 6


def test_package_runs_as_a_module():
    """``python -m qcb`` runs the CLI from a checkout (``PYTHONPATH=src``)."""
    proc = subprocess.run(
        [sys.executable, "-m", "qcb", "--type", "B", "--rank", "2", "columns", "--height", "1", "--format", "csv"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "column,admissible"


OPTIMIZED_SCRIPT = textwrap.dedent(
    """
    import sys

    import qcb.canonical
    import qcb.wedge
    from qcb.cli import main
    from qcb.laurent import InexactDivision, LaurentPoly

    assert False, "python -O keeps asserts"  # stripped under -O
    if sys.argv[1] == "broken":
        # skip every correction; this weight space needs one by q^-1 + q
        qcb.canonical._gamma_symmetrize = lambda c: LaurentPoly.zero()
    elif sys.argv[1] == "inexact":
        # an arithmetic failure inside a divided power is a bug, not bad input

        def inexact(num, den):
            raise InexactDivision(f"({num}) / ({den}) leaves a remainder")

        qcb.wedge.divide_exact = inexact
    argv = ["--type", "B", "--rank", "3", "canonical", "--lambda", "1,1,2", "--weight", "0,2,-1"]
    sys.exit(main(argv + ["--output", sys.argv[2]]))
    """
)


@pytest.mark.parametrize("mode,code", [("good", 0), ("broken", 2), ("inexact", 2)])
def test_invariants_survive_optimize_flag(tmp_path, mode, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, mode, str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert "internal check failed" in proc.stderr and "Traceback" not in proc.stderr
