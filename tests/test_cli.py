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


@pytest.mark.parametrize(
    "command,text,column,letters",
    [("marsh", ",", ",", 0), ("marsh", "0,0,0,0", "0,0,0,0", 4), ("apath", "1,2/,", ",", 0), ("apath", "0,0,0,0/1", "0,0,0,0", 4)],
)
def test_column_of_no_or_too_many_letters_is_refused(capsys, command, text, column, letters):
    """A column needs 1..n letters; it is refused as it is read, by its letter count."""
    flag = "--column" if command == "marsh" else "--tabloid"
    err = f"qcb: column {column!r} has {letters} letters, not 1..3\n"
    assert run_cli(capsys, "--type", "B", "--rank", "3", command, flag, text) == (1, "", err)


def test_weight_requests_build_no_shape_after_the_first(tmp_path, monkeypatch):
    """Forty --weight requests on B4 (1,1,0,1) find the shape built by the first."""
    from qcb.rootdata import AlgebraKind
    from qcb.shapes import Shape, _shape_for_lambda, shape_for_lambda, shape_tables

    lam = (1, 1, 0, 1)
    weights = sorted(shape_tables(shape_for_lambda(lam, AlgebraKind("B", 4))).by_weight)[:40]
    _shape_for_lambda.cache_clear()
    built = []
    post_init = Shape.__post_init__
    monkeypatch.setattr(Shape, "__post_init__", lambda self: built.append(self) or post_init(self))
    out = str(tmp_path / "out.json")
    counts = []
    for mu in weights:
        eps = ",".join(f"{x}/2" if x % 2 else str(x // 2) for x in mu)
        assert main(["--type", "B", "--rank", "4", "canonical", "--lambda", "1,1,0,1", "--weight=" + eps, "--output", out]) == 0
        counts.append(len(built))
    assert len(weights) == 40 and counts == [1] * 40


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


@pytest.mark.parametrize(
    "flags,err",
    [
        (["--max-rank-b", "1"], "qcb: --max-rank-b must be at least 2, got 1\n"),
        (["--max-rank-d", "2"], "qcb: --max-rank-d must be at least 3, got 2\n"),
        (["--max-rank-b", "1", "--max-rank-d", "0"], "qcb: --max-rank-b must be at least 2, got 1\n"),
    ],
)
def test_check_refuses_an_empty_rank_range(capsys, flags, err):
    """A rank range with no algebra in it is refused, not passed over no algebra."""
    assert run_cli(capsys, "--type", "B", "--rank", "2", "check", *flags) == (1, "", err)


def test_check_needs_no_type_or_rank(capsys):
    """The suite picks its algebras from its own rank bounds."""
    code, out, _ = run_cli(capsys, "check", "--max-rank-b", "2", "--max-rank-d", "3")
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize(
    "flags,missing",
    [([], "--type, --rank"), (["--type", "B"], "--rank"), (["--rank", "2"], "--type")],
)
def test_other_commands_need_type_and_rank(capsys, flags, missing):
    with pytest.raises(SystemExit) as exc:
        main([*flags, "canonical", "--lambda", "1,1"])
    assert exc.value.code == 64
    assert capsys.readouterr().err.endswith(f"qcb: error: the following arguments are required: {missing}\n")


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


def test_missing_output_directory_fails_before_any_work(capsys, tmp_path, monkeypatch):
    """The output file is opened only after the work, but its directory is
    checked before it: no canonical matrix is computed for a path that cannot
    be written, and the message is the one a failed open gives."""
    import qcb.cli

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_matrix ran before the output path was checked")

    monkeypatch.setattr(qcb.cli, "canonical_matrix", refuse)
    path = tmp_path / "missing" / "x.json"
    argv = ("--type", "B", "--rank", "3", "canonical", "--lambda", "3,1,0", "--output", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"qcb: cannot write {path}: No such file or directory"]
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, *argv[:-1], str(tmp_path / "file" / "x.json"))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"qcb: cannot write {tmp_path / 'file' / 'x.json'}: Not a directory"]


def test_empty_output_path_fails_before_any_work(capsys, monkeypatch):
    """``--output ""`` names no file: it fails before any work, with exit 1,
    and writes nothing to standard output."""
    import qcb.cli

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_matrix ran before the output path was checked")

    monkeypatch.setattr(qcb.cli, "canonical_matrix", refuse)
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "2", "canonical", "--lambda", "1,1", "--output", "")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["qcb: cannot write : No such file or directory"]


def test_directory_output_fails_before_any_work(capsys, tmp_path, monkeypatch):
    """An ``--output`` path that is a directory fails before any work, with
    exit 1 and the message a failed open gives, and leaves the directory as
    it was."""
    import qcb.cli

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_matrix ran before the output path was checked")

    monkeypatch.setattr(qcb.cli, "canonical_matrix", refuse)
    (tmp_path / "kept").write_text("")
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "3", "canonical", "--lambda", "3,1,0", "--output", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"qcb: cannot write {tmp_path}: Is a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]


def _golden(name):
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name), "rb") as fh:
        return fh.read()


def test_failed_run_leaves_an_existing_output_untouched(capsys, tmp_path, monkeypatch):
    """The output file is opened only after the computation: an internal check
    failure (exit 2) and a domain error (exit 1) leave an old file as it was."""
    import qcb.canonical
    from qcb.laurent import LaurentPoly

    path = tmp_path / "out.json"
    old = b"an earlier run's output\n" * 1000
    path.write_bytes(old)
    argv = ["--type", "B", "--rank", "3", "canonical", "--output", str(path)]
    with monkeypatch.context() as m:
        # skip every correction; this weight space needs one
        m.setattr(qcb.canonical, "_gamma_symmetrize", lambda c: LaurentPoly.zero())
        code, _, err = run_cli(capsys, *argv, "--lambda", "1,1,2", "--weight", "0,2,-1")
    assert code == 2 and "internal check failed" in err
    assert path.read_bytes() == old
    code, _, err = run_cli(capsys, *argv, "--lambda", "1,1")
    assert code == 1 and "expected 3 coefficients" in err
    assert path.read_bytes() == old


@pytest.mark.parametrize(
    "name,argv,old_size",
    [
        ("canonical_B2.json", ["--type", "B", "--rank", "2", "canonical", "--lambda", "1,1"], 3_000_000),
        ("canonical_D4_minus.json", ["--type", "D", "--rank", "4", "canonical", "--lambda", "0,0,3,0"], 100),
    ],
)
def test_output_is_written_in_place(tmp_path, name, argv, old_size):
    """An existing file is overwritten in place and cut to the new document:
    a small output over a large file, and a large one over a small file."""
    path = tmp_path / "out.json"
    path.write_bytes(b"x" * old_size)
    assert main(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == _golden(name)


def test_new_output_file_gets_the_usual_permissions(tmp_path):
    """A new output file gets the mode that ``open(path, "w")`` gives under the same umask."""
    argv = ["--type", "B", "--rank", "2", "columns", "--height", "1", "--output", str(tmp_path / "out.json")]
    old = os.umask(0o027)
    try:
        assert main(argv) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.json").st_mode == os.stat(tmp_path / "plain").st_mode


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this system")
def test_null_device_output_succeeds(capsys):
    """A device is written, never cut: ``--output /dev/null`` exits 0."""
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "2", "canonical", "--lambda", "1,1", "--output", "/dev/null")
    assert (code, out, err) == (0, "", "")


def test_failed_write_leaves_no_old_byte_after_what_was_written(tmp_path):
    """A write that fails part-way cuts the file where the writing stopped:
    nothing of the old file outlives the new bytes."""
    from qcb.cli import _write

    path = tmp_path / "out.json"
    path.write_bytes(b"old " * 100_000)

    def chunks():
        yield "first chunk\n"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError):
        _write(chunks(), str(path))
    assert path.read_bytes() == b"first chunk\n"


def test_short_writes_are_resumed(capsys, tmp_path, monkeypatch):
    """An --output file written by an ``os.write`` that takes at most 7 bytes a
    call holds the bytes standard output gets: every short write is resumed."""
    argv = ["--type", "B", "--rank", "3", "canonical", "--lambda", "0,1,1"]
    code, want, _ = run_cli(capsys, *argv)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    path = tmp_path / "out.json"
    path.write_bytes(b"old " * 20_000)
    assert main([*argv, "--output", str(path)]) == code == 0
    assert path.read_bytes() == want.encode() and len(want) > 30_000


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_device_is_a_write_error(capsys):
    """A write that fails in mid-stream exits 1 with one line and no traceback."""
    code, out, err = run_cli(capsys, "--type", "B", "--rank", "3", "canonical", "--lambda", "1,1,2", "--output", "/dev/full")
    assert code == 1 and out == ""
    assert err.splitlines() == ["qcb: cannot write /dev/full: No space left on device"]


def _buffered_env():
    """The environment of a child qcb whose standard output is block-buffered, as in a shell."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_reader_that_closes_early_is_a_write_error():
    """``qcb ... canonical | head -c 100``: the writer meets a closed pipe in
    mid-stream, says so on one line and exits 1, with no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcb", "--type", "B", "--rank", "3", "canonical", "--lambda", "3,1,0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert head.startswith(b'{\n  "kind": "B",')
    assert err.splitlines() == ["qcb: cannot write standard output: Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_standard_output_is_a_write_error():
    """``qcb ... > /dev/full``: one line, exit 1, and no second failure when
    the interpreter flushes standard output at exit."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qcb", "--type", "B", "--rank", "2", "canonical", "--lambda", "1,1"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=_buffered_env(),
        )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["qcb: cannot write standard output: No space left on device"]


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
    if sys.argv[1] in ("broken", "broken-module"):
        # skip every correction; this weight space needs one by q^-1 + q
        qcb.canonical._gamma_symmetrize = lambda c: LaurentPoly.zero()
    elif sys.argv[1] == "inexact":
        # an arithmetic failure inside a divided power is a bug, not bad input

        def inexact(num, den):
            raise InexactDivision(f"({num}) / ({den}) leaves a remainder")

        qcb.wedge.divide_exact = inexact
    argv = ["--type", "B", "--rank", "3", "canonical", "--lambda", "1,1,2", "--weight", "0,2,-1"]
    if sys.argv[1] == "broken-module":
        # a whole module whose uncorrected G(T) leave Z[q]
        argv = ["--type", "B", "--rank", "3", "canonical", "--lambda", "0,1,1"]
    sys.exit(main(argv + ["--output", sys.argv[2]]))
    """
)


@pytest.mark.parametrize("mode,code", [("good", 0), ("broken", 2), ("inexact", 2), ("broken-module", 2)])
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
