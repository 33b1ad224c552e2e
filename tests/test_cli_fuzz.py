"""Fuzzed command lines: whatever the arguments, ``qcb`` exits 0, 1 or 64.

Each example runs ``qcb.cli.main`` in process on an argv for ``columns``,
``crystal``, ``marsh``, ``apath`` or ``canonical`` at B2, B3, D3 or D4 (or
an invalid type or rank), with well-formed and malformed tokens mixed in.
Exit 0 must come with output that parses in its format, and no exception
may escape ``main``, since on the command line it would print a traceback.
Exit 2 (an internal check failed) is allowed only on the shapes of the
modules whose raising walk is known to leave the crystal; two pinned
examples run one of them.  The lambda sums are capped
(5 on B2 and D3, 3 on B3, 2 on D4) so that a whole module stays small,
and no rank is large, since the spin columns of rank n number 2^n; the
known failing modules of B2 and D3 lie inside the caps on purpose.
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_canonical import KNOWN_RAISING_FAILURES

from qcb.cli import main
from qcb.rootdata import AlgebraKind
from qcb.shapes import enumerate_columns, enumerate_tableaux, parse_tabloid, shape_for_lambda

B2 = AlgebraKind("B", 2)
KNOWN_FAILING_SHAPES = {shape_for_lambda(lam, kind) for kind, lam in KNOWN_RAISING_FAILURES}
CAPS = {("B", 2): 5, ("B", 3): 3, ("D", 3): 5, ("D", 4): 2}
INVALID_KINDS = [("B", "1"), ("B", "0"), ("D", "2"), ("D", "1"), ("B", "-1"), ("B", "x"), ("X", "2"), ("B", "")]
GARBAGE = ["", ",", " ", "a", "1,,0", "1.5", "--", "1/3", "s:", "/", "0x1", "-", "1e2"]
LETTERS = ["0", "1", "-1", "2", "-2", "9", "a", ""]


def _lambda(kind):
    """Dominant weights of the kind within its cap."""
    cap = CAPS[kind.family, kind.rank]
    return st.lists(st.integers(0, cap), min_size=kind.rank, max_size=kind.rank).filter(lambda lam: sum(lam) <= cap)


def _joined(lists):
    return lists.map(lambda xs: ",".join(map(str, xs)))


def _lambda_token(kind):
    """A lambda within the cap, or a malformed one: a wrong count, a negative entry or garbage."""
    n = kind.rank
    return st.one_of(
        _joined(_lambda(kind)),
        _joined(_lambda(kind)),
        _joined(st.lists(st.integers(0, 2), max_size=n + 2).filter(lambda lam: len(lam) != n)),
        _joined(st.lists(st.integers(-2, 1), min_size=n, max_size=n).filter(lambda lam: min(lam) < 0)),
        st.sampled_from(GARBAGE),
    )


def _weight_token(kind):
    """Epsilon coordinates, all integers or all half-integers, or a malformed weight."""
    n = kind.rank
    return st.one_of(
        _joined(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
        _joined(st.lists(st.integers(-3, 3).map(lambda x: f"{2 * x + 1}/2"), min_size=n, max_size=n)),
        _joined(st.lists(st.sampled_from(["1", "1/2", "0", "-1/2", "x", ""]), max_size=n + 1)),
        st.sampled_from(GARBAGE),
    )


def _mutated(draw, text):
    """The text kept, with one letter replaced, with one part dropped, or garbage:
    none of these makes a shape larger than the text's own."""
    how = draw(st.sampled_from(["keep", "letter", "drop", "garbage"]))
    if how == "letter":
        old = draw(st.sampled_from(text.replace("s:", "").replace("/", ",").split(",")))
        return text.replace(old, draw(st.sampled_from(LETTERS)), 1)
    if how == "drop" and "/" in text:
        parts = text.split("/")
        del parts[draw(st.integers(0, len(parts) - 1))]
        return "/".join(parts)
    if how == "garbage":
        return draw(st.sampled_from(GARBAGE))
    return text


def _lambda_shape(kind, text):
    """The shape of a lambda text, or None where it does not parse."""
    try:
        return shape_for_lambda(tuple(int(x) for x in text.split(",")), kind)
    except ValueError:
        return None


def _tabloid_shape(kind, text, dsign):
    """The shape of a tabloid text, or None where it does not parse."""
    try:
        return parse_tabloid(text, kind, d_sign=dsign).shape
    except ValueError:
        return None


@st.composite
def command_lines(draw):
    """An argv, and the shape that an apath or canonical run on it works on (or None)."""
    fam, rank = draw(st.sampled_from(INVALID_KINDS if draw(st.integers(0, 4)) == 0 else sorted(CAPS)))
    valid = (fam, rank) in CAPS
    kind = AlgebraKind(fam, rank) if valid else B2  # B2 tokens for an invalid kind
    command = draw(st.sampled_from(["columns", "crystal", "marsh", "apath", "canonical"]))
    argv = ["--type", fam, "--rank", str(rank), command]
    shape = None
    if command == "columns":
        if draw(st.booleans()):
            argv.append("--spin")
            if draw(st.booleans()):
                argv += ["--spin-class", draw(st.sampled_from(["+", "-", "x"]))]
        else:
            argv += ["--height", draw(st.one_of(st.integers(-1, kind.rank + 1).map(str), st.sampled_from(GARBAGE)))]
            if draw(st.booleans()):
                argv.append("--admissible-only")
    elif command == "crystal":
        argv += ["--lambda", draw(_lambda_token(kind))]
    elif command == "marsh":
        columns = enumerate_columns(kind, draw(st.integers(1, kind.rank)))
        argv += ["--column", _mutated(draw, str(draw(st.sampled_from(columns))))]
    elif command == "apath":
        tabs = enumerate_tableaux(tuple(draw(_lambda(kind))), kind)
        text = _mutated(draw, str(draw(st.sampled_from(tabs))))
        dsign = draw(st.sampled_from([None, "+", "-", None, "+", "-", "0"]))
        argv += ["--tabloid", text] + ([] if dsign is None else ["--dsign", dsign])
        shape = _tabloid_shape(kind, text, dsign) if valid else None
    else:
        lam = draw(_lambda_token(kind))
        argv += ["--lambda", lam]
        if draw(st.booleans()):
            argv.append("--weight=" + draw(_weight_token(kind)))
        shape = _lambda_shape(kind, lam) if valid else None
    fmt = draw(st.sampled_from([None, "json", "csv", "tex", None, "csv", "tex", "json", "csv", "tex", "xml", ""]))
    return argv + ([] if fmt is None else ["--format", fmt]), shape


def _check_parses(text, argv):
    """Output of a successful run parses in its format."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        json.loads(text)
    elif fmt == "csv":
        rows = [r for r in csv.reader(io.StringIO(text), strict=True) if r]
        if "canonical" in argv:
            assert len({len(r) for r in rows}) <= 1, "ragged matrix rows"
    else:
        assert text.count("\\begin{") == text.count("\\end{")
    assert text.endswith("\n")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(command_lines())
@example((["--type", "B", "--rank", "2", "canonical", "--lambda", "2,3"], shape_for_lambda((2, 3), B2)))
@example((["--type", "B", "--rank", "2", "apath", "--tabloid", "s:1,-2/1,0/1/-2"], shape_for_lambda((2, 3), B2)))
def test_fuzzed_command_lines_exit_cleanly(case):
    argv, shape = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err, argv
    if code == 2:
        assert shape in KNOWN_FAILING_SHAPES, (argv, err)
    elif code == 0:
        _check_parses(out, argv)
    else:
        assert code in (1, 64), (argv, code, err)
        assert out == "" and err, argv
