"""Command-line interface.

Subcommands: ``columns`` (list columns or spin columns), ``crystal`` (edge
list of a module's crystal graph), ``marsh`` (global basis vector of one
admissible column), ``apath`` (raising walk and monomial vector of one
tableau), ``canonical`` (canonical basis matrix, optionally one weight
space), ``check`` (invariant suite, over its own ranks: the one command
that needs no ``--type``/``--rank``).  Output is JSON, CSV or LaTeX and is
byte-deterministic for a fixed invocation.

Output is written in chunks, to standard output or in place to the
``--output`` file: opened only after the computation (an empty path, a
missing directory or a directory fails before it) and without truncation,
then, if it is a regular file, cut to the bytes written.  So a failed run leaves an existing
file untouched, and a write that fails part-way leaves no old byte after what
it wrote.  The writer never holds the whole document: ``canonical`` is written from
the ``CanonicalMatrix``'s compressed rows, each row's entries in turn with no
sort, a few hundred JSON items or one CSV/TeX row a chunk.
That keeps writing out of the peak memory: whole-module B3 (2,2,0) JSON
(11.6 MB) runs in about 34 MB max RSS, B3 (3,1,0) CSV in about 20 MB.  The
CSV and TeX matrices are dense, one cell per (row, column): 25 MB for
B3 (3,1,0).  A write that fails (a full device, a reader that closed the
pipe) exits 1.

Exit codes: 0 success, 1 domain error (bad input data), 2 internal
invariant violation or arithmetic failure, 64 flag errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, islice, pairwise, repeat

from .canonical import CanonicalMatrix, a_path, a_vector, canonical_matrix, marsh
from .crystal import component_bfs, enumerate_spin_columns, word_apply
from .laurent import LaurentPoly, SparseVector
from .rootdata import AlgebraKind, parse_int, parse_weight
from .shapes import (
    enumerate_columns,
    highest_tabloid,
    is_admissible,
    parse_column,
    parse_tabloid,
    shape_for_lambda,
    slot_table,
    tabloid_labels,
    tabloid_reading,
)

USAGE_EXIT = 64
DOMAIN_EXIT = 1
INTERNAL_EXIT = 2
_CHUNK = 256  # items of a long JSON list per output chunk
_BATCH = 8192  # characters joined per write to an --output file, the size of a text file's buffer


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


# built once per process: parse_args leaves the parser as it found it
@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    p = _Parser(prog="qcb", description="Canonical bases of quantum orthogonal modules, exactly.")
    # required by every command but check, whose ranks come from its own flags (see main)
    p.add_argument("--type", choices=("B", "D"), help="algebra family (not read by check)")
    p.add_argument("--rank", type=int, help="rank n (not read by check)")
    p.add_argument("--experimental-d2", action="store_true", help="allow type D at rank 2 (no correctness promise)")
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--format", choices=("json", "csv", "tex"), default="json")
    tail.add_argument("--output", help="write to this path instead of stdout")
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add(name, help):
        c = sub.add_parser(name, help=help, parents=[tail])
        c.error = p.error
        return c

    c = add("columns", "list height-p columns (or spin columns)")
    c.add_argument("--height", type=int, help="column height p")
    c.add_argument("--admissible-only", action="store_true")
    c.add_argument("--spin", action="store_true", help="list spin columns instead")
    c.add_argument("--spin-class", choices=("+", "-"), help="restrict type-D spin columns to one class")

    c = add("crystal", "crystal graph of V(lambda) as an edge list")
    c.add_argument("--lambda", dest="lam", required=True, help="fundamental-weight coefficients, e.g. 1,1,2")

    c = add("marsh", "global basis vector of one admissible column")
    c.add_argument("--column", required=True, help="letters top to bottom, e.g. 0,0,0,0")

    c = add("apath", "raising walk and monomial vector of one tableau")
    c.add_argument("--tabloid", required=True, help="columns left to right, e.g. 2,0,0/2,-3/3")
    c.add_argument("--dsign", choices=("+", "-"), help="height-n marker for ambiguous type-D fillings")

    c = add("canonical", "canonical basis matrix")
    c.add_argument("--lambda", dest="lam", required=True)
    c.add_argument("--weight", help="restrict to one weight (epsilon coordinates, a/2 allowed)")
    # accepted for old command lines and ignored: the computation runs in one process
    c.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)

    c = add("check", "run the invariant suite")
    c.add_argument("--max-rank-b", type=int, default=3)
    c.add_argument("--max-rank-d", type=int, default=3)
    c.add_argument("--seed", type=int, default=20240801)
    return p


def _parse_lambda(text: str, n: int) -> tuple[int, ...]:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} coefficients, got {len(parts)}")
    return tuple(parse_int(t, "lambda coefficient") for t in parts)


def _emit(doc: dict | CanonicalMatrix, args) -> Iterator[str]:
    """The output document as text chunks: one for the small documents, a
    few hundred items (or one matrix row) each for ``canonical``."""
    if isinstance(doc, CanonicalMatrix):
        writers = {"json": _canonical_json_chunks, "csv": _canonical_csv_rows, "tex": _canonical_tex_rows}
        yield from writers[args.format](doc)
    elif args.format == "json":
        yield json.dumps(doc, indent=2, default=LaurentPoly.json_terms) + "\n"
    elif args.format == "csv":
        yield _to_csv(doc)
    else:
        yield _to_tex(doc)


def _to_csv(doc: dict) -> str:
    lines = []
    kind = doc["command"]
    if kind == "columns":
        lines.append("column,admissible")
        for row in doc["columns"]:
            lines.append(f"\"{row['column']}\",{str(row['admissible']).lower()}")
    elif kind == "spin-columns":
        lines.append("spin,class")
        for row in doc["columns"]:
            lines.append(f"\"{row['spin']}\",{row['class']}")
    elif kind == "crystal":
        lines.append("source,label,target")
        for e in doc["edges"]:
            lines.append(f"\"{e['source']}\",{e['label']},\"{e['target']}\"")
    elif kind in ("marsh", "apath"):
        lines.append("path," + " ".join(f"f{i}^{r}" for i, r in doc["path"]))
        lines.append("key,coeff")
        for t in doc["terms"]:
            key = t.get("column", t.get("tabloid"))
            lines.append(f"\"{key}\",\"{t['coeff']}\"")
    elif kind == "check":
        lines.append("check,result")
        for r in doc["results"]:
            lines.append(f"{r['name']},{'pass' if r['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _json_list(items) -> Iterator[str]:
    """Rendered items as the list of a top-level field, laid out as
    json.dumps(indent=2) lays it out, _CHUNK items a chunk."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    yield "[\n    " + first
    while batch := list(islice(items, _CHUNK)):
        yield ",\n    " + ",\n    ".join(batch)
    yield "\n  ]"


def _terms_block(terms: tuple[tuple[int, int], ...]) -> str:
    """``json.dumps([[e, c], ...], indent=2)`` of the terms, indented as a triple's last item."""
    pairs = ",\n".join([f"        [\n          {e},\n          {c}\n        ]" for e, c in terms])
    return f"[\n{pairs}\n      ]" if terms else "[]"


def _canonical_json_chunks(M: CanonicalMatrix) -> Iterator[str]:
    """``json.dumps({**M.json(), "command": "canonical"}, indent=2) + "\\n"``, written from
    the matrix directly: the entries row by row from their compressed rows, each
    distinct coefficient's block rendered once from its terms, and the labels from
    the slot texts, which JSON prints unescaped."""
    E = M.entries
    # an entry is its row's head, its column and its coefficient's tail
    tails = [f",\n      {_terms_block(p.terms())}\n    ]" for p in E.polys]
    heads = chain.from_iterable(repeat(f"[\n      {r},\n      ", hi - lo) for r, (lo, hi) in enumerate(pairwise(E.starts)))
    entries = (f"{h}{c}{tails[i]}" for h, c, i in zip(heads, E.cols, E.ids))

    fields = {
        "kind": [json.dumps(M.kind.family)],
        "rank": [str(M.kind.rank)],
        "lambda": _json_list(map(str, M.lam)),
        "weight2": ["null"] if M.weight2 is None else _json_list(map(str, M.weight2)),
        "rows": _json_list(f'"{label}"' for label in tabloid_labels(M.rows)),
        "cols": _json_list(f'"{label}"' for label in tabloid_labels(M.cols)),
        "entries": _json_list(entries),
        "gamma": _json_list(f"[\n      {c},\n      {j},\n      {_terms_block(g.terms())}\n    ]" for c, j, g in M.gamma),
        "command": ['"canonical"'],
    }
    sep = "{\n"
    for key, chunks in fields.items():
        yield f'{sep}  "{key}": '
        yield from chunks
        sep = ",\n"
    yield "\n}\n"


def _matrix_rows(M: CanonicalMatrix, render, blank: str) -> Iterator[tuple]:
    """Each row label with its cells, filled from the row's compressed entries:
    render(coefficient) once per distinct coefficient, blank elsewhere."""
    E = M.entries
    text = [render(p) for p in E.polys]
    cols, ids = E.cols, E.ids
    for row, (lo, hi) in zip(tabloid_labels(M.rows), pairwise(E.starts)):
        cells = [blank] * len(M.cols)
        for k in range(lo, hi):
            cells[cols[k]] = text[ids[k]]
        yield row, cells


def _canonical_csv_rows(M: CanonicalMatrix) -> Iterator[str]:
    yield ",".join([""] + [f'"{c}"' for c in tabloid_labels(M.cols)]) + "\n"
    for row, cells in _matrix_rows(M, lambda c: f'"{c}"', '"."'):
        yield ",".join([f'"{row}"', *cells]) + "\n"


def _canonical_tex_rows(M: CanonicalMatrix) -> Iterator[str]:
    yield r"\begin{array}{l|" + "c" * len(M.cols) + "}\n"
    yield " & " + " & ".join(rf"\text{{{c}}}" for c in tabloid_labels(M.cols)) + r" \\ \hline" + "\n"
    for row, cells in _matrix_rows(M, LaurentPoly.latex, "."):
        yield rf"\text{{{row}}} & " + " & ".join(cells) + r" \\" + "\n"
    yield r"\end{array}" + "\n"


def _to_tex(doc: dict) -> str:
    kind = doc["command"]
    lines = []
    if kind in ("marsh", "apath"):
        mono = "".join(
            rf"f_{{{i}}}" + (rf"^{{({r})}}" if r > 1 else "") for i, r in doc["path"]
        )
        key = "column" if kind == "marsh" else "tabloid"
        terms = " + ".join(
            rf"({t['coeff'].latex()})\,v_{{{t[key]}}}" for t in doc["terms"]
        )
        lines.append(rf"{mono}\,v_{{\mathrm{{hw}}}} = {terms}")
    else:
        lines.append(r"\begin{verbatim}")
        lines.append(json.dumps(doc, indent=2))
        lines.append(r"\end{verbatim}")
    return "\n".join(lines) + "\n"


def _cmd_columns(kind: AlgebraKind, args) -> dict:
    if args.spin:
        sign = args.spin_class if kind.family == "D" else None
        cols = enumerate_spin_columns(kind, sign)
        return {
            "command": "spin-columns",
            "columns": [{"spin": str(s), "class": s.sign_class()} for s in cols],
        }
    if args.height is None:
        raise ValueError("columns needs --height (or --spin)")
    cols = enumerate_columns(kind, args.height, admissible_only=args.admissible_only)
    return {
        "command": "columns",
        "height": args.height,
        "columns": [{"column": str(c), "admissible": is_admissible(c)} for c in cols],
    }


def _cmd_crystal(kind: AlgebraKind, args) -> dict:
    lam = _parse_lambda(args.lam, kind.rank)
    shape = shape_for_lambda(lam, kind)
    start = tabloid_reading(highest_tabloid(shape))
    vertices = sorted(component_bfs(start), key=lambda w: (str(w)))
    edges = []
    for w in vertices:
        for i in range(1, kind.rank + 1):
            v = word_apply(w, i, "f")
            if v is not None:
                edges.append({"source": str(w), "label": i, "target": str(v)})
    edges.sort(key=lambda e: (e["source"], e["label"]))
    return {
        "command": "crystal",
        "lambda": list(lam),
        "vertices": [str(w) for w in vertices],
        "edges": edges,
    }


def _json_terms(vec: SparseVector, key: str, sort_key) -> list[dict]:
    """The terms of a vector, ascending in the total order on their labels,
    each coefficient kept as its LaurentPoly for the serializer to render."""
    terms = sorted(vec.terms, key=lambda bc: sort_key(bc[0]))
    return [{key: str(b), "coeff": c} for b, c in terms]


def _cmd_marsh(kind: AlgebraKind, args) -> dict:
    col = parse_column(args.column, kind)
    path, vec = marsh(col)
    return {
        "command": "marsh",
        "column": str(col),
        "path": [list(s) for s in path],
        # the terms fill one slot, whose code order is its reading order
        "terms": _json_terms(vec, "column", slot_table(kind, col.height).index.__getitem__),
    }


def _cmd_apath(kind: AlgebraKind, args) -> dict:
    tab = parse_tabloid(args.tabloid, kind, d_sign=args.dsign)
    ap = a_path(tab)
    vec = a_vector(ap)
    return {
        "command": "apath",
        "tabloid": str(tab),
        "path": [list(s) for s in ap.steps],
        "direct": ap.direct,
        "base": str(ap.base),
        "intermediates": [str(t) for t in ap.intermediates],
        # the terms share one shape, whose code order is its reading order
        "terms": _json_terms(vec, "tabloid", lambda t: t.codes),
    }


def _cmd_canonical(kind: AlgebraKind, args) -> CanonicalMatrix:
    lam = _parse_lambda(args.lam, kind.rank)
    weight2 = None if args.weight is None else parse_weight(args.weight, kind.rank)
    return canonical_matrix(lam, kind, weight2=weight2)


def _cmd_check(kind: AlgebraKind | None, args) -> dict:
    # imported here: no other command needs the invariant suite, so their
    # start-up does not load it
    from .checks import run_all

    # the suite's smallest algebras are B2 and D3: below them it would check nothing
    for flag, value, least in (("--max-rank-b", args.max_rank_b, 2), ("--max-rank-d", args.max_rank_d, 3)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    results = run_all(max_rank_b=args.max_rank_b, max_rank_d=args.max_rank_d, seed=args.seed)
    return {
        "command": "check",
        "results": [{"name": r.name, "ok": r.ok} for r in results],
        "ok": all(r.ok for r in results),
    }


_COMMANDS = {
    "columns": _cmd_columns,
    "crystal": _cmd_crystal,
    "marsh": _cmd_marsh,
    "apath": _cmd_apath,
    "canonical": _cmd_canonical,
    "check": _cmd_check,
}


def _write_batch(fd: int, batch: list[str]) -> None:
    """Write the batch's chunks to fd as UTF-8, looping on short writes, and empty it."""
    data = memoryview("".join(batch).encode())
    batch.clear()
    while data:
        data = data[os.write(fd, data) :]


def _write(chunks: Iterator[str], path: str | None) -> None:
    """Write the chunks in place to the file at path (opened only now, after
    the computation) or to standard output."""
    if path is not None:
        # no O_TRUNC: truncating a file to zero can make the file system flush it at close
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        batch: list[str] = []
        size = 0
        try:
            try:
                for chunk in chunks:
                    batch.append(chunk)
                    size += len(chunk)
                    if size >= _BATCH:
                        _write_batch(fd, batch)
                        size = 0
            finally:  # what came before a chunk that failed is written too
                _write_batch(fd, batch)
        finally:
            try:  # cut a regular file where the writes stopped, so no old byte is left after them
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            finally:
                os.close(fd)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError:
        # stdout is gone (a reader that closed early, a full device): point
        # its descriptor at the null device, so that the interpreter's own
        # flush at exit does not fail a second time with a traceback
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            pass  # stdout has no descriptor of its own (captured in-process)
        else:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    missing = [flag for flag, value in (("--type", args.type), ("--rank", args.rank)) if value is None]
    if missing and args.command != "check":
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    try:
        kind = None if missing else AlgebraKind(args.type, args.rank, experimental=args.experimental_d2)
    except ValueError as exc:
        print(f"qcb: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    try:
        if args.output is not None:  # opened after the work, but an empty path, a missing directory or a directory fails before it
            os.stat(os.path.join(os.path.dirname(args.output) or ("." if args.output else ""), ""))
            if os.path.isdir(args.output):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        print(f"qcb: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return DOMAIN_EXIT
    try:
        doc = _COMMANDS[args.command](kind, args)
    except ValueError as exc:
        print(f"qcb: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except (AssertionError, RuntimeError, ArithmeticError) as exc:
        print(f"qcb: internal check failed: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    if args.command == "check" and args.format == "json":
        # also a human-readable pass/fail line per property on stderr
        for r in doc["results"]:
            print(("PASS " if r["ok"] else "FAIL ") + r["name"], file=sys.stderr)
    try:
        _write(_emit(doc, args), args.output)
    except OSError as exc:
        print(f"qcb: cannot write {args.output or 'standard output'}: {exc.strerror or exc}", file=sys.stderr)
        return DOMAIN_EXIT
    return INTERNAL_EXIT if args.command == "check" and not doc["ok"] else 0


if __name__ == "__main__":
    sys.exit(main())
