"""Command-line interface.

Subcommands: ``columns`` (list columns or spin columns), ``crystal`` (edge
list of a module's crystal graph), ``marsh`` (global basis vector of one
admissible column), ``apath`` (raising walk and monomial vector of one
tableau), ``canonical`` (canonical basis matrix, optionally one weight
space), ``check`` (invariant suite).  Output is JSON, CSV or LaTeX and is
byte-deterministic for a fixed invocation.

Exit codes: 0 success, 1 domain error (bad input data), 2 internal
invariant violation or arithmetic failure, 64 flag errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .canonical import CanonicalMatrix, a_path, a_vector, canonical_matrix, marsh
from .crystal import component_bfs, enumerate_spin_columns, word_apply, word_sort_key
from .laurent import LaurentPoly, SparseVector
from .rootdata import AlgebraKind, parse_int, parse_weight
from .shapes import (
    enumerate_columns,
    highest_tabloid,
    is_admissible,
    parse_column,
    parse_tabloid,
    shape_for_lambda,
    tabloid_reading,
    tabloid_sort_key,
)

USAGE_EXIT = 64
DOMAIN_EXIT = 1
INTERNAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


# built once per process: parse_args leaves the parser as it found it
@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    p = _Parser(prog="qcb", description="Canonical bases of quantum orthogonal modules, exactly.")
    p.add_argument("--type", choices=("B", "D"), required=True, help="algebra family")
    p.add_argument("--rank", type=int, required=True, help="rank n")
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


def _emit(doc: dict | CanonicalMatrix, args) -> str:
    if isinstance(doc, CanonicalMatrix):
        return {"json": _canonical_json, "csv": _canonical_csv, "tex": _canonical_tex}[args.format](doc)
    if args.format == "json":
        return json.dumps(doc, indent=2, default=LaurentPoly.json_terms) + "\n"
    if args.format == "csv":
        return _to_csv(doc)
    return _to_tex(doc)


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
    else:
        lines.append(json.dumps(doc))
    return "\n".join(lines) + "\n"


def _canonical_json(M: CanonicalMatrix) -> str:
    """``json.dumps({**M.json(), "command": "canonical"}, indent=2) + "\\n"``, written from
    the matrix directly: each distinct coefficient's indented block is rendered once."""
    blocks: dict[LaurentPoly, str] = {}

    def block(c: LaurentPoly) -> str:
        b = blocks.get(c)
        if b is None:
            b = blocks[c] = json.dumps(c.json_terms(), indent=2).replace("\n", "\n      ")
        return b

    def array(items: list[str], depth: int) -> str:
        """A list of rendered items, laid out as json.dumps(indent=2) lays it out at this depth."""
        if not items:
            return "[]"
        pad = "\n" + "  " * (depth + 1)
        return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"

    def triples(items) -> str:
        return array([f"[\n      {a},\n      {b},\n      {block(c)}\n    ]" for a, b, c in items], 1)

    fields = {
        "kind": json.dumps(M.kind.family),
        "rank": str(M.kind.rank),
        "lambda": array([str(x) for x in M.lam], 1),
        "weight2": "null" if M.weight2 is None else array([str(x) for x in M.weight2], 1),
        "rows": array([json.dumps(str(t)) for t in M.rows], 1),
        "cols": array([json.dumps(str(t)) for t in M.cols], 1),
        "entries": triples((r, c, M.entries[(r, c)]) for r, c in sorted(M.entries)),
        "gamma": triples(M.gamma),
        "command": '"canonical"',
    }
    return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in fields.items()) + "\n}\n"


def _matrix_rows(M: CanonicalMatrix, render, blank: str):
    """Each row label with its cells: render(coefficient) once per distinct coefficient, blank elsewhere."""
    text: dict[LaurentPoly, str] = {}
    by_row: dict[int, list[tuple[int, LaurentPoly]]] = {}
    for (r, c), coeff in M.entries.items():
        by_row.setdefault(r, []).append((c, coeff))
    for r, row in enumerate(M.rows):
        cells = [blank] * len(M.cols)
        for c, coeff in by_row.get(r, ()):
            cell = text.get(coeff)
            if cell is None:
                cell = text[coeff] = render(coeff)
            cells[c] = cell
        yield row, cells


def _canonical_csv(M: CanonicalMatrix) -> str:
    lines = [",".join([""] + [f'"{c}"' for c in M.cols])]
    for row, cells in _matrix_rows(M, lambda c: f'"{c}"', '"."'):
        lines.append(",".join([f'"{row}"', *cells]))
    return "\n".join(lines) + "\n"


def _canonical_tex(M: CanonicalMatrix) -> str:
    lines = [r"\begin{array}{l|" + "c" * len(M.cols) + "}"]
    lines.append(" & " + " & ".join(rf"\text{{{c}}}" for c in M.cols) + r" \\ \hline")
    for row, cells in _matrix_rows(M, LaurentPoly.latex, "."):
        lines.append(rf"\text{{{row}}} & " + " & ".join(cells) + r" \\")
    lines.append(r"\end{array}")
    return "\n".join(lines) + "\n"


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
        "terms": _json_terms(vec, "column", lambda col: word_sort_key(col.word())),
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
        "terms": _json_terms(vec, "tabloid", tabloid_sort_key),
    }


def _cmd_canonical(kind: AlgebraKind, args) -> CanonicalMatrix:
    lam = _parse_lambda(args.lam, kind.rank)
    weight2 = None if args.weight is None else parse_weight(args.weight, kind.rank)
    return canonical_matrix(lam, kind, weight2=weight2)


def _cmd_check(kind: AlgebraKind, args) -> dict:
    # imported here: no other command needs the invariant suite, so their
    # start-up does not load it
    from .checks import run_all

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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        kind = AlgebraKind(args.type, args.rank, experimental=args.experimental_d2)
    except ValueError as exc:
        print(f"qcb: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    try:
        doc = _COMMANDS[args.command](kind, args)
    except ValueError as exc:
        print(f"qcb: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except (AssertionError, RuntimeError, ArithmeticError) as exc:
        print(f"qcb: internal check failed: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    text = _emit(doc, args)
    if args.command == "check" and args.format == "json":
        # also a human-readable pass/fail line per property on stderr
        for r in doc["results"]:
            print(("PASS " if r["ok"] else "FAIL ") + r["name"], file=sys.stderr)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qcb: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return DOMAIN_EXIT
    else:
        sys.stdout.write(text)
    return INTERNAL_EXIT if args.command == "check" and not doc["ok"] else 0


if __name__ == "__main__":
    sys.exit(main())
