"""Correctness gate shared by every workload.

An output passes when its SHA-256 digest equals the golden digest recorded
at the commit the benchmark was defined at, and the matrix it holds has the
shape the theory guarantees:

* each column's own tabloid is a row, and the entry there is exactly 1;
* every other entry lies in qZ[q] (no constant term, no negative power);
* no entry sits above the diagonal in the total order on readings;
* every row an entry sits in has the weight of its column, and a
  single-weight output holds only rows and columns of that weight.

The weight of a tabloid is read from its printed form here, independently
of the package.  Rows are printed in ascending total order, so "above the
diagonal" means a row index larger than the index of the column's own row.
"""

from __future__ import annotations

import hashlib
import json


def tabloid_weight2(text: str, rank: int) -> tuple[int, ...]:
    """Doubled epsilon-weight of a printed tabloid such as ``s:1,-2,3/2,0/-1``."""
    w = [0] * rank
    for part in text.split("/"):
        if part.startswith("s:"):
            for tok in part[2:].split(","):
                x = int(tok)
                w[abs(x) - 1] += 1 if x > 0 else -1
        else:
            for tok in part.split(","):
                x = int(tok)
                if x:
                    w[abs(x) - 1] += 2 if x > 0 else -2
    return tuple(w)


def structural_errors(doc: dict, want_weight2: list[int] | None = None) -> list[str]:
    """Invariant violations of one ``canonical`` JSON document (empty when sound)."""
    errors: list[str] = []
    rank = doc["rank"]
    rows, cols = doc["rows"], doc["cols"]
    row_index = {t: r for r, t in enumerate(rows)}
    if len(row_index) != len(rows):
        errors.append("repeated row")
    if want_weight2 is not None and doc["weight2"] != want_weight2:
        errors.append(f"weight2 {doc['weight2']} != requested {want_weight2}")
    diag = []
    for c, t in enumerate(cols):
        r = row_index.get(t)
        if r is None:
            errors.append(f"column {t} has no row")
        diag.append(r)
    row_w = [tabloid_weight2(t, rank) for t in rows]
    col_w = [tabloid_weight2(t, rank) for t in cols]
    if doc["weight2"] is not None:
        mu = tuple(doc["weight2"])
        if any(w != mu for w in row_w) or any(w != mu for w in col_w):
            errors.append("row or column outside the requested weight")
    seen_diag = set()
    for r, c, terms in doc["entries"]:
        if not terms or any(coeff == 0 for _e, coeff in terms):
            errors.append(f"entry ({r},{c}) is zero or has a zero term")
        if diag[c] is None:
            continue
        if r == diag[c]:
            seen_diag.add(c)
            if terms != [[0, 1]]:
                errors.append(f"diagonal entry ({r},{c}) is {terms}, not 1")
        else:
            if r > diag[c]:
                errors.append(f"entry ({r},{c}) above the diagonal")
            if any(e < 1 for e, _coeff in terms):
                errors.append(f"entry ({r},{c}) not in qZ[q]: {terms}")
        if row_w[r] != col_w[c]:
            errors.append(f"entry ({r},{c}) joins weights {row_w[r]} and {col_w[c]}")
        if len(errors) > 20:
            break
    if len(seen_diag) != len(cols) and len(errors) <= 20:
        errors.append(f"{len(cols) - len(seen_diag)} columns lack a diagonal entry")
    return errors


def check_output(path: str, golden_sha: str, want_weight2: list[int] | None = None) -> tuple[list[str], dict]:
    """Digest and structural check of one output file: (errors, counts)."""
    with open(path, "rb") as fh:
        data = fh.read()
    errors = []
    digest = hashlib.sha256(data).hexdigest()
    if digest != golden_sha:
        errors.append(f"sha256 {digest[:16]} != golden {golden_sha[:16]}")
    doc = json.loads(data)
    errors.extend(structural_errors(doc, want_weight2))
    counts = {"tableaux": len(doc["cols"]), "rows": len(doc["rows"]), "bytes": len(data)}
    return errors, counts
