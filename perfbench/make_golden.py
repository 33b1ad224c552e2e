#!/usr/bin/env python3
"""Regenerate golden.json: SHA-256 digests of the benchmark's outputs.

    python3 perfbench/make_golden.py

Run from the root of a checkout whose outputs are trusted (the digests in
golden.json were made at the commit that added the benchmark).  It computes
every whole-module output the module workloads run, and every weight space
of the query pools, through ``qcb.cli.main`` in this process, and checks
each against the structural invariants before recording it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import GOLDEN, QUERY_POOLS, SRC, WORK, WORKLOADS, canonical_argv, module_key

sys.path.insert(0, SRC)

import qcb.cli  # noqa: E402
from qcb.rootdata import AlgebraKind  # noqa: E402
from qcb.shapes import enumerate_tableaux, weight2_of_tabloid  # noqa: E402

import gate  # noqa: E402


def digest(argv: list[str], out: str, weight2=None) -> tuple[str, int]:
    rc = qcb.cli.main(argv + ["--output", out])
    if rc != 0:
        raise SystemExit(f"qcb {' '.join(argv)} exited {rc}")
    with open(out, "rb") as fh:
        data = fh.read()
    doc = json.loads(data)
    errors = gate.structural_errors(doc, weight2)
    if errors:
        raise SystemExit(f"qcb {' '.join(argv)}: {errors[:3]}")
    return hashlib.sha256(data).hexdigest(), len(doc["cols"])


def main() -> None:
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, "golden-tmp.json")
    modules = {}
    for wl in WORKLOADS.values():
        for m in wl.get("modules", ()):
            if module_key(m) not in modules:
                sha, tabs = digest(canonical_argv(m), out)
                modules[module_key(m)] = {"sha256": sha, "tableaux": tabs}
                print(module_key(m), sha, tabs, flush=True)
    pools = {}
    for m in QUERY_POOLS:
        fam, n, lam = m
        weights = sorted({weight2_of_tabloid(t) for t in enumerate_tableaux(lam, AlgebraKind(fam, n))})
        spaces = []
        for w in weights:
            sha, tabs = digest(canonical_argv(m, list(w)), out, list(w))
            spaces.append([list(w), sha, tabs])
        pools[module_key(m)] = {"spaces": spaces}
        print(module_key(m), len(spaces), "weight spaces", flush=True)
    os.remove(out)
    with open(GOLDEN, "w") as fh:
        json.dump({"modules": modules, "pools": pools}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
