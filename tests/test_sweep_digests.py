"""The whole canonical output of every small module, pinned by digest.

``golden/sweep_digests.json`` holds, for each module of the raising sweep
(``test_canonical.sweep_modules``), the SHA-256 of the JSON bytes that
``qcb canonical`` writes for the whole module, and the commit the file was
made at.  The bytes are hashed as the writer yields
them, with no file.

Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_sweep_digests.py [COMMIT]

which records COMMIT, or else the repository's ``HEAD``.
"""

import hashlib
import json
import os
import subprocess
import sys

from test_canonical import sweep_modules

from qcb.canonical import canonical_matrix
from qcb.cli import _canonical_json_chunks
from qcb.rootdata import InvariantViolation

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "sweep_digests.json")


def _key(kind, lam):
    return f"{kind.family}{kind.rank}:{','.join(map(str, lam))}"


def module_result(kind, lam):
    """{"sha256": ...} of the module's whole-module JSON, or {"exit": 2}."""
    try:
        M = canonical_matrix(lam, kind)
    except InvariantViolation:
        return {"exit": 2}
    digest = hashlib.sha256()
    for chunk in _canonical_json_chunks(M):
        digest.update(chunk.encode())
    return {"sha256": digest.hexdigest()}


def test_sweep_output_matches_digests():
    """Every module of the sweep writes the pinned bytes; every module that differs is reported."""
    with open(DIGESTS) as fh:
        want = json.load(fh)["modules"]
    modules = sweep_modules()
    assert sorted(want) == sorted(_key(kind, lam) for kind, lam in modules)
    differ = [(key, got, want[key]) for kind, lam in modules if (got := module_result(kind, lam)) != want[(key := _key(kind, lam))]]
    assert differ == [], "\n".join(f"{key}: got {got}, pinned {pinned}" for key, got, pinned in differ)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        commit = sys.argv[1]
    else:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    doc = {"commit": commit, "modules": {_key(kind, lam): module_result(kind, lam) for kind, lam in sweep_modules()}}
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
