"""The benchmark's outputs, pinned by the digests in ``perfbench/golden.json``.

The benchmark refuses a run whose output differs from these digests: the
three whole modules it times and every weight space of its two query pools.
Each runs here through ``cli.main`` and is hashed from the ``--output`` file
it writes.  ``perfbench/run.py`` is loaded by path, for ``GOLDEN`` and
``canonical_argv``, and only read.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from qcb.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench()
with open(BENCH.GOLDEN) as _fh:
    GOLDEN = json.load(_fh)


def _digest(argv, out):
    assert main(argv + ["--output", str(out)]) == 0, argv
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_bench_modules_match_their_digests(tmp_path):
    """Largest output first (2.3 MB, 435 kB, 158 kB), into one reused
    ``--output`` file: each later module overwrites a longer document in
    place and must cut it."""
    out = tmp_path / "module.json"
    modules = (BENCH.B3_WIDE, BENCH.B5_SPIN, BENCH.D5_SPIN)
    pinned = GOLDEN["modules"]
    assert sorted(map(BENCH.module_key, modules)) == sorted(pinned)
    differ = [m for m in modules if _digest(BENCH.canonical_argv(m), out) != pinned[BENCH.module_key(m)]["sha256"]]
    assert differ == []


def test_bench_query_pools_hold_every_weight_space():
    assert sorted(map(BENCH.module_key, BENCH.QUERY_POOLS)) == sorted(GOLDEN["pools"])
    assert [len(GOLDEN["pools"][BENCH.module_key(m)]["spaces"]) for m in BENCH.QUERY_POOLS] == [496, 248]


@pytest.mark.parametrize("module", BENCH.QUERY_POOLS, ids=BENCH.module_key)
def test_bench_queries_match_their_digests(module, tmp_path):
    """Every weight space of the pool, into one reused ``--output`` file."""
    out = tmp_path / "query.json"
    spaces = GOLDEN["pools"][BENCH.module_key(module)]["spaces"]
    differ = [weight2 for weight2, want, _tableaux in spaces if _digest(BENCH.canonical_argv(module, weight2), out) != want]
    assert differ == []
