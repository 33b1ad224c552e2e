"""The benchmark's traced run patches names inside the package.

``perfbench/tracing.py`` replaces functions by name in several modules and
reads ``cache_info()`` and ``len(vec.terms)``; a rename in the package would
otherwise break the traced run silently.  This runs the tracer in a fresh
interpreter on small ``qcb canonical`` calls of each argv form the benchmark
sends: a whole module, a whole module with ``--jobs 2``, and one ``--weight=``
request; then on one ``qcb apath`` call that ends at the spin early exit.
"""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import json, os, sys

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    import qcb.cli as cli

    argv = ["--type", "B", "--rank", "2", "canonical", "--lambda", "1,1"]
    rcs = [cli.main(argv + ["--output", os.path.join(sys.argv[1], "out.json")])]
    whole = dict(tracer.calls)  # the spans of the whole-module call alone
    rcs += [
        cli.main(argv + extra + ["--output", os.path.join(sys.argv[1], "out.json")])
        for extra in (["--jobs", "2"], ["--weight=1/2,1/2"])
    ]
    canon = dict(tracer.calls)  # the spans of the three canonical calls
    apath = ["--type", "B", "--rank", "4", "apath", "--tabloid", "s:-1,-2,3,-4/4,-2"]
    rcs.append(cli.main(apath + ["--output", os.path.join(sys.argv[1], "apath.json")]))
    doc = {
        "rcs": rcs, "whole": whole, "canon": canon, "calls": tracer.calls, "maxima": tracer.maxima,
        "caches": tracing.cache_counters(),
    }
    print(json.dumps(doc))
    """
)


def test_tracer_installs_on_canonical(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert "trace map is stale" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rcs"] == [0, 0, 0, 0]
    # three requests on one module share one cached crystal component
    assert doc["canon"]["canonical.canonical_matrix"] == 3
    assert doc["canon"]["crystal.component_bfs"] == 1
    # the apath walk tests membership in its own shape's component
    assert doc["calls"]["crystal.component_bfs"] == doc["canon"]["crystal.component_bfs"] + 1
    # the whole-module call feeds the per-layer algebra and rows-pass metrics
    for name in ("modvec.apply_monomial", "modvec.module_f_divided", "shapes.enumerate_tabloids_rows"):
        assert doc["whole"].get(name, 0) > 0, name
    # qcb apath walks once and hands the path to a_vector; the spin early
    # exit reads the cached weight counts, so no tabloids are probed
    assert doc["calls"]["canonical.a_path"] == 1
    assert "shapes.enumerate_tabloids_probe" not in doc["calls"]
    assert doc["maxima"]["max_support"] > 0
    assert {"straighten_hits", "divided_misses", "is_admissible_hits"} <= set(doc["caches"])
