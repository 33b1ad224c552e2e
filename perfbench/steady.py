#!/usr/bin/env python3
"""Steadiness mode: run workloads under many seeds and report their spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run after another, and
prints for every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance
as a share of the median.  With ``--trace 0`` each spread is set against
the metric's bound in BENCHMARK.json: "steady" below a third of it,
"within" up to the bound, "UNSTEADY" beyond.  ``setup_s`` is exempt from
the spread test.  weight-queries is also run under two seeds (reusing
runs made anyway) to show that the seeds give different request sequences
and that every run passes the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    ctx = next(json.loads(x[len("context "):]) for x in lines if x.startswith("context "))
    return dict(json.loads(lines[-1]), context=ctx, seed=seed, elapsed_s=elapsed)


def spread_table(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        if bound is not None:
            row["bound"] = bound
            if name == "setup_s":
                row["verdict"] = "exempt"
            else:
                row["verdict"] = "steady" if spread < bound / 3 else "within" if spread <= bound else "UNSTEADY"
        table[name] = row
    return table


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write every run and the summary here, as JSON")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if args.trace == 0 else {}
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        p.error(f"unknown workloads {unknown}")
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    record: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for s in seeds:
            r = one_run(w, s, seconds, args.trace)
            runs.append(r)
            loaded = " LOADED" if r["context"]["loaded_start"] else ""
            print(f"{w} seed {s}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}"
                  f" took {r['elapsed_s']:.1f} s, speed {r['context']['speed']:.3f},"
                  f" load {r['context']['load1_start']:.2f}{loaded}", flush=True)
        table = spread_table(runs, bounds)
        record["workloads"][w] = {"runs": runs, "summary": table}
        print(f"\n{w}: {len(runs)} runs of {seconds} s")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound  verdict")
        for name, row in table.items():
            b = f"{row['bound']:.2f}" if "bound" in row else "   -"
            print(f"  {name:<36} {row['median']:>12.6g} {row['q1']:>12.6g} {row['q3']:>12.6g}"
                  f" {row['spread']:>8.4f}  {b:>5}  {row.get('verdict', '')}")
            ok &= row.get("verdict") != "UNSTEADY"
        ok &= all(r["correct"] for r in runs)
        print(flush=True)

    qruns = record["workloads"].get("weight-queries", {}).get("runs", [])[:2]
    while len(qruns) < 2:
        qruns.append(one_run("weight-queries", args.first_seed + len(qruns), seconds, 0))
    prints = [r["context"]["inputs_sha256"] for r in qruns]
    differ = prints[0] != prints[1]
    both = all(r["correct"] for r in qruns)
    print(f"weight-queries seeds {qruns[0]['seed']} and {qruns[1]['seed']}: request sequences "
          f"{'differ' if differ else 'ARE IDENTICAL'} ({prints[0][:12]} vs {prints[1][:12]}); "
          f"correctness gate {'passed by both' if both else 'FAILED'}")
    record["seed_check"] = {"seeds": [r["seed"] for r in qruns], "inputs_sha256": prints, "differ": differ,
                            "correct": both}
    ok &= differ and both
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
