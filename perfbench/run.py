#!/usr/bin/env python3
"""Benchmark runner for qcb.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/qcb``.  The runner makes
the workload's inputs from the seed, runs qcb's public CLI entry point
(``qcb.cli.main``) in fresh interpreters, checks every output against the
golden digests and the structural invariants in ``gate.py``, and prints one
line per metric followed, as the last line, by one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is split into an untraced and a traced half and the metrics are the
per-layer ones read from the wrappers in ``tracing.py``.

Workloads (why each exists is in README.md):

* ``module-spin``: whole-module canonical, --jobs 1, B5 and D5 with lambda
  (0,1,0,0,1), each in its own interpreter; the seed orders them.
* ``module-wide``: whole-module canonical, --jobs 1, B3 lambda (3,1,0).
* ``module-jobs2``: the same input with --jobs 2.
* ``weight-queries``: one long-lived interpreter answering single-weight
  canonical requests one after another (closed loop, one client), drawn by
  the seed from the weights of B4 (1,1,0,1) and D4 (0,1,1,1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")

B5_SPIN = ("B", 5, (0, 1, 0, 0, 1))
D5_SPIN = ("D", 5, (0, 1, 0, 0, 1))
B3_WIDE = ("B", 3, (3, 1, 0))
QUERY_POOLS = (("B", 4, (1, 1, 0, 1)), ("D", 4, (0, 1, 1, 1)))

WORKLOADS = {
    "module-spin": {"modules": (B5_SPIN, D5_SPIN), "jobs": 1},
    "module-wide": {"modules": (B3_WIDE,), "jobs": 1},
    "module-jobs2": {"modules": (B3_WIDE,), "jobs": 2},
    "weight-queries": {"pools": QUERY_POOLS},
}

PROBES = 5  # extra set-up-only interpreters per run, for a steady setup_s
QUERY_BLOCK = 24  # requests per block; each block draws pools in proportion
MIN_QUERY_BLOCKS = 5  # 120 timed requests, so 12 lie beyond p90
MAX_QUERY_BLOCKS = 25  # requests generated up front (600); a run stops earlier
STRATUM_STEP = 19  # coprime to the stratum size 31, near 31 / golden ratio
DEADLINE_S = 170.0  # the whole run, set-up and checks included
LOADED_BUSY = 0.25  # share of all CPUs busy just before a run that marks it "loaded"

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def module_key(module) -> str:
    fam, n, lam = module
    return f"{fam}{n}:{','.join(map(str, lam))}"


def eps_text(weight2) -> str:
    """A doubled weight as the CLI's epsilon coordinates (``a/2`` for odd)."""
    return ",".join(str(a // 2) if a % 2 == 0 else f"{a}/2" for a in weight2)


def canonical_argv(module, weight2=None, jobs: int = 1) -> list[str]:
    fam, n, lam = module
    argv = ["--type", fam, "--rank", str(n), "canonical", "--lambda", ",".join(map(str, lam))]
    if weight2 is not None:
        argv.append("--weight=" + eps_text(weight2))
    else:
        argv += ["--jobs", str(jobs)]
    return argv


def quantile(values, p: float) -> float:
    """Linear interpolation between order statistics (p in [0, 1])."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- inputs ---------------------------------------------------------------


def load_golden() -> dict:
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"golden digests missing: {exc}") from exc


def module_order(workload: dict, seed: int) -> list:
    order = list(workload["modules"])
    random.Random(seed).shuffle(order)
    return order


def query_plan(golden: dict, seed: int) -> dict:
    """Warm-up request plus blocks of requests, uniform over the pools' weights.

    Each block takes from every pool in proportion to its number of weight
    spaces.  A pool's weight spaces are sorted by size (tableaux) and cut
    into as many equal strata as the pool has places in a block.  Block k
    takes from each stratum the space at position ``(offset + k * STEP) mod
    len(stratum)``, with a seeded offset per stratum, and the places of a
    block are shuffled by the seed.  Every weight is equally likely in every
    place, and consecutive blocks spread over each stratum evenly, so a
    run's mix of large and small weight spaces varies little between seeds.
    """
    rng = random.Random(seed)
    pools = [golden["pools"][module_key(m)]["spaces"] for m in QUERY_POOLS]
    total = sum(len(p) for p in pools)
    quota = [QUERY_BLOCK * len(p) // total for p in pools]
    if sum(quota) != QUERY_BLOCK or any(len(p) % q for p, q in zip(pools, quota)):
        raise BenchError("query pools do not split evenly into block places")
    strata = []  # (pool, space indices of one stratum, seeded offset)
    for i, (spaces, q) in enumerate(zip(pools, quota)):
        by_size = sorted(range(len(spaces)), key=lambda j: (spaces[j][2], j))
        size = len(spaces) // q
        strata.extend((i, by_size[k * size:(k + 1) * size], rng.randrange(size)) for k in range(q))

    def request(i: int, j: int) -> dict:
        weight2, sha, _tabs = pools[i][j]
        return {"argv": canonical_argv(QUERY_POOLS[i], weight2), "sha": sha, "weight2": weight2}

    i = rng.choices(range(len(pools)), weights=[len(p) for p in pools])[0]
    warmup = request(i, rng.randrange(len(pools[i])))
    requests = []
    for k in range(MAX_QUERY_BLOCKS):
        order = list(range(len(strata)))
        rng.shuffle(order)
        for s in order:
            pool, members, offset = strata[s]
            requests.append(request(pool, members[(offset + k * STRATUM_STEP) % len(members)]))
    return {"warmup": warmup, "requests": requests}


# -- machine context ------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def busy_share(window_s: float = 0.5) -> float | None:
    """Share of all CPUs busy over a short window, from /proc/stat (None elsewhere)."""

    def snapshot():
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        return sum(fields), fields[3] + fields[4]  # total, idle + iowait

    try:
        total0, idle0 = snapshot()
        time.sleep(window_s)
        total1, idle1 = snapshot()
    except (OSError, ValueError, IndexError):
        return None
    return 1.0 - (idle1 - idle0) / max(1, total1 - total0)


def machine_context() -> dict:
    """nproc, CPU, Python and load; a start is "loaded" when other work holds the CPUs.

    The 1-minute load average lags by about a minute, so right after a
    previous benchmark run it still counts that run; the mark uses the busy
    share of the CPUs just before this run starts instead.
    """
    busy = busy_share()
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "load1_start": os.getloadavg()[0],
        "busy_start": busy,
        "loaded_start": busy is not None and busy > LOADED_BUSY,
    }


# -- child processes ------------------------------------------------------


class Runner:
    """Spawns benchmark children one after another, within the run's deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.seq = 0
        self.child_rss_kb = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, job: dict) -> tuple[dict | None, float | None, str | None]:
        """Run one child: (report, rescaled set-up seconds, error)."""
        self.seq += 1
        job = dict(job, out=os.path.join(WORK, "out.json"))
        if job.get("trace"):
            job["spans"] = os.path.join(WORK, "spans", f"{job['mode']}-{self.seq}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC]
        t_spawn = time.monotonic()
        # own session, so a timeout can stop the child and any pool workers it forked
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(json.dumps(job).encode(), timeout=max(1.0, self.left()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, None, "child ran past the run's deadline"
        lines = out.decode(errors="replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return None, None, f"child exit {proc.returncode}: {' | '.join(tail)}"
        report = json.loads(lines[-1])
        self.child_rss_kb = max(self.child_rss_kb, report["rss_kb"])
        return report, (report["t_ready"] - t_spawn) * report["setup_speed"], None


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, ok: bool, what: str, errors) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{what}: {'; '.join(errors)}")


def run_probes(runner: Runner, tally: Tally, setups: list[float]) -> None:
    for _ in range(PROBES):
        _rep, setup, err = runner.spawn({"mode": "probe"})
        tally.add(err is None, "set-up probe", [err])
        if setup is not None:
            setups.append(setup)


def module_phase(runner, tally, setups, golden, workload, order, budget, traced) -> list[dict]:
    """Passes over the workload's modules, until the budget (at least one pass).

    Each pass sums its modules' figures; ``wall`` is rescaled (speed.py),
    ``raw_wall`` is not.
    """
    jobs = workload["jobs"]
    passes: list[dict] = []
    start, last = time.monotonic(), 0.0
    while not passes or (time.monotonic() - start + last <= budget and last < runner.left()):
        t0 = time.monotonic()
        p = dict.fromkeys(("wall", "raw_wall", "tableaux", "bytes", "parent_cpu", "child_cpu"), 0)
        p["traces"], p["latencies"] = [], []
        for module in order:
            key = module_key(module)
            job = {
                "mode": "module",
                "trace": traced,
                "argv": canonical_argv(module, jobs=jobs),
                "sha": golden["modules"][key]["sha256"],
            }
            rep, setup, err = runner.spawn(job)
            if rep is None:
                tally.add(False, key, [err])
                continue
            setups.append(setup)
            op = rep["ops"][0]
            tally.add(op["ok"], key, op["errors"])
            p["latencies"].append(normalized(op))
            p["wall"] += normalized(op)
            p["raw_wall"] += op["wall"]
            for k in ("tableaux", "bytes", "parent_cpu", "child_cpu"):
                p[k] += op[k]
            if "trace" in rep:
                p["traces"].append(rep["trace"])
        last = time.monotonic() - t0
        if not p["wall"]:
            break  # every module failed to run
        passes.append(p)
    return passes


def query_phase(runner, tally, setups, plan, budget, traced, min_blocks) -> dict:
    job = {
        "mode": "queries",
        "trace": traced,
        "block": QUERY_BLOCK,
        "min_blocks": min_blocks,
        "seconds": budget,
        **plan,
    }
    rep, setup, err = runner.spawn(job)
    if rep is None:
        tally.add(False, "weight-queries child", [err])
        return {"ops": [], "traces": []}
    setups.append(setup)
    for op in rep["ops"]:
        tally.add(op["ok"], "weight query", op["errors"])
    # the warm-up request is checked but not timed
    return {"ops": [op for op in rep["ops"] if op["block"] >= 0], "traces": [rep["trace"]] if "trace" in rep else []}


# -- metrics --------------------------------------------------------------


def normalized(op: dict) -> float:
    """An operation's time rescaled to the reference machine speed (speed.py)."""
    return op["wall"] * (op["speed"] or 1.0)


def request_units(ops: list[dict]) -> list[dict]:
    return [dict(op, wall=normalized(op), raw_wall=op["wall"]) for op in ops]


def block_units(requests: list[dict]) -> list[dict]:
    blocks: dict[int, dict] = {}
    for r in requests:
        u = blocks.setdefault(r["block"], {"wall": 0.0, "raw_wall": 0.0, "tableaux": 0})
        u["wall"] += r["wall"]
        u["raw_wall"] += r["raw_wall"]
        u["tableaux"] += r["tableaux"]
    return [blocks[b] for b in sorted(blocks)]


def end_to_end(setups: list[float], units: list[dict], latencies: list[float], children: int, rss_kb: int) -> dict:
    """name -> (value, unit, samples); units are passes or request blocks.

    Passes all do the same work, so their rate is a median like their time;
    request blocks differ in work, so theirs is the rate over all of them.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if all(u["tableaux"] == units[0]["tableaux"] for u in units):
        rate = statistics.median(u["tableaux"] / u["wall"] for u in units)
    else:
        rate = sum(u["tableaux"] for u in units) / sum(u["wall"] for u in units)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(u["wall"] for u in units), "s", len(units)),
        "tableaux_per_s": (rate, "1/s", len(units)),
        "query_p50_ms": (1000 * quantile(latencies, 0.5), "ms", len(latencies)),
        "query_p90_ms": (1000 * quantile(latencies, 0.9), "ms", len(latencies)),
        "peak_rss_mb": ((own_kb + rss_kb) / 1024, "MB", children),
    }


def merge_traces(traces: list[dict]) -> dict:
    m: dict = {"calls": {}, "total": {}, "self": {}, "layer_self": {}, "counts": {}, "caches": {}, "maxima": {}}
    for t in traces:
        for key in ("calls", "total", "self", "layer_self", "counts", "caches"):
            for k, v in t[key].items():
                m[key][k] = m[key].get(k, 0) + v
        for k, v in t["maxima"].items():
            m["maxima"][k] = max(m["maxima"].get(k, 0), v)
    return m


def per_layer(traces: list[dict], n: int, plain: list[dict], jobs: int, overhead: float) -> dict:
    """name -> (value, unit, samples), per pass (module workloads) or per request.

    Span and cache figures come from the traced units (n of them); CPU and
    output size from the untraced units in ``plain``, which tracing does not
    distort.
    """
    m = merge_traces(traces)
    calls, total, selft, counts, caches = m["calls"], m["total"], m["self"], m["counts"], m["caches"]

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    def per(table, key, unit):
        return (table.get(key, 0) / n, unit, n)

    cpu_wall = sum(u["raw_wall"] for u in plain)
    parent_cpu = sum(u["parent_cpu"] for u in plain)
    child_cpu = sum(u["child_cpu"] for u in plain)
    hits, misses = caches.get("divided_hits", 0), caches.get("divided_misses", 0)
    out = {
        "crystal.raise_to_highest_calls": per(calls, "crystal.raise_to_highest", "count"),
        "crystal.raise_to_highest_s": per(total, "crystal.raise_to_highest", "s"),
        "crystal.word_apply_calls": per(calls, "crystal.word_apply", "count"),
        "crystal.component_bfs_calls": per(calls, "crystal.component_bfs", "count"),
        "crystal.component_bfs_s": per(total, "crystal.component_bfs", "s"),
        "shapes.is_orthogonal_tableau_calls": per(calls, "shapes.is_orthogonal_tableau", "count"),
        "shapes.orth_checks_per_tableau": (
            ratio(calls.get("shapes.is_orthogonal_tableau", 0), calls.get("canonical.a_path", 0)), "ratio", n),
        "shapes.enumerate_tabloids_probe_s": per(total, "shapes.enumerate_tabloids_probe", "s"),
        "shapes.enumerate_tabloids_rows_s": per(total, "shapes.enumerate_tabloids_rows", "s"),
        "shapes.enumerate_tableaux_s": per(total, "shapes.enumerate_tableaux", "s"),
        "shapes.enumerate_tableaux_share": (
            ratio(total.get("shapes.enumerate_tableaux", 0.0), total.get("cli.main", 0.0)), "ratio", n),
        "shapes.is_admissible_hits": per(caches, "is_admissible_hits", "count"),
        "shapes.is_admissible_misses": per(caches, "is_admissible_misses", "count"),
        "canonical.canonical_matrix_s": per(total, "canonical.canonical_matrix", "s"),
        "canonical.a_path_s": per(total, "canonical.a_path", "s"),
        "canonical.a_path_calls": per(calls, "canonical.a_path", "count"),
        "canonical.a_path_steps": per(counts, "a_path_steps", "count"),
        "canonical.direct_exit_ratio": (
            ratio(counts.get("a_path_direct", 0), calls.get("canonical.a_path", 0)), "ratio", n),
        "canonical.self_s": per(selft, "canonical.canonical_matrix", "s"),
        "canonical.gamma_count": per(counts, "gamma", "count"),
        "canonical.rows": per(counts, "rows", "count"),
        "canonical.entries": per(counts, "entries", "count"),
        "modvec.apply_monomial_s": per(total, "modvec.apply_monomial", "s"),
        "modvec.module_f_divided_calls": per(calls, "modvec.module_f_divided", "count"),
        "modvec.module_f_divided_s": per(total, "modvec.module_f_divided", "s"),
        "modvec.f_divided_per_tableau": (
            ratio(calls.get("modvec.module_f_divided", 0), calls.get("canonical.a_vector", 0)), "ratio", n),
        "modvec.max_support": (m["maxima"].get("max_support", 0), "count", n),
        "wedge.wedge_f_divided_calls": per(calls, "wedge.wedge_f_divided", "count"),
        "wedge.wedge_f_divided_s": per(total, "wedge.wedge_f_divided", "s"),
        "wedge.straighten_hits": per(caches, "straighten_hits", "count"),
        "wedge.straighten_misses": per(caches, "straighten_misses", "count"),
        "wedge.divided_hit_ratio": (ratio(hits, hits + misses), "ratio", n),
        "laurent.mul_calls": per(calls, "laurent.mul", "count"),
        "laurent.mul_s": per(total, "laurent.mul", "s"),
        "laurent.divide_exact_calls": per(calls, "laurent.divide_exact", "count"),
        "pool.parent_cpu_s": (parent_cpu / len(plain), "s", len(plain)),
        "pool.child_cpu_s": (child_cpu / len(plain), "s", len(plain)),
        "pool.cpu_utilization": (ratio(parent_cpu + child_cpu, jobs * cpu_wall), "ratio", len(plain)),
        "cli.main_s": per(total, "cli.main", "s"),
        "cli.serialize_s": per(selft, "cli.main", "s"),
        "cli.output_bytes": (sum(u["bytes"] for u in plain) / len(plain), "bytes", len(plain)),
        "trace.overhead_ratio": (overhead, "ratio", n),
    }
    for layer, s in sorted(m["layer_self"].items()):
        out[f"self.{layer}_s"] = (s / n, "s", n)
    return out


# -- one run --------------------------------------------------------------


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "qcb", "cli.py")):
        raise BenchError(f"qcb sources not found under {SRC}; run from a checkout of the repository")
    golden = load_golden()
    workload = WORKLOADS[args.workload]
    jobs = workload.get("jobs", 1)
    nproc = os.cpu_count() or 1
    if jobs > nproc:
        raise BenchError(f"{args.workload} runs --jobs {jobs}, but this machine has {nproc} CPU(s)")
    ctx = machine_context()
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    runner = Runner(time.monotonic() + DEADLINE_S)
    tally = Tally()
    setups: list[float] = []
    run_probes(runner, tally, setups)
    traced = args.trace == 1
    budget = args.seconds / 2 if traced else args.seconds

    # units: passes (module workloads) or request blocks, for the end-to-end
    # figures; per_unit: passes or requests, for the per-layer ones; traced_
    # units: the traced passes or requests, for the tracing overhead
    if "modules" in workload:
        order = module_order(workload, args.seed)
        inputs = [canonical_argv(m, jobs=jobs) for m in order]
        passes = module_phase(runner, tally, setups, golden, workload, order, budget, False)
        units = per_unit = passes
        latencies = [t for p in passes for t in p["latencies"]]
        if traced:
            traced_units = module_phase(runner, tally, setups, golden, workload, order, budget, True)
            traces = [t for p in traced_units for t in p["traces"]]
    else:
        plan = query_plan(golden, args.seed)
        inputs = [plan["warmup"]["argv"]] + [r["argv"] for r in plan["requests"]]
        min_blocks = 1 if traced else MIN_QUERY_BLOCKS
        per_unit = request_units(query_phase(runner, tally, setups, plan, budget, False, min_blocks)["ops"])
        units = block_units(per_unit)
        latencies = [r["wall"] for r in per_unit]
        if traced:
            tr = query_phase(runner, tally, setups, plan, budget, True, min_blocks)
            traced_units, traces = request_units(tr["ops"]), tr["traces"]
    if not units or not setups or (traced and not traces):
        raise BenchError("no operation completed; " + "; ".join(tally.messages[:3]))

    ctx["load1_end"] = os.getloadavg()[0]
    ctx["inputs_sha256"] = hashlib.sha256(json.dumps(inputs).encode()).hexdigest()
    ctx["raw_wall_s"] = statistics.median(u["raw_wall"] for u in units)
    ctx["speed"] = statistics.median(u["wall"] / u["raw_wall"] for u in units)
    if traced:
        if "modules" in workload:
            overhead = statistics.median(p["wall"] for p in traced_units) / statistics.median(p["wall"] for p in units)
        else:  # the same requests, in the same order, traced and not
            k = min(len(traced_units), len(per_unit))
            overhead = sum(r["wall"] for r in traced_units[:k]) / sum(r["wall"] for r in per_unit[:k])
        metrics = per_layer(traces, len(traced_units), per_unit, jobs, overhead)
    else:
        metrics = end_to_end(setups, units, latencies, runner.seq, runner.child_rss_kb)
    return {"context": ctx, "tally": tally, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        res = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ctx, tally, metrics = res["context"], res["tally"], res["metrics"]
    if ctx["loaded_start"]:
        print(f"warning: loaded machine at start ({ctx['busy_start']:.0%} of {ctx['nproc']} CPUs busy)")
    print("context " + json.dumps(ctx, sort_keys=True))
    for msg in tally.messages:
        print(f"FAILED {msg}")
    print(f"{'failed_ratio':<36} {tally.failed / tally.attempted:.6g} ratio (n={tally.attempted})")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit} (n={n})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, context=ctx)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
