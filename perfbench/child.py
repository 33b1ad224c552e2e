"""One fresh interpreter of the benchmark: set up, run qcb, check, report.

Usage: ``python3 child.py SRC_DIR`` with a JSON job on stdin; the report is
one JSON line on stdout.  The parent measures set-up as the time from
spawning this process to ``t_ready``, the moment qcb is imported and the
job is read, rescaled by the machine speed measured right after.  Jobs:

* ``probe``: set up and exit;
* ``module``: one whole-module ``qcb canonical`` call;
* ``queries``: a closed loop of single-weight ``qcb canonical --weight``
  calls, one after another, in blocks, until the time budget is spent and
  at least ``min_blocks`` blocks are done.  One warm-up call is not timed.

Each output is checked by the gate after its call, outside the timed
region, and for module jobs after the process's peak RSS has been read.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

import speed


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _maxrss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _call(cli, argv: list[str], out: str) -> tuple[float, str | None]:
    """Run qcb's CLI in this process: (seconds, error text or None)."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv + ["--output", out])
        err = None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # the program raised instead of returning an exit code
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, err


def _check(gate, out: str, sha: str, weight2, err: str | None) -> dict:
    if err is not None:
        return {"ok": False, "errors": [err], "tableaux": 0, "bytes": 0}
    try:
        errors, counts = gate.check_output(out, sha, weight2)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        errors, counts = [f"unreadable output: {exc}"], {"tableaux": 0, "bytes": 0}
    return {"ok": not errors, "errors": errors[:5], **counts}


def _run_module(cli, gate, job: dict, sampler) -> dict:
    cpu0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    wall, err = _call(cli, job["argv"], job["out"])
    t1 = time.monotonic()
    op = {
        "wall": wall,
        "parent_cpu": _cpu(resource.RUSAGE_SELF) - cpu0,
        "child_cpu": _cpu(resource.RUSAGE_CHILDREN) - kids0,
    }
    rss = _maxrss_kb()
    sampler.stop()
    op["speed"] = speed.speed(sampler.all_samples(), t0, t1)
    op.update(_check(gate, job["out"], job["sha"], None, err))
    return {"ops": [op], "rss_kb": rss}


def _run_queries(cli, gate, job: dict, after_warmup, tracer, sampler) -> dict:
    w = job["warmup"]
    wall, err = _call(cli, w["argv"], job["out"])
    ops = [{"wall": wall, "block": -1, "speed": None, **_check(gate, job["out"], w["sha"], w["weight2"], err)}]
    after_warmup()
    reqs, size = job["requests"], job["block"]
    windows = []
    start, last = time.monotonic(), 0.0
    for b in range(len(reqs) // size):
        if b >= job["min_blocks"] and time.monotonic() - start + last > job["seconds"]:
            break
        t_block = time.monotonic()
        for k in range(b * size, (b + 1) * size):
            req = reqs[k]
            if tracer is not None:
                tracer.request = k
            cpu0 = _cpu(resource.RUSAGE_SELF)
            wall, err = _call(cli, req["argv"], job["out"])
            op = {"wall": wall, "block": b, "parent_cpu": _cpu(resource.RUSAGE_SELF) - cpu0, "child_cpu": 0.0}
            op.update(_check(gate, job["out"], req["sha"], req["weight2"], err))
            ops.append(op)
        windows.append((t_block, time.monotonic()))
        last = windows[-1][1] - t_block
    sampler.stop()
    samples = sampler.all_samples()
    overall = speed.speed(samples, windows[0][0], windows[-1][1]) if windows else None
    speeds = [speed.speed(samples, t0, t1) or overall for t0, t1 in windows]
    for op in ops[1:]:
        op["speed"] = speeds[op["block"]]
    return {"ops": ops, "rss_kb": _maxrss_kb()}


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import qcb.cli as cli

    job = json.loads(sys.stdin.read())
    report: dict = {"t_ready": time.monotonic(), "setup_speed": speed.burst()}

    import gate  # benchmark code, imported after set-up is measured
    import tracing

    sampler = speed.Sampler(os.path.join(os.path.dirname(job["out"]), "speed", str(os.getpid())))
    sampler.start()

    tracer = tracing.Tracer() if job.get("trace") else None
    caches0 = {}

    def start_trace() -> None:
        caches0.update(tracing.cache_counters())
        if tracer is not None:
            tracing.install(tracer)

    mode = job["mode"]
    if mode == "probe":
        report.update(ops=[], rss_kb=_maxrss_kb())
    elif mode == "module":
        start_trace()
        report.update(_run_module(cli, gate, job, sampler))
    elif mode == "queries":
        report.update(_run_queries(cli, gate, job, start_trace, tracer, sampler))
    else:
        raise SystemExit(f"unknown job mode {mode!r}")
    if tracer is not None:
        caches1 = tracing.cache_counters()
        report["trace"] = tracer.summary()
        report["trace"]["caches"] = {k: caches1[k] - caches0[k] for k in caches1}
        with open(job["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": tracer.spans}, fh)
    sampler.stop()
    shutil.rmtree(sampler.spool_dir, ignore_errors=True)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
