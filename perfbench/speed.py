"""In-process machine-speed sampling, to normalize timings.

On a shared machine a CPU's speed changes from second to second with what
other tenants run beside it; on the machine the benchmark was defined on,
a fixed piece of Python code ran up to 1.8 times slower at some moments
than at others, and CPU time slowed with it.  A run's raw times therefore
carry that noise.  The sampler measures the speed at the same moments, on
the same CPU, as the work: every ``INTERVAL_S`` of the process's CPU time a
SIGPROF handler runs a fixed calibration kernel and times it.  A timed
window is then rescaled by ``REFERENCE_S / k``, where ``k`` is the mean
kernel time in the window with the slowest tenth of samples dropped
(garbage collections and preemptions land there).

The kernel is benchmark code, not qcb code, so a change to qcb does not
change it.  It mixes what qcb's hot loops do (small tuples, dict updates,
slotted objects, string formatting, a keyed sort), because a tight integer
loop slows less under contention than such code does.

Processes forked from a sampled process (the ``--jobs`` pool workers)
sample too: a fork hook restarts the timer in the child, which appends its
samples to a file in ``spool_dir`` in batches.
"""

from __future__ import annotations

import os
import signal
import time

INTERVAL_S = 0.02  # CPU time between samples; the kernel costs about 0.7% of it
REFERENCE_S = 100e-6  # kernel time (trimmed mean) taken as speed 1.0
TRIM = 0.1  # share of slowest samples dropped
SPOOL_BATCH = 25  # worker samples per append to the spool file


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a + other.a, self.b ^ other.b)


def kernel() -> int:
    acc = _Pair(0, 0)
    d: dict = {}
    for i in range(40):
        t = (i, -i, i & 3)
        d[t] = d.get(t, 0) + 1
        acc = acc + _Pair(i, i * 7)
        if i % 5 == 0:
            s = ",".join(str(x) for x in t)
            d[s] = len(s)
    xs = sorted(d.items(), key=lambda kv: str(kv[0]))
    return acc.a + len(xs)


class Sampler:
    """Samples ``(monotonic time, kernel seconds)`` in this process and its forks."""

    def __init__(self, spool_dir: str) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spool_dir = spool_dir
        self._spool: str | None = None

    def _tick(self, _signum, _frame) -> None:
        kernel()  # warm the kernel's code and data after the interruption
        t0 = time.perf_counter()
        kernel()
        self.samples.append((time.monotonic(), time.perf_counter() - t0))
        if self._spool is not None and len(self.samples) >= SPOOL_BATCH:
            with open(self._spool, "a") as fh:
                fh.writelines(f"{t!r} {k!r}\n" for t, k in self.samples)
            self.samples.clear()

    def _after_fork(self) -> None:
        self.samples = []
        self._spool = os.path.join(self.spool_dir, f"{os.getpid()}.txt")
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        for name in os.listdir(self.spool_dir):
            os.remove(os.path.join(self.spool_dir, name))
        signal.signal(signal.SIGPROF, self._tick)
        os.register_at_fork(after_in_child=self._after_fork)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def all_samples(self) -> list[tuple[float, float]]:
        """This process's samples plus those its forked workers spooled."""
        out = list(self.samples)
        for name in os.listdir(self.spool_dir):
            with open(os.path.join(self.spool_dir, name)) as fh:
                out.extend((float(t), float(k)) for t, k in (line.split() for line in fh))
        return out


def _trimmed_speed(kernel_times: list[float]) -> float:
    ks = sorted(kernel_times)
    keep = ks[: max(1, int(len(ks) * (1 - TRIM)))]
    return REFERENCE_S / (sum(keep) / len(keep))


def speed(samples: list[tuple[float, float]], start: float, end: float) -> float | None:
    """Speed relative to the reference over [start, end]; None with too few samples."""
    ks = [k for t, k in samples if start <= t <= end]
    return _trimmed_speed(ks) if len(ks) >= 5 else None


def burst(runs: int = 40) -> float:
    """Speed right now, from back-to-back kernel runs (a few milliseconds).

    A CPU's speed holds for seconds at a time, so a burst taken just after
    a short piece of work (an interpreter's set-up) rescales that work.
    """
    kernel()
    ks = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        ks.append(time.perf_counter() - t0)
    return _trimmed_speed(ks)
