"""Host-speed sampling, so that times can be reported at a reference speed.

On a shared host the speed of fixed work wanders by tens of percent, on
sub-second timescales and in its mix over minutes, independently on each
core.  A ``SpeedSampler`` measures that speed inside the process being
timed: every PERIOD_S of wall time a SIGALRM handler times a fixed kernel of
about REF_NOMINAL_S, which uses none of the program's code, so a change to
the program cannot move it.  The kernel integrates the logistic equation
twice, half of its time with RK4 on a Python float and half with Heun's
method on four states in a numpy array, because the program's time is a
mix of both kinds of work: pure-Python bookkeeping and small-array numpy
calls.  Of the kernels tried, this mix tracked the chain workloads best
(a speed change of the host moved their time as much as the kernel's);
the pure-Python half alone moved 1.3 times less than a chain, the numpy
half alone 1.2 times more.

REF_NOMINAL_S is the kernel's time at the reference speed, so each sample
gives a speed factor REF_NOMINAL_S / its time; because the samples are
spread evenly over wall time, their mean is the factor for the whole
interval.  An interval is reported as

    (wall seconds - seconds spent sampling) x mean speed factor,

that is, in seconds at the reference speed.  The sampling costs about 5% of
the interval and is taken out again by the subtraction.

``install_in_workers`` starts a sampler in each task of the process pool
``run_sweep`` forks, and ``worker_parts`` collects their parts.

    python3 perfbench/speed.py OUT.json -m MODULE ARGS...

runs a module as ``python3 -m MODULE ARGS...`` would, under a sampler,
and writes the sampler's part to OUT.json; run.py times the set-up that way.
"""

from __future__ import annotations

import functools
import json
import os
import runpy
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

REF_NOMINAL_S = 0.0027
PERIOD_S = 0.05


def ref_kernel(np) -> float:
    """The fixed reference work (see above)."""
    y, h, r, k = 0.1, 10.0 / 2500, 0.8, 10.0
    for _ in range(2500):
        k1 = r * y * (1.0 - y / k)
        y2 = y + 0.5 * h * k1
        k2 = r * y2 * (1.0 - y2 / k)
        y3 = y + 0.5 * h * k2
        k3 = r * y3 * (1.0 - y3 / k)
        y4 = y + h * k3
        k4 = r * y4 * (1.0 - y4 / k)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    v, h = np.full(4, 0.1), 10.0 / 80
    for _ in range(80):
        k1 = r * v * (1.0 - v / k)
        v2 = v + h * k1
        k2 = r * v2 * (1.0 - v2 / k)
        v = v + 0.5 * h * (k1 + k2)
    return y + float(v[0])


class SpeedSampler:
    """Samples this process's speed while started; at most one started
    sampler per process, since it owns SIGALRM."""

    def __init__(self):
        import numpy
        self._np = numpy
        self.factors = []
        self.spent = 0.0
        self.wall = 0.0
        self._t0 = self._t1 = self._old_handler = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        ref_kernel(self._np)
        took = perf_counter() - t0
        self.factors.append(REF_NOMINAL_S / took)
        self.spent += took

    def start(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._t1 = perf_counter()
        self.wall = self._t1 - self._t0
        signal.signal(signal.SIGALRM, self._old_handler)
        return self.part()

    def part(self) -> dict:
        """What was sampled; ``end`` is on the system-wide monotonic clock,
        comparable between processes."""
        return {"wall": self.wall, "spent": self.spent, "factors": self.factors,
                "pid": os.getpid(), "end": self._t1}


def pool(parts) -> dict:
    """The parts of several samplers as one."""
    return {"wall": sum(p["wall"] for p in parts),
            "spent": sum(p["spent"] for p in parts),
            "factors": [f for p in parts for f in p["factors"]]}


def duty(part: dict) -> float:
    """The share of the sampled interval spent sampling."""
    return part["spent"] / part["wall"] if part["factors"] else 0.0


def at_reference(seconds: float, part: dict) -> float:
    """``seconds`` measured over the sampled interval, without the time spent
    sampling, at the reference speed.  Unchanged when nothing was sampled."""
    if not part["factors"]:
        return seconds
    return seconds * (1.0 - duty(part)) * statistics.fmean(part["factors"])


def install_in_workers(harness, spill_dir) -> None:
    """Sample each ``run_sweep`` task that runs in a forked pool worker and
    write its part to ``spill_dir``; tasks run in this process are left to
    this process's own sampler."""
    home = os.getpid()
    inner = harness._sweep_worker
    spill_dir = Path(spill_dir)
    n_tasks = [0]

    @functools.wraps(inner)
    def sweep_worker(*args, **kwargs):
        if os.getpid() == home:
            return inner(*args, **kwargs)
        sampler = SpeedSampler()
        sampler.start()
        try:
            return inner(*args, **kwargs)
        finally:
            part = sampler.stop()
            spill_dir.mkdir(parents=True, exist_ok=True)
            name = f"speed-{os.getpid()}-{n_tasks[0]}.json"
            n_tasks[0] += 1
            (spill_dir / name).write_text(json.dumps(part))
    harness._sweep_worker = sweep_worker


def worker_parts(spill_dir) -> tuple:
    """(all workers' parts pooled, the pooled parts of the worker whose last
    task ended last).  The first is for CPU time, which every worker adds
    to.  The second is for wall time: that worker was busy for nearly all
    of the pool's wall time, which ends with it, so its speed is the speed
    of that wall time; the other worker's, nearly independent of it, is
    not."""
    parts = [json.loads(p.read_text())
             for p in sorted(Path(spill_dir).glob("speed-*.json"))]
    if not parts:
        return pool([]), pool([])
    pid = max(parts, key=lambda p: p["end"])["pid"]
    return pool(parts), pool([p for p in parts if p["pid"] == pid])


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "-m":
        print(__doc__, file=sys.stderr)
        return 2
    out, module = Path(argv[0]), argv[2]
    sys.argv = [module] + argv[3:]
    sys.path[0] = os.getcwd()           # as python3 -m would have it
    sampler = SpeedSampler()
    sampler.start()
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        out.write_text(json.dumps(sampler.stop()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
