"""Shared pieces of the benchmark: inputs, statistics, answer checks and
the run report every workload fills in."""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (durable directories, daemon
#: ready files, point relations); removed when a run ends.
WORK = os.path.join(ROOT, ".perfbench-work")
#: Span dumps of traced runs; kept after the run for inspection.
TRACES = os.path.join(WORK, "traces")

#: The dataset shape every workload draws from: clustered anchors in a
#: 600-unit box, so each query sees a handful of nearby candidates.
CLUSTERS = 25
BOX = 600.0
QUERY_SIGMA = 6.0

#: The clock the in-process timings use: CPU time of this process (all
#: threads, user plus system).  On a shared host the wall time of the
#: same work spread by about half between runs while other processes
#: held the cores; CPU time leaves that wait out and keeps the work.
#: fsync waits are timed on the wall clock and printed, not gated;
#: http-point, mostly socket waits, stays on the wall clock.
cpu_clock = time.process_time


def scratch_dir(name: str) -> str:
    path = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def cleanup() -> None:
    """Remove this process's scratch directories (traces stay)."""
    if not os.path.isdir(WORK):
        return
    suffix = f"-{os.getpid()}"
    for name in os.listdir(WORK):
        if name.endswith(suffix):
            remove_dir(os.path.join(WORK, name))


def centers(seed: int):
    """Cluster anchors on a 5x5 grid over the inner 80% of the box, each
    jittered by up to 15% of the grid step.  Uniform anchors let the
    number of overlapping clusters, and with it the candidates per
    query, swing with the seed; the jittered grid keeps the work per
    query alike across seeds while every coordinate still comes from
    the seed."""
    rng = np.random.default_rng([seed, 0xC1])
    side = int(round(CLUSTERS ** 0.5))
    step = 0.8 * BOX / side
    grid = 0.1 * BOX + step * (np.arange(side) + 0.5)
    xy = np.array([(x, y) for x in grid for y in grid])
    xy += rng.uniform(-0.15 * step, 0.15 * step, size=xy.shape)
    return [tuple(row) for row in xy.tolist()]


def query_rows(rng: np.random.Generator, anchors, m: int) -> np.ndarray:
    """``m`` fresh query rows scattered around random cluster anchors
    (a float64 draw, so no two rows of a run repeat)."""
    a = np.asarray(anchors, dtype=np.float64)
    pick = rng.integers(0, a.shape[0], size=m)
    return a[pick] + rng.normal(0.0, QUERY_SIGMA, size=(m, 2))


def percentile(values: Sequence[float], q: float) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def canon(answers):
    """A bit-exact, comparable form of one answer payload: floats become
    their hex strings, so ``-0.0`` / ``0.0`` and last-ulp differences
    count as mismatches."""
    if isinstance(answers, np.ndarray):
        if answers.dtype.kind == "f":
            return [float(v).hex() for v in answers.ravel()]
        return answers.tolist()
    out = []
    for row in answers:
        if isinstance(row, dict):
            out.append(sorted((int(k), float(v).hex()) for k, v in row.items()))
        elif isinstance(row, (set, frozenset)):
            out.append(sorted(int(i) for i in row))
        else:
            out.append(row)
    return out


def rows_of(result, idx):
    """The rows ``idx`` (a slice or an index array) of a
    :class:`repro.QueryResult`, as a result of the same spec."""
    ans = result.answers
    if isinstance(ans, np.ndarray) or isinstance(idx, slice):
        sub = ans[idx]
    else:
        sub = [ans[i] for i in idx]
    values = None if result.values is None else result.values[idx]
    return dataclasses.replace(result, answers=sub, values=values)


def same_result(a, b) -> bool:
    """Whether two :class:`repro.QueryResult` objects carry bit-identical
    answers (and expected distances, where the method has them)."""
    if canon(a.answers) != canon(b.answers):
        return False
    if (a.values is None) != (b.values is None):
        return False
    return a.values is None or canon(a.values) == canon(b.values)


class Report:
    """What one run prints: detail lines, the operation accounting, the
    workload's end-to-end values and (in traced runs) its layer values."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.detail: Dict[str, tuple] = {}

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, cond: bool, why: str) -> bool:
        """A correctness check made outside the timed region: counts as
        an operation, and as a failure when it does not hold."""
        if cond:
            self.ok()
        else:
            self.fail(why)
        return cond

    def note(self, name: str, value: float, unit: str) -> None:
        """A workload-specific figure printed by name, not gated."""
        self.detail[name] = (value, unit)

    def trace_path(self) -> str:
        os.makedirs(TRACES, exist_ok=True)
        return os.path.join(TRACES, f"{self.workload}-seed{self.seed}.json")

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


def window_median(num: Sequence[float], den: Sequence[float], size: int) -> float:
    """The median, over consecutive windows of ``size`` samples, of
    ``sum(num) / sum(den)`` in each window (a window's mean when ``den``
    is all ones).  A burst of contention on the shared host moves a few
    windows, not the figure.  A short last window counts only when it is
    the only one.  For wall-clock figures; CPU time uses :class:`Windows`."""
    n = len(num)
    if not n:
        return float("nan")
    starts = range(0, max(1, n - size + 1), size) if n >= size else [0]
    return statistics.median(
        sum(num[i:i + size]) / sum(den[i:i + size]) for i in starts
    )


def latency(report, name: str, lat_ms) -> None:
    """Print the median and tail of ``lat_ms`` (raw, not host-scaled)
    and the sample count."""
    for q in (50, 90, 95, 99):
        report.note(f"{name}_p{q}_ms", percentile(lat_ms, q), "ms")
    report.note(f"{name}_samples", len(lat_ms), "count")


#: Nominal CPU time of one :func:`reference_kernel` run: about its median
#: on the 2-vCPU x86-64 VM the bounds were set on.  Host-scaled times
#: read as CPU time on a host that runs the kernel in this long.
REFERENCE_S = 0.012


def reference_kernel() -> float:
    """Run a fixed piece of work that never touches the library and
    return the CPU time it took.

    The mix resembles the library's: interpreter-bound Python with small
    numpy operations (distances to 512 sites, a partial sort, a keyed
    sort).  On a shared host the CPU time of the same work moved by up to
    a third within seconds and by half over tens of minutes, while other
    guests held the physical cores; the library's time moved with this
    kernel's, so the ratio of the two keeps the program's cost and leaves
    the host's speed out.
    """
    t0 = cpu_clock()
    rng = np.random.default_rng(12345)
    sites = rng.random((512, 2))
    acc = 0.0
    for i in range(400):
        d = sites - sites[i % 512]
        h = np.hypot(d[:, 0], d[:, 1])
        acc += h[int(np.argpartition(h, 8)[8])]
        acc += sorted(range(40), key=lambda k: (k * 7919) % 41)[3]
    took = cpu_clock() - t0
    if not acc > 0.0:
        raise AssertionError("reference kernel computed nothing")
    return took


def host_scaled(seconds: float, refs: Sequence[float]) -> float:
    """``seconds`` of CPU time as it would read on the nominal host,
    given reference-kernel times measured beside it."""
    return seconds * REFERENCE_S / (sum(refs) / len(refs))


class Windows:
    """Timed work in consecutive windows of ``size`` operations, with
    :func:`reference_kernel` run at every window boundary.

    An operation adds ``(seconds, units)`` to one or more named series
    (units being operations, or rows).  Each window's seconds per unit
    are host-scaled by the mean of the reference times before and after
    it, and the gated figure is the median over windows: the host's speed
    drops out of each window, and a burst of contention moves a few
    windows, not the figure.  A short last window counts only when it is
    the only one.  Raw (unscaled) sums are kept for printing.
    """

    def __init__(self, size: int):
        self.size = size
        #: Finished windows: (sums by series, ops, reference before, after).
        self.windows: List[tuple] = []
        self._open: Optional[list] = None
        self._ref: Optional[float] = None

    def add(self, **series) -> None:
        if self._open is None:
            before = reference_kernel() if self._ref is None else self._ref
            self._open = [{}, 0, before]
        sums, _, _ = self._open
        for name, (seconds, units) in series.items():
            s, u = sums.get(name, (0.0, 0.0))
            sums[name] = (s + seconds, u + units)
        self._open[1] += 1
        if self._open[1] == self.size:
            self._finish()

    def _finish(self) -> None:
        self._ref = reference_kernel()
        self.windows.append((*self._open, self._ref))
        self._open = None

    def close(self) -> None:
        """End the timed phase: finish a short last window, and measure
        the next window's reference afresh."""
        if self._open is not None:
            self._finish()
        self._ref = None

    def seconds_per_unit(self, name: str) -> float:
        self.close()
        full = [w for w in self.windows if w[1] == self.size] or self.windows[:1]
        if not full:
            return float("nan")
        return statistics.median(
            host_scaled(sums[name][0], (before, after)) / sums[name][1]
            for sums, _, before, after in full
        )

    def raw_seconds_per_unit(self, name: str) -> float:
        seconds = sum(w[0][name][0] for w in self.windows)
        units = sum(w[0][name][1] for w in self.windows)
        return seconds / units if units else float("nan")

    def host_speed(self) -> float:
        """Nominal over measured reference time (above 1: a fast host)."""
        refs = [w[2] for w in self.windows]
        return REFERENCE_S / statistics.median(refs) if refs else float("nan")
