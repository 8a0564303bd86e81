"""durable-mixed: writes beside reads on a durable engine, closed loop.

Each cycle opens ``Engine.open_durable(fsync="always")`` (the config
default) over n=2000 clustered discrete points in a fresh directory,
then runs 100 steps: insert 64 fresh points (acknowledged once the WAL
append returns), then a fresh m=64 ``expected_nn`` batch.  Every write
appends to the WAL and bumps the generation, so every read rebuilds the
dual tree and eval cache.  The cycle ends with ``close()`` and a timed
reopen that replays the log.  Cycles repeat until the time is used, so
the dataset size follows the same path in every cycle.  Inserts, reads
and set-ups are timed in CPU time of the process (``common.cpu_clock``)
and the gated figures host-scaled by the reference kernel run beside
them (``common.Windows``); insert latency with its fsync wait and
recovery are printed on the wall clock.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

import layers
from common import (
    Report,
    Windows,
    centers,
    cpu_clock,
    host_scaled,
    latency,
    percentile,
    query_rows,
    reference_kernel,
    remove_dir,
    same_result,
    scratch_dir,
)
from tracing import Trace, Tracer, install

N = 2000
K = 3
STEPS = 100
INSERT = 64
READ = 64
PROBE = 16
FSYNC = "always"
SETUPS = 5
#: Steps per window of the gated figures (see common.Windows).
WINDOW = 10


def _cycle(ctx, c: int, report: Report, tracer: Optional[Tracer]) -> Dict:
    from repro import Engine, QuerySpec
    from repro.constructions.generators import clustered_discrete_points

    anchors, rng, work = ctx["anchors"], ctx["rng"], ctx["work"]
    spec = QuerySpec("expected_nn")
    extra = clustered_discrete_points(
        STEPS * INSERT, k=K, centers=anchors, seed=ctx["seed"] * 1000 + c + 7
    )
    reads = [query_rows(rng, anchors, READ) for _ in range(STEPS)]
    first = query_rows(rng, anchors, 1)
    probe = query_rows(rng, anchors, PROBE)
    path = os.path.join(work, f"cycle{c}")
    out = {
        "insert": [], "insert_wall": [], "read": [], "step": [],
        "roots": [], "recovery_roots": [],
    }

    refs = [reference_kernel()]
    t0 = cpu_clock()
    engine = Engine.open_durable(path, ctx["base"], fsync=FSYNC)
    engine.query(first, spec)
    took = cpu_clock() - t0
    refs.append(reference_kernel())
    out["setup"] = host_scaled(took, refs)
    before = engine.stats()
    acked = 0
    for s in range(STEPS):
        root = tracer.begin("bench.op", rid=f"step:{c}:{s}") if tracer else None
        try:
            w0, t0 = time.perf_counter(), cpu_clock()
            engine.insert(extra[s * INSERT:(s + 1) * INSERT])
            w1, t1 = time.perf_counter(), cpu_clock()
            acked += INSERT
            engine.query(reads[s], spec)
            t2 = cpu_clock()
        except Exception as exc:  # noqa: BLE001 - a failed step is counted
            report.fail(f"step {s}: {exc!r}")
            continue
        finally:
            if tracer:
                tracer.end(root)
        report.ok(2)
        out["insert"].append(t1 - t0)
        out["insert_wall"].append(w1 - w0)
        out["read"].append(t2 - t1)
        out["step"].append(t2 - t0)
        ctx["windows"].add(read=(t2 - t1, 1), step=(t2 - t0, INSERT + READ))
        if tracer:
            out["roots"].append(root)
    ctx["windows"].close()
    after = engine.stats()
    report.check(
        after["result_cache_hits"] == before["result_cache_hits"],
        "result cache hit in a timed phase",
    )
    out["builds"] = after["registry_builds"] - before["registry_builds"]
    out["wal"] = {
        k: after["wal"][k] - before["wal"][k]
        for k in ("appends", "fsyncs", "fsync_seconds", "bytes_written")
    }
    out["inserted"] = acked
    want = engine.query(probe, spec)
    engine.close()

    root = tracer.begin("bench.op", rid=f"recover:{c}") if tracer else None
    t0 = time.perf_counter()
    try:
        reopened = Engine.open_durable(path, fsync=FSYNC)
        got = reopened.query(probe, spec)
    finally:
        if tracer:
            tracer.end(root)
    out["recover"] = time.perf_counter() - t0
    out["records"] = reopened.stats()["wal"]["replayed"]
    if tracer:
        out["recovery_roots"].append(root)
    report.check(
        reopened.n == N + acked,
        f"reopened n={reopened.n}, expected {N + acked}",
    )
    report.check(
        same_result(got, want), "reopened engine answers differ from pre-close"
    )
    reopened.close()
    remove_dir(path)
    return out


def _setups(ctx, count: int) -> List[float]:
    """Extra fresh opens, so the set-up median rests on enough samples."""
    from repro import Engine, QuerySpec

    spec = QuerySpec("expected_nn")
    firsts = [query_rows(ctx["rng"], ctx["anchors"], 1) for _ in range(count)]
    times = []
    refs = [reference_kernel()]
    for i, first in enumerate(firsts):
        path = os.path.join(ctx["work"], f"setup{i}")
        t0 = cpu_clock()
        engine = Engine.open_durable(path, ctx["base"], fsync=FSYNC)
        engine.query(first, spec)
        took = cpu_clock() - t0
        refs.append(reference_kernel())
        times.append(host_scaled(took, refs[-2:]))
        engine.close()
        remove_dir(path)
    return times


def _cycles(ctx, seconds: float, report: Report, tracer=None) -> List[Dict]:
    done: List[Dict] = []
    t_end = time.perf_counter() + seconds
    while len(done) < 2 or time.perf_counter() < t_end:
        done.append(_cycle(ctx, ctx["next"], report, tracer))
        ctx["next"] += 1
    return done


def _flat(cycles, key) -> List[float]:
    return [v for c in cycles for v in c[key]]


def _mean_step(cycles) -> float:
    steps = _flat(cycles, "step")
    return sum(steps) / max(1, len(steps))


def run(seed: int, seconds: float, trace: bool, report: Report) -> Dict[str, float]:
    from repro.constructions.generators import clustered_discrete_points

    anchors = centers(seed)
    ctx = {
        "seed": seed,
        "anchors": anchors,
        "base": clustered_discrete_points(N, k=K, centers=anchors, seed=seed + 1),
        "rng": np.random.default_rng(seed),
        "work": scratch_dir("durable-mixed"),
        "next": 0,
        "windows": Windows(WINDOW),
    }
    if trace:
        return _traced(ctx, seconds, report)
    setups = _setups(ctx, SETUPS)
    cycles = _cycles(ctx, seconds, report)
    setups += [c["setup"] for c in cycles]
    inserts = [1e3 * t for t in _flat(cycles, "insert_wall")]
    latency(report, "read_cpu", [1e3 * t for t in _flat(cycles, "read")])
    windows = ctx["windows"]
    report.note("setups", len(setups), "count")
    report.note("host_speed", windows.host_speed(), "x")
    report.note("raw_read_mean_cpu_ms", 1e3 * windows.raw_seconds_per_unit("read"), "ms")
    report.note("raw_rows_per_cpu_s", 1.0 / windows.raw_seconds_per_unit("step"), "rows/s")
    report.note("insert_p50_ms", percentile(inserts, 50), "ms")
    report.note("insert_p99_ms", percentile(inserts, 99), "ms")
    report.note("recover_s", statistics.median(c["recover"] for c in cycles), "s")
    report.note("recovered_records", statistics.median(c["records"] for c in cycles), "count")
    report.note("cycles", len(cycles), "count")
    inserts_done = max(1, sum(len(c["insert"]) for c in cycles))
    report.note("delta_per_read.registry_builds", sum(c["builds"] for c in cycles) / inserts_done, "count")
    for k in ("appends", "fsyncs", "bytes_written"):
        report.note(f"delta_per_insert.wal.{k}", sum(c["wal"][k] for c in cycles) / inserts_done, "count")
    return {
        "setup_s": statistics.median(setups),
        "ok_frac": report.ok_frac,
        "mean_ms": 1e3 * windows.seconds_per_unit("read"),
        "rows_per_s": 1.0 / windows.seconds_per_unit("step"),
    }


def _traced(ctx, seconds: float, report: Report) -> Dict[str, float]:
    plain = _cycles(ctx, seconds / 2, report)
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced = _cycles(ctx, seconds / 2, report, tracer)
    finally:
        restore()
    tracer.write(report.trace_path())
    trace = Trace(tracer.spans, tracer.links, tracer.counts)
    steps = _flat(traced, "roots")
    main = layers.summarize(trace, steps, rows=READ * len(steps))
    recovery = layers.summarize(trace, _flat(traced, "recovery_roots"))
    inserted = sum(c["inserted"] for c in traced)
    wal = {k: sum(c["wal"][k] for c in traced) for k in traced[0]["wal"]}
    n = max(1, len(steps))
    return layers.per_layer(
        main,
        recovery=recovery,
        extra={
            "engine.registry_builds_per_read": sum(c["builds"] for c in traced) / n,
            "resilience.wal.fsyncs_per_insert": wal["fsyncs"] / n,
            "resilience.wal.fsync_ms": 1e3 * wal["fsync_seconds"] / n,
            "resilience.wal.bytes_per_point": wal["bytes_written"] / max(1, inserted),
            "trace.overhead_frac": _mean_step(traced) / _mean_step(plain) - 1.0,
        },
    )
