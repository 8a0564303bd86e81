"""engine-clustered: in-process closed loop on one thread.

Two ``Engine`` sessions over n=2000 clustered uniform disks and n=2000
clustered discrete points (k=3).  Phase 1 runs m=1000 batches of
``expected_nn`` / ``nonzero`` / ``mc_pnn`` (s=256, fixed seed) on the
disks and ``threshold`` (tau=0.1) on the discrete points, round-robin;
phase 2 runs m=1 ``expected_nn`` point queries on the disks.  The two
phases alternate through the run (a round of batches, then 250 point
queries), so both see the same stretch of the shared host.  Pruning
and evaluation do almost all the work: no HTTP, wire, queue or WAL.
Every batch, point query and set-up is timed in CPU time of the process
(``common.cpu_clock``), and the gated figures are host-scaled by the
reference kernel run beside them (``common.Windows``).
"""

from __future__ import annotations

import dataclasses
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
    rows_of,
    same_result,
)
from tracing import Trace, Tracer, install

N = 2000
K = 3
BATCH = 1000
SETUPS = 7
MC_SEED = 7
#: Rows of each phase's last batch re-run on the exact tier.
CHECK_ROWS = (0, BATCH // 2, BATCH - 1)
POINT_CHECKS = 3
#: Point queries per phase-2 slice, one window of the gated mean (see
#: common.Windows); batches are windowed by round, one batch of each method.
POINT_WINDOW = 250


def _specs():
    from repro import QuerySpec

    return {
        "expected_nn": ("disks", QuerySpec("expected_nn")),
        "nonzero": ("disks", QuerySpec("nonzero")),
        "threshold": ("discrete", QuerySpec("threshold", tau=0.1)),
        "mc_pnn": ("disks", QuerySpec("mc_pnn", s=256, seed=MC_SEED)),
    }


def _integrity(report: Report, engines, before, phase: str) -> Dict[str, float]:
    deltas = {}
    for name, engine in engines.items():
        after = engine.stats()
        for key in ("registry_builds", "result_cache_hits", "result_cache_misses"):
            deltas[f"{name}.{key}"] = after[key] - before[name][key]
        report.check(
            deltas[f"{name}.registry_builds"] == 0,
            f"{phase}: {name} registry_builds grew in a timed phase",
        )
        report.check(
            deltas[f"{name}.result_cache_hits"] == 0,
            f"{phase}: {name} result cache hit in a timed phase",
        )
    return deltas


def _measure(ctx, seconds: float, report: Report, tracer: Optional[Tracer]):
    """Phase-1 rounds (one batch of each method) and phase-2 slices of
    ``POINT_WINDOW`` point queries, alternating for ``seconds``, so both
    phases see the same stretch of the host's time; returns the samples."""
    engines, anchors, rng, specs = ctx["engines"], ctx["anchors"], ctx["rng"], ctx["specs"]
    out = {
        "batch": {m: [] for m in specs},
        "point": [],
        "rounds": Windows(len(specs)),
        "point_windows": Windows(POINT_WINDOW),
        "roots": {m: [] for m in list(specs) + ["point"]},
        "last": {},
        "points": [],
    }
    snap = {n: e.stats() for n, e in engines.items()}
    point_ds, point_spec = specs["expected_nn"]
    t_end = time.perf_counter() + seconds
    i = j = 0
    while True:
        for method, (ds, spec) in specs.items():
            Q = query_rows(rng, anchors, BATCH)
            root = tracer.begin("bench.op", rid=f"{method}:{i}") if tracer else None
            t0 = cpu_clock()
            try:
                res = engines[ds].query(Q, spec)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                report.fail(f"{method}: {exc!r}")
                continue
            finally:
                if tracer:
                    tracer.end(root)
            out["batch"][method].append(cpu_clock() - t0)
            out["rounds"].add(batch=(out["batch"][method][-1], BATCH))
            if tracer:
                out["roots"][method].append(root)
            out["last"][method] = (Q, res)
            report.ok()
        out["rounds"].close()
        for _ in range(POINT_WINDOW):
            Q = query_rows(rng, anchors, 1)
            root = tracer.begin("bench.op", rid=f"point:{j}") if tracer else None
            t0 = cpu_clock()
            try:
                res = engines[point_ds].query(Q, point_spec)
            except Exception as exc:  # noqa: BLE001
                report.fail(f"point: {exc!r}")
                continue
            finally:
                if tracer:
                    tracer.end(root)
            out["point"].append(cpu_clock() - t0)
            out["point_windows"].add(point=(out["point"][-1], 1))
            if tracer:
                out["roots"]["point"].append(root)
            report.ok()
            if j % 97 == 0 and len(out["points"]) < POINT_CHECKS:
                out["points"].append((Q, res))
            j += 1
        out["point_windows"].close()
        i += 1
        if time.perf_counter() >= t_end:
            break
    ops = sum(len(v) for v in out["batch"].values()) + len(out["point"])
    out["deltas"] = {
        k: v / max(1, ops)
        for k, v in _integrity(report, engines, snap, "timed phases").items()
    }
    return out


def _check(ctx, samples, report: Report) -> None:
    """Pruned answers are bit-identical to the exact tier on fixed rows."""
    engines, specs = ctx["engines"], ctx["specs"]
    idx = np.asarray(CHECK_ROWS)
    for method, (ds, spec) in specs.items():
        if method not in samples["last"]:
            continue
        Q, res = samples["last"][method]
        exact = engines[ds].query(Q[idx], dataclasses.replace(spec, tier="exact"))
        report.check(
            same_result(rows_of(res, idx), exact),
            f"{method}: pruned answer differs from the exact tier",
        )
    ds, spec = specs["expected_nn"]
    for Q, res in samples["points"]:
        exact = engines[ds].query(Q, dataclasses.replace(spec, tier="exact"))
        report.check(
            same_result(res, exact), "point: pruned answer differs from exact"
        )


def _setup(seed: int):
    from repro import Engine
    from repro.constructions.generators import (
        clustered_discrete_points,
        clustered_disk_points,
    )

    anchors = centers(seed)
    disks = clustered_disk_points(N, centers=anchors, seed=seed + 1)
    discrete = clustered_discrete_points(N, k=K, centers=anchors, seed=seed + 2)
    specs = _specs()
    rng = np.random.default_rng(seed)
    firsts = [query_rows(rng, anchors, 1) for _ in range(SETUPS * len(specs))]
    times: List[float] = []
    engines = None
    refs = [reference_kernel()]
    for s in range(SETUPS):
        t0 = cpu_clock()
        engines = {"disks": Engine(disks), "discrete": Engine(discrete)}
        for j, (ds, spec) in enumerate(specs.values()):
            engines[ds].query(firsts[s * len(specs) + j], spec)
        took = cpu_clock() - t0
        refs.append(reference_kernel())
        times.append(host_scaled(took, refs[-2:]))
    ctx = {"engines": engines, "anchors": anchors, "rng": rng, "specs": specs}
    # Warm-up: every phase once, so the timed phases build nothing.
    for ds, spec in specs.values():
        engines[ds].query(query_rows(rng, anchors, BATCH), spec)
    for _ in range(20):
        engines["disks"].query(query_rows(rng, anchors, 1), specs["expected_nn"][1])
    return ctx, times


def _e2e(samples, setup_times, report: Report) -> Dict[str, float]:
    rounds, points = samples["rounds"], samples["point_windows"]
    report.note("rounds", len(rounds.windows), "count")
    report.note("host_speed", rounds.host_speed(), "x")
    report.note("raw_rows_per_cpu_s", 1.0 / rounds.raw_seconds_per_unit("batch"), "rows/s")
    report.note("raw_point_mean_cpu_ms", 1e3 * points.raw_seconds_per_unit("point"), "ms")
    for method, v in samples["batch"].items():
        report.note(f"{method}_rows_per_s", BATCH * len(v) / max(sum(v), 1e-12), "rows/s")
        report.note(f"{method}_batch_p50_ms", 1e3 * percentile(v, 50), "ms")
    for k, v in samples["deltas"].items():
        report.note(f"delta_per_op.{k}", v, "count")
    latency(report, "point_cpu", [1e3 * t for t in samples["point"]])
    return {
        "setup_s": statistics.median(setup_times),
        "ok_frac": report.ok_frac,
        "mean_ms": 1e3 * points.seconds_per_unit("point"),
        "rows_per_s": 1.0 / rounds.seconds_per_unit("batch"),
    }


def run(seed: int, seconds: float, trace: bool, report: Report) -> Dict[str, float]:
    ctx, setup_times = _setup(seed)
    if not trace:
        samples = _measure(ctx, seconds, report, None)
        _check(ctx, samples, report)
        return _e2e(samples, setup_times, report)
    plain = _measure(ctx, seconds / 2, report, None)
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced = _measure(ctx, seconds / 2, report, tracer)
    finally:
        restore()
    _check(ctx, traced, report)
    return _layers(tracer, plain, traced, report)


def _mean_batch(samples) -> float:
    v = [t for ts in samples["batch"].values() for t in ts]
    return sum(v) / max(1, len(v))


def _layers(tracer: Tracer, plain, traced, report: Report) -> Dict[str, float]:
    trace = Trace(tracer.spans, tracer.links, tracer.counts)
    batch_roots = [r for m, rs in traced["roots"].items() if m != "point" for r in rs]
    main = layers.summarize(trace, batch_roots, rows=BATCH * len(batch_roots))
    phases = {
        m: layers.summarize(trace, rs) for m, rs in traced["roots"].items()
    }
    tracer.write(report.trace_path())
    builds = sum(
        v for k, v in traced["deltas"].items() if k.endswith("registry_builds")
    )
    return layers.per_layer(
        main,
        phases=phases,
        extra={
            "engine.registry_builds_per_read": builds,
            "trace.overhead_frac": _mean_batch(traced) / _mean_batch(plain) - 1.0,
        },
    )
