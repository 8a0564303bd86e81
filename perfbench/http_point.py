"""http-point: open loop at fixed rates against a ``repro.service`` daemon.

The daemon runs in a child process and serves n=2500 clustered discrete
points (k=3).  One generator process (this one) sends over at most
``nproc`` keep-alive connections; requests are 1, 2 or 8 rows, 75%
``expected_nn`` and 25% ``nonzero``.  The engine costs ~2 ms per request
here, so HTTP, wire, queue and encode dominate.  Latency is timed from
each request's due time, so a stall also delays the requests behind it.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

import layers
from common import (
    SRC,
    Report,
    centers,
    host_scaled,
    latency,
    percentile,
    query_rows,
    reference_kernel,
    rows_of,
    same_result,
    scratch_dir,
    window_median,
)
from tracing import Trace, request_id

N = 2500
K = 3
DATASET = "bench"
ROWS = (1, 2, 8)
NONZERO_SHARE = 0.25
#: Requests per block of the exact size and method mix (see Load).
BLOCK = 12
REFERENCE_RPS = 25.0
#: Doubling ladder for ``max_rate_rps``; no rung within 25% of the
#: ~40 req/s knee that the keep-alive stall puts on the daemon.
LADDER = (12.5, 25.0, 50.0, 100.0, 200.0, 400.0)
P99_LIMIT_MS = 25.0
SETUPS = 5
#: Closed-loop requests per window of the gated mean (common.window_median).
#: The mean is on the wall clock, not host-scaled: the keep-alive stall,
#: a fixed timer, is most of it.
LATENCY_WINDOW = 100
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
HERE = os.path.dirname(os.path.abspath(__file__))


class Daemon:
    """One ``repro.service`` child process, optionally traced."""

    def __init__(self, work: str, points_path: str, tag: str, spans: Optional[str]):
        self.ready = os.path.join(work, f"ready-{tag}.json")
        self.log = open(os.path.join(work, f"daemon-{tag}.log"), "wb")
        args = [
            "--port", "0",
            "--points", f"{DATASET}={points_path}",
            "--ready-file", self.ready,
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.service", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve.py"), spans, "--", *args]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=self.log
        )
        self.port = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.ready):
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become ready")
            time.sleep(0.005)
        with open(self.ready, "r", encoding="utf-8") as fh:
            self.port = json.load(fh)["port"]

    def cpu_seconds(self) -> float:
        """CPU time the daemon's live threads have used so far, to the
        nanosecond, from each thread's ``/proc/<pid>/task/<tid>/schedstat``.
        A thread that has ended is not counted, so call it while the
        connection whose handler thread did the work is still open."""
        total = 0
        for path in glob.glob(f"/proc/{self.proc.pid}/task/*/schedstat"):
            try:
                with open(path, "r", encoding="ascii") as fh:
                    total += int(fh.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass  # the thread ended after the listing
        return total / 1e9

    def get(self, path: str) -> Dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return json.loads(resp.read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the daemon drains and, traced, writes its spans),
        then wait; kill if it does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Load:
    """Pre-built request bodies with their rows and methods.

    Sizes and methods are dealt in blocks of ``BLOCK`` requests, each
    block a seeded shuffle of the exact mix, so every stretch of the
    load carries the same rows per request and the rates do not follow
    the seed's luck in drawing 8-row requests."""

    def __init__(self, rng: np.random.Generator, anchors, count: int):
        blocks = -(-count // BLOCK)
        sizes = np.repeat(ROWS, BLOCK // len(ROWS))
        nonzero = int(round(BLOCK * NONZERO_SHARE))
        methods = np.array(["nonzero"] * nonzero + ["expected_nn"] * (BLOCK - nonzero))
        self.rows = np.concatenate([rng.permutation(sizes) for _ in range(blocks)])[:count]
        self.methods = np.concatenate(
            [rng.permutation(methods) for _ in range(blocks)]
        )[:count]
        self.queries = [query_rows(rng, anchors, int(r)) for r in self.rows]
        self.bodies = [
            json.dumps({"query": Q.tolist(), "spec": {"method": str(m)}}).encode()
            for Q, m in zip(self.queries, self.methods)
        ]
        self.next = 0

    def take(self, count: int) -> range:
        lo = self.next
        self.next = min(len(self.bodies), lo + count)
        return range(lo, self.next)


def _send(conn_box, port, body):
    conn = conn_box[0]
    if conn is None:
        conn = conn_box[0] = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST",
            f"/v1/datasets/{DATASET}/query",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        conn_box[0] = None
        raise


def open_loop(port: int, load: Load, rate: float, seconds: float) -> List[dict]:
    """Send at ``rate`` req/s for ``seconds`` over the connections;
    a request still unsent when the step ends is recorded as missed."""
    idx = load.take(int(round(rate * seconds)))
    start = time.perf_counter() + 0.02
    stop = start + seconds
    records: List[dict] = []
    lock = threading.Lock()
    cursor = iter(range(len(idx)))

    def worker():
        box = [None]
        while True:
            with lock:
                k = next(cursor, None)
            if k is None:
                break
            due = start + k / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            rec = {"i": idx[k], "due": due}
            sent = time.perf_counter()
            if sent > stop + 1.0:
                rec["missed"] = True
            else:
                rec["sent"] = sent
                try:
                    rec["status"], rec["body"] = _send(box, port, load.bodies[idx[k]])
                except (OSError, http.client.HTTPException) as exc:
                    rec["error"] = repr(exc)
                rec["done"] = time.perf_counter()
            with lock:
                records.append(rec)
        if box[0] is not None:
            box[0].close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def closed_loop(port: int, load: Load, seconds: float) -> List[dict]:
    """Each connection sends its next request when the last returns."""
    stop = time.perf_counter() + seconds
    records: List[dict] = []
    lock = threading.Lock()

    def worker():
        box = [None]
        while time.perf_counter() < stop:
            with lock:
                r = load.take(1)
            if not len(r):
                break
            rec = {"i": r[0], "sent": time.perf_counter()}
            rec["due"] = rec["sent"]
            try:
                rec["status"], rec["body"] = _send(box, port, load.bodies[r[0]])
            except (OSError, http.client.HTTPException) as exc:
                rec["error"] = repr(exc)
            rec["done"] = time.perf_counter()
            with lock:
                records.append(rec)
        if box[0] is not None:
            box[0].close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def _lat_ms(records, since="due") -> List[float]:
    return [1e3 * (r["done"] - r[since]) for r in records if "done" in r]


def _passes(records) -> bool:
    if any("missed" in r or r.get("status") != 200 for r in records):
        return False
    return percentile(_lat_ms(records), 99) <= P99_LIMIT_MS


def _account(report: Report, records, phase: str) -> None:
    for r in records:
        if "missed" in r:
            continue  # never sent: a missed deadline, not a failed request
        if "error" in r:
            report.fail(f"{phase}: {r['error']}")
        elif r["status"] != 200:
            report.fail(f"{phase}: HTTP {r['status']}")
        else:
            report.ok()


def _check(report: Report, engine, load: Load, records) -> None:
    """Every answered response decodes to the in-process engine's answer
    for the same rows (one batch per method, split back per request)."""
    from repro.service import wire

    done = [r for r in records if r.get("status") == 200]
    for method in ("expected_nn", "nonzero"):
        mine = [r for r in done if load.methods[r["i"]] == method]
        if not mine:
            continue
        Q = np.concatenate([load.queries[r["i"]] for r in mine])
        ref = engine.query(Q, method=method)
        lo = 0
        for r in mine:
            m = load.queries[r["i"]].shape[0]
            got = wire.decode_result(json.loads(r["body"]))
            want = rows_of(ref, slice(lo, lo + m))
            lo += m
            report.check(
                got.m == m and same_result(got, want),
                f"{method}: HTTP answer differs from the in-process engine",
            )


def _stats(daemon: Daemon) -> Dict[str, float]:
    queue = daemon.get("/stats")["service"]["queue"]
    engine = daemon.get(f"/v1/datasets/{DATASET}")["engine"]
    return {
        **{f"queue.{k}": float(v) for k, v in queue.items()},
        **{
            f"engine.{k}": float(engine[k])
            for k in ("registry_builds", "result_cache_hits", "result_cache_misses")
        },
    }


def _integrity(report: Report, before, after, phase: str) -> Dict[str, float]:
    delta = {k: after[k] - before[k] for k in before}
    report.check(
        delta["engine.result_cache_hits"] == 0,
        f"{phase}: result cache hit in a timed phase",
    )
    report.check(
        delta["engine.registry_builds"] == 0,
        f"{phase}: registry_builds grew in a timed phase",
    )
    return delta


def _start(work, points_path, tag, spans=None):
    """Start a daemon and time it to its first answered query: returns
    the daemon, the CPU time it used until then and the wall time."""
    t0 = time.perf_counter()
    daemon = Daemon(work, points_path, tag, spans)
    box = [None]
    try:
        daemon.wait_ready()
        status, _ = _send(box, daemon.port, json.dumps(
            {"query": [[300.0, 300.0]], "spec": {"method": "expected_nn"}}
        ).encode())
        wall = time.perf_counter() - t0
        if status != 200:
            raise RuntimeError(f"first query answered HTTP {status}")
        # The keep-alive connection is still open, so the thread that
        # served the query is still alive and counted.
        cpu = daemon.cpu_seconds()
    except BaseException:
        daemon.stop()
        raise
    finally:
        if box[0] is not None:
            box[0].close()
    return daemon, cpu, wall


def _warm(daemon: Daemon, load: Load) -> None:
    for rec in closed_loop(daemon.port, load, 0.5):
        if rec.get("status") != 200:
            raise RuntimeError("warm-up request failed")


def run(seed: int, seconds: float, trace: bool, report: Report) -> Dict[str, float]:
    from repro import Engine
    from repro import io as rio
    from repro.constructions.generators import clustered_discrete_points

    anchors = centers(seed)
    points = clustered_discrete_points(N, k=K, centers=anchors, seed=seed + 1)
    work = scratch_dir("http-point")
    points_path = os.path.join(work, "points.json")
    with open(points_path, "w", encoding="utf-8") as fh:
        fh.write(rio.dumps(points))
    rng = np.random.default_rng(seed)
    # Enough fresh bodies for the fastest closed loop plus every rung.
    load = Load(rng, anchors, int(600 * seconds) + 4000)
    engine = Engine(points)

    daemons: List[Daemon] = []
    try:
        setup_times, setup_walls = [], []
        refs = [reference_kernel()]
        for s in range(SETUPS):
            daemon, took, wall = _start(work, points_path, f"s{s}")
            daemons.append(daemon)
            refs.append(reference_kernel())
            setup_times.append(host_scaled(took, refs[-2:]))
            setup_walls.append(wall)
            if s < SETUPS - 1:
                daemon.stop()
        daemon = daemons[-1]
        _warm(daemon, load)
        if trace:
            return _traced(report, engine, load, daemon, work, points_path, seconds, daemons)
        before = _stats(daemon)
        sat = closed_loop(daemon.port, load, 0.45 * seconds)
        ref = open_loop(daemon.port, load, REFERENCE_RPS, 0.3 * seconds)
        max_rate = 0.0
        ladder = []
        for rate in LADDER:
            if rate == REFERENCE_RPS:
                recs = ref
            else:
                recs = open_loop(daemon.port, load, rate, 0.05 * seconds)
                ladder.extend(recs)
            if not _passes(recs):
                break
            max_rate = rate
        delta = _integrity(report, before, _stats(daemon), "timed phases")
        for phase, recs in (("saturation", sat), ("reference", ref), ("ladder", ladder)):
            _account(report, recs, phase)
    finally:
        for d in daemons:
            d.stop()
    _check(report, engine, load, sat + ref + ladder)

    lat = _lat_ms(sat, "sent")
    ref_lat = _lat_ms(ref)
    sat_time = max(r["done"] for r in sat) - min(r["sent"] for r in sat)
    sat_rows = sum(int(load.rows[r["i"]]) for r in sat if r.get("status") == 200)
    latency(report, "closed_loop", lat)
    report.note("setup_wall_s", statistics.median(setup_walls), "s")
    report.note("max_rate_rps", max_rate, "1/s")
    report.note("reference_p50_ms", percentile(ref_lat, 50), "ms")
    report.note("reference_p99_ms", percentile(ref_lat, 99), "ms")
    report.note("reference_late_p99_ms", _late_p99(ref), "ms")
    report.note("reference_requests", len(ref), "count")
    report.note("closed_loop_rps", len(sat) / sat_time, "1/s")
    served = max(1.0, delta["queue.completed"])
    for k, v in delta.items():
        report.note(f"delta_per_request.{k}", v / served, "count")
    return {
        "setup_s": statistics.median(setup_times),
        "ok_frac": report.ok_frac,
        "mean_ms": window_median(lat, [1.0] * len(lat), LATENCY_WINDOW),
        "rows_per_s": sat_rows / sat_time,
    }


def _late_p99(records) -> float:
    return percentile([1e3 * (r["sent"] - r["due"]) for r in records if "sent" in r], 99)


def _traced(report, engine, load, plain_daemon, work, points_path, seconds, daemons):
    """Closed loop for half the time untraced, then against a traced
    daemon; the trace splits the traced requests into layers."""
    plain = closed_loop(plain_daemon.port, load, 0.4 * seconds)
    plain_daemon.stop()
    spans_path = os.path.join(work, "spans.json")
    daemon, _, _ = _start(work, points_path, "traced", spans_path)
    daemons.append(daemon)
    _warm(daemon, load)
    before = _stats(daemon)
    traced = closed_loop(daemon.port, load, 0.4 * seconds)
    delta = _integrity(report, before, _stats(daemon), "traced phase")
    daemon.stop()
    for phase, recs in (("untraced", plain), ("traced", traced)):
        _account(report, recs, phase)
    _check(report, engine, load, plain + traced)

    with open(spans_path, "r", encoding="utf-8") as fh:
        server = json.load(fh)
    done = [r for r in traced if r.get("status") == 200]
    trace = Trace([
        ["client.request", r["sent"], r["done"], None, request_id(load.bodies[r["i"]])]
        for r in done
    ])
    trace.merge(Trace(server["spans"], server["links"], server["counts"]))
    server_roots = trace.roots_by_rid("service.server")
    for i, s in enumerate(trace.spans[: len(done)]):
        if s[4] in server_roots:
            trace.children[i].append(server_roots[s[4]])
    with open(report.trace_path(), "w", encoding="utf-8") as fh:
        json.dump({"spans": trace.spans, "children": trace.children}, fh)
    rows = sum(int(load.rows[r["i"]]) for r in done)
    main = layers.summarize(trace, range(len(done)), rows=rows)
    n = max(1, len(done))
    batches = delta["queue.batches"]
    return layers.per_layer(
        main,
        extra={
            "engine.registry_builds_per_read": delta["engine.registry_builds"] / n,
            "service.wire.request_bytes": sum(len(load.bodies[r["i"]]) for r in done) / n,
            "service.wire.response_bytes": sum(len(r["body"]) for r in done) / n,
            "service.queue.batch_size_mean": delta["queue.completed"] / batches if batches else 0.0,
            "service.queue.rejected": delta["queue.rejected"],
            "trace.overhead_frac": percentile(_lat_ms(traced, "sent"), 50)
            / percentile(_lat_ms(plain, "sent"), 50) - 1.0,
        },
    )
