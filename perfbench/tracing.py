"""Spans around calls into the repo's public layer functions.

The benchmark times layers from its own files: :func:`install` replaces
public entry points (``Engine.query``, ``dual_tree_candidates``,
``RequestQueue.query``, ...) with wrappers that record a span — layer
name, start, end, parent span and request id — plus the counts the
call returned.  Spans stay in memory and are written out when the run
ends; self times are derived from them afterwards.

Cross-thread edges: the daemon's handler thread waits in
``RequestQueue.query`` while a dispatcher thread runs ``Engine.query``.
A ticket subclass remembers the waiting span, and its completion event
links the dispatcher's last ``Engine.query`` span to it, so a coalesced
batch is attributed to every request it served.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import threading
import time
import zlib
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layers that only contain other layers: their self time is glue no
#: layer accounts for, so it counts as unattributed.
CONTAINERS = (
    "bench.op",
    "client.request",
    "service.server",
    "engine.query",
    "engine.insert",
    "engine.open_durable",
)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, rid]
        self.links: List[Tuple[int, int]] = []  # (parent, child)
        self.counts: Dict[int, Dict[str, float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        st = self._local.__dict__
        if "stack" not in st:
            st["stack"] = []
            st["last"] = {}
        return st

    def begin(self, name: str, rid=None) -> int:
        st = self._state()
        stack = st["stack"]
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][4]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, rid])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        st = self._state()
        st["stack"].pop()
        st["last"][self.spans[idx][0]] = idx

    def current(self) -> Optional[int]:
        stack = self._state()["stack"]
        return stack[-1] if stack else None

    def last_ended(self, name: str) -> Optional[int]:
        return self._state()["last"].get(name)

    def link(self, parent: int, child: int) -> None:
        with self._lock:
            self.links.append((parent, child))

    def add(self, idx: int, key: str, value: float) -> None:
        bucket = self.counts.setdefault(idx, {})
        bucket[key] = bucket.get(key, 0.0) + float(value)

    def write(self, path: str) -> None:
        """Write the spans, cross-thread links and counts as JSON."""
        data = {
            "spans": self.spans,
            "links": self.links,
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def request_id(body: bytes) -> int:
    """The id a request's spans share on both sides of the socket: the
    body's CRC-32 (query rows are fresh, so bodies do not repeat)."""
    return zlib.crc32(body) & 0xFFFFFFFF


# -- wrappers -------------------------------------------------------------------

def _dual_counts(tracer, idx, args, kwargs, out):
    for key in ("node_pairs_visited", "refined_pairs", "survivors"):
        tracer.add(idx, key, out.stats[key])
    tracer.add(idx, "rows", out.m)


def _pair_counts(tracer, idx, args, kwargs, out):
    # (cache|columns, Q, rows|indptr, cols): the last array is one entry
    # per evaluated pair in every evaluator entry point.
    tracer.add(idx, "pairs", len(args[3]))


def _wrap(tracer: Tracer, fn: Callable, name: str, on_result=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_result is not None:
            on_result(tracer, idx, args, kwargs, out)
        return out

    return traced


#: (module, attribute path, layer, count hook).  Functions that other
#: modules import by name are patched where they are looked up too.
TARGETS = [
    ("repro.engine", "Engine.query", "engine.query", None),
    ("repro.engine", "Engine.insert", "engine.insert", None),
    ("repro.engine", "Engine.open_durable", "engine.open_durable", None),
    ("repro.core.dual_tree", "dual_tree_candidates", "core.dual_tree", _dual_counts),
    ("repro.core.planner", "dual_tree_candidates", "core.dual_tree", _dual_counts),
    ("repro.core.evaluators", "expected_distance_pairs", "core.evaluators", _pair_counts),
    ("repro.core.evaluators", "support_bounds_pairs", "core.evaluators", _pair_counts),
    ("repro.core.evaluators", "gather_sweep_entries", "core.evaluators", _pair_counts),
    ("repro.core.quantification", "sweep_quantification", "core.quantification", None),
    ("repro.core.planner", "sweep_quantification", "core.quantification", None),
    ("repro.core.planner", "quantification_probabilities", "core.quantification", None),
    ("repro.core.monte_carlo", "MonteCarloPNN.query_matrix", "core.monte_carlo", None),
    ("repro.uncertain.columns", "ModelColumns.__init__", "engine.rebuild", None),
    ("repro.uncertain.columns", "ModelColumns.extend", "engine.rebuild", None),
    ("repro.core.dual_tree", "EnvelopeObjectTree.__init__", "engine.rebuild", None),
    ("repro.core.evaluators", "EvalCache.__init__", "engine.rebuild", None),
    ("repro.resilience.wal", "WriteAheadLog.append", "resilience.wal.append", None),
    ("repro.resilience.wal", "scan", "resilience.wal.scan", None),
    ("repro.io", "points_to_wire", "io.points_to_wire", None),
    ("repro.io", "points_from_wire", "io.points_from_wire", None),
    ("repro.service.wire", "decode_request", "service.wire.decode", None),
    ("repro.service.wire", "encode_result", "service.wire.encode", None),
    ("repro.service.queue", "RequestQueue.query", "service.queue", None),
]


def _patch(owner, attr: str, make) -> Callable[[], None]:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return lambda: setattr(owner, attr, raw)


def install(tracer: Tracer, service: bool = False) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them.
    ``service=True`` also wraps the daemon's request path."""
    undo: List[Callable[[], None]] = []
    for module, path, layer, hook in TARGETS:
        if module.startswith("repro.service") and not service:
            continue
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        undo.append(
            _patch(owner, attr, lambda fn, l=layer, h=hook: _wrap(tracer, fn, l, h))
        )
    if service:
        undo.extend(_install_service(tracer))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


def _install_service(tracer: Tracer) -> List[Callable[[], None]]:
    from repro.service import queue as queue_mod
    from repro.service import server as server_mod

    def make_execute(fn):
        @functools.wraps(fn)
        def execute_query(self, name, body):
            idx = tracer.begin("service.server", rid=request_id(body))
            try:
                return fn(self, name, body)
            finally:
                tracer.end(idx)

        return execute_query

    class _LinkedEvent(threading.Event):
        """Completion event that links the dispatcher's batch span to
        the handler span waiting on it."""

        def __init__(self, waiter: Optional[int]):
            super().__init__()
            self.waiter = waiter

        def set(self):
            batch = tracer.last_ended("engine.query")
            if self.waiter is not None and batch is not None:
                tracer.link(self.waiter, batch)
            super().set()

    base = queue_mod.Ticket

    @dataclasses.dataclass
    class LinkedTicket(base):
        def __post_init__(self):
            self.event = _LinkedEvent(tracer.current())

    undo = [_patch(server_mod.ServiceServer, "execute_query", make_execute)]
    queue_mod.Ticket = LinkedTicket
    undo.append(lambda: setattr(queue_mod, "Ticket", base))
    return undo


# -- analysis -------------------------------------------------------------------

class Trace:
    """Self times and counts per layer, per operation root."""

    def __init__(self, spans, links=(), counts=None):
        self.spans = spans
        self.counts = {int(k): v for k, v in (counts or {}).items()}
        self.children: Dict[int, List[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] is not None:
                self.children[s[3]].append(i)
        for parent, child in links:
            self.children[parent].append(child)

    def merge(self, other: "Trace") -> None:
        """Append ``other``'s spans (and their edges and counts)."""
        base = len(self.spans)
        for s in other.spans:
            parent = None if s[3] is None else s[3] + base
            self.spans.append([s[0], s[1], s[2], parent, s[4]])
        for parent, kids in other.children.items():
            self.children[parent + base].extend(k + base for k in kids)
        for k, v in other.counts.items():
            self.counts[k + base] = v

    def roots_by_rid(self, name: str) -> Dict[object, int]:
        return {
            s[4]: i
            for i, s in enumerate(self.spans)
            if s[0] == name and s[3] is None and s[2] is not None
        }

    def self_time(self, idx: int) -> float:
        s = self.spans[idx]
        start, end = s[1], s[2]
        iv = sorted(
            (max(start, self.spans[c][1]), min(end, self.spans[c][2]))
            for c in self.children.get(idx, ())
            if self.spans[c][2] is not None
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in iv:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (end - start) - covered

    def op(self, root: int) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer self seconds and per-layer counts under one root
        (each span once, even if linked from two waiters of the op)."""
        times: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        seen = set()
        todo = [root]
        while todo:
            i = todo.pop()
            if i in seen or self.spans[i][2] is None:
                continue
            seen.add(i)
            name = self.spans[i][0]
            times[name] += self.self_time(i)
            times[name + "#total"] += self.spans[i][2] - self.spans[i][1]
            for key, v in self.counts.get(i, {}).items():
                counts[f"{name}.{key}"] += v
            todo.extend(self.children.get(i, ()))
        return times, counts


def attributed(times: Dict[str, float]) -> float:
    """Seconds of an operation that some work layer covers."""
    return sum(
        v for k, v in times.items()
        if "#" not in k and k not in CONTAINERS
    )
