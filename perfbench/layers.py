"""Per-layer metrics derived from a trace.

Every traced run reports the same names; a layer the workload never
enters reads 0.  Times are milliseconds of self time per operation
(what the span covered minus what its child layers covered), so the
layer figures of one operation add up to its end-to-end time less the
unattributed share.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional

from tracing import Trace, attributed

#: Figures a workload measures outside the trace (stats deltas, byte
#: counts, generator lateness); 0 where the workload has no such layer.
MEASURED = (
    "engine.registry_builds_per_read",
    "service.wire.request_bytes",
    "service.wire.response_bytes",
    "service.queue.batch_size_mean",
    "service.queue.rejected",
    "resilience.wal.fsyncs_per_insert",
    "resilience.wal.fsync_ms",
    "resilience.wal.bytes_per_point",
    "trace.overhead_frac",
)

#: Engine-clustered phases that get their own prune figure.
PHASES = ("expected_nn", "nonzero", "threshold", "mc_pnn", "point")


def summarize(trace: Trace, roots: Iterable[int], rows: int = 0) -> Dict:
    """Sum self times and counts over the operations under ``roots``."""
    out = {
        "ops": 0,
        "rows": rows,
        "e2e": 0.0,
        "attributed": 0.0,
        "time": defaultdict(float),
        "count": defaultdict(float),
    }
    for root in roots:
        times, counts = trace.op(root)
        s = trace.spans[root]
        out["ops"] += 1
        out["e2e"] += s[2] - s[1]
        out["attributed"] += attributed(times)
        for k, v in times.items():
            out["time"][k] += v
        for k, v in counts.items():
            out["count"][k] += v
    return out


def _per_op_ms(agg: Optional[Dict], layer: str) -> float:
    if not agg or not agg["ops"]:
        return 0.0
    return 1e3 * agg["time"].get(layer, 0.0) / agg["ops"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    main: Dict,
    *,
    phases: Optional[Dict[str, Dict]] = None,
    recovery: Optional[Dict] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The full per-layer metric set of one traced run.

    ``main`` summarises the workload's primary operations; ``phases``
    the engine-clustered phases by name; ``recovery`` the reopen
    operations of durable-mixed; ``extra`` figures measured outside the
    trace (stats deltas, byte counts, generator lateness, overhead).
    """
    c = main["count"]
    dual_rows = c.get("core.dual_tree.rows", 0.0)
    out = {
        "core.dual_tree.prune_ms": _per_op_ms(main, "core.dual_tree"),
        "core.dual_tree.node_pairs_per_row": _ratio(
            c.get("core.dual_tree.node_pairs_visited", 0.0), dual_rows
        ),
        "core.dual_tree.survivors_per_row": _ratio(
            c.get("core.dual_tree.survivors", 0.0), dual_rows
        ),
        "core.dual_tree.refine_yield": _ratio(
            c.get("core.dual_tree.survivors", 0.0),
            c.get("core.dual_tree.refined_pairs", 0.0),
        ),
        "core.evaluators.eval_ms": _per_op_ms(main, "core.evaluators"),
        "core.evaluators.pairs_per_row": _ratio(
            c.get("core.evaluators.pairs", 0.0), main["rows"]
        ),
        "core.quantification.sweep_ms": _per_op_ms(main, "core.quantification"),
        "core.monte_carlo.query_ms": _per_op_ms(main, "core.monte_carlo"),
        "core.planner.unattributed_ms": _per_op_ms(main, "engine.query"),
        "engine.query_ms": _per_op_ms(main, "engine.query#total"),
        "engine.rebuild_ms": _per_op_ms(main, "engine.rebuild"),
        "service.server.overhead_ms": _per_op_ms(main, "client.request"),
        "service.wire.decode_ms": _per_op_ms(main, "service.wire.decode"),
        "service.wire.encode_ms": _per_op_ms(main, "service.wire.encode"),
        "service.queue.wait_ms": _per_op_ms(main, "service.queue"),
        "resilience.wal.append_ms": _per_op_ms(main, "resilience.wal.append"),
        "resilience.wal.scan_ms": _per_op_ms(recovery, "resilience.wal.scan"),
        "io.points_to_wire_ms": _per_op_ms(main, "io.points_to_wire"),
        "io.points_from_wire_ms": _per_op_ms(recovery, "io.points_from_wire"),
        "unattributed_frac": _ratio(
            main["e2e"] - main["attributed"], main["e2e"]
        ),
    }
    for name in PHASES:
        out[f"core.dual_tree.prune_ms.{name}"] = _per_op_ms(
            (phases or {}).get(name), "core.dual_tree"
        )
    out.update(dict.fromkeys(MEASURED, 0.0))
    out.update(extra or {})
    return out
