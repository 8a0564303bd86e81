#!/usr/bin/env python3
"""The repo's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload engine-clustered --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures half the time untraced and half with spans
around every layer entry point, and reports the per-layer metrics
(plus the tracing overhead and the unattributed share).  Gated latencies
and rates are medians over windows of the run; in-process work and
set-ups are timed in CPU time (``common.cpu_clock``) and host-scaled by
a fixed reference kernel run beside them (``common.Windows``).  Metric
names, units and bounds live in ``BENCHMARK.json`` at the repo root; workload
parameters and the end-to-end metric each layer metric should move
live in ``perfbench/provenance.json``.

Detail lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check makes ``correct`` false and the exit code 1.  Run from the repo
root; the library is imported from ``src/`` of that checkout only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

import common
from common import ROOT, SRC

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("engine-clustered", "http-point", "durable-mixed")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _drift(spec, prov) -> list:
    """Names or units that differ between BENCHMARK.json and
    provenance.json (the two must describe the same metrics)."""
    out = []
    for kind in ("end_to_end", "per_layer"):
        mine = {m["name"]: m["unit"] for m in spec[kind]}
        theirs = {k: v["unit"] for k, v in prov[kind].items()}
        if mine != theirs:
            out.append(kind)
    if [w["name"] for w in spec["workloads"]] != list(prov["workloads"]):
        out.append("workloads")
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # A SIGTERM (a timeout, say) unwinds like an exception, so the
    # workloads' finally blocks stop the daemons they started.
    signal.signal(signal.SIGTERM, _terminate)
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no library sources at {SRC}; run from a full "
            f"checkout of the repo",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    prov = _load(os.path.join(HERE, "provenance.json"))
    drift = _drift(spec, prov)
    if drift:
        print(f"perfbench: BENCHMARK.json and provenance.json disagree on {drift}",
              file=sys.stderr)
        return 3
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    if args.workload == "engine-clustered":
        import engine_clustered as workload
    elif args.workload == "http-point":
        import http_point as workload
    else:
        import durable_mixed as workload

    report = common.Report(args.workload, args.seed)
    try:
        values = workload.run(args.seed, args.seconds, bool(args.trace), report)
    finally:
        common.cleanup()

    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        print(
            f"perfbench: metric set does not match BENCHMARK.json "
            f"(missing {missing}, unexpected {extra})",
            file=sys.stderr,
        )
        return 3
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    for k in bad:
        report.fail(f"metric {k} is not finite")
        values[k] = 0.0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in report.detail.items():
        print(f"  detail {name} = {value:.6g} {unit}")
    print(
        f"  operations attempted {report.attempted} "
        f"succeeded {report.attempted - report.failed} failed {report.failed}"
    )
    for why in report.problems:
        print(f"  FAILED {why}")
    for name in units:
        moves = prov[kind][name].get("moves")
        hint = f"  (moves {', '.join(moves)})" if moves else ""
        print(f"  metric {name} = {values[name]:.6g} {units[name]}{hint}")
    correct = report.failed == 0 and report.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, report.attempted),
                "failed": report.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
