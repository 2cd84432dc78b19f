"""End-to-end benchmark of the secret-sharing DBMS: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; see ``perfbench/README.md`` for what each metric means, why each
workload exists, and which layer metric should move which end-to-end
metric.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A wrong answer (or a failed self-check of the traced run) prints
``"correct": false`` and exits with code 1.  The program is imported from
``src/`` next to this directory; without it the command exits with code 2
and prints no result.

``--scale tiny`` and ``--inject-tamper`` exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Which metrics the result line carries (``end_to_end`` with
#: ``--trace 0``, ``per_layer`` with ``--trace 1``); every other metric
#: computed here is printed above it and kept in ``detail``.
SPEC = HERE.parent / "BENCHMARK.json"

#: Layer span name -> per-layer metric name (share of client busy time).
LAYER_METRICS = {
    "sqlengine.parse": "sqlengine.parse_pct",
    "client.rewrite": "client.rewrite_pct",
    "client.reconstruct": "client.reconstruct_pct",
    "core.share": "core.share_pct",
    "core.op_split": "core.op_split_pct",
    "core.op_reconstruct": "core.op_reconstruct_pct",
    "core.modular_reconstruct": "core.modular_reconstruct_pct",
    "sim.wire_sizing": "sim.wire_sizing_pct",
    "providers.fanout": "providers.fanout_self_pct",
    "service.admission_wait": "service.admission_wait_pct",
    "txn.execute": "txn.execute_pct",
    "bench.op": "trace.unattributed_pct",
}
HANDLE_METHODS = (
    "select", "scan", "aggregate", "aggregate_group", "join", "insert_many",
    "increment_rows", "update_rows", "delete_rows", "batch", "txn_prepare",
    "txn_commit",
)

#: Wrappers that must fire on a workload, from the interaction list in
#: README.md; a wrapper that misses a by-name import site would read 0.
REQUIRED_SPANS = {
    "analytics": (
        "sqlengine.parse", "client.rewrite", "client.reconstruct",
        "core.op_reconstruct", "core.modular_reconstruct", "sim.wire_sizing",
        "providers.fanout", "providers.handle.select", "providers.handle.aggregate",
        "providers.handle.aggregate_group", "providers.handle.join",
    ),
    "oltp": (
        "sqlengine.parse", "client.rewrite", "client.reconstruct", "core.share",
        "core.op_split", "sim.wire_sizing", "providers.fanout",
        "service.admission_wait", "txn.execute", "providers.handle.txn_prepare",
        "providers.handle.txn_commit",
    ),
    "ingest": (
        "core.share", "core.op_split", "sim.wire_sizing", "providers.fanout",
        "providers.handle.insert_many",
    ),
}
#: Program counters that must move on a workload (their ratio's base).
REQUIRED_STATS = {
    "analytics": ("rowcache.row_lookups", "rowcache.query_lookups",
                  "kernels.weight_lookups", "providers.compares"),
    "oltp": ("rowcache.row_lookups", "plancache.lookups", "batcher.rounds",
             "txn.committed"),
    "ingest": (),
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(samples: List[float], q: float) -> Dict[str, float]:
    """A latency percentile in ms with the sample count behind it."""
    if not samples:
        return {"ms": None, "samples": 0, "beyond": 0}
    return {
        "ms": percentile(samples, q) * 1000.0,
        "samples": len(samples),
        "beyond": round(len(samples) * (100.0 - q) / 100.0, 1),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------ end-to-end --


def end_to_end(workload: str, outcome) -> Tuple[Dict[str, Tuple[float, str]], Dict]:
    import statistics

    from statements import SCAN_CLASSES

    latencies = [seconds for _, seconds in outcome.samples]
    counted = outcome.counted
    # an op is a row on ingest
    ops = counted["ops"] * len(outcome.samples) // 2 if workload == "ingest" else len(latencies)
    ops_per_s = ops / outcome.wall_s
    metrics = {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ratio(outcome.attempted - outcome.failed, outcome.attempted), "frac"),
        "ops_per_s": (ops_per_s, "1/s"),
        "p50_ms": (percentile(latencies, 50) * 1000.0, "ms"),
        "p95_ms": (percentile(latencies, 95) * 1000.0, "ms"),
        "cpu_ms_per_op": (outcome.cpu_s * 1000.0 / ops, "ms"),
        "cpu_per_op_refs": (outcome.cpu_s / ops / statistics.mean(outcome.reference_s), "refs"),
        "wire_bytes_per_op": (counted["bytes"] / counted["ops"], "B"),
        "modelled_ms_per_op": (counted["modelled_s"] * 1000.0 / counted["ops"], "ms"),
    }
    by_kind: Dict[str, List[float]] = {}
    for kind, seconds in outcome.samples:
        by_kind.setdefault(kind, []).append(seconds)
    detail = {
        "failed_frac": ratio(outcome.failed, outcome.attempted),
        "setup_runs_s": outcome.setup_s,
        "p50": tail(latencies, 50),
        "p95": tail(latencies, 95),
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "counted": counted,
        "rows_returned": outcome.rows_returned,
        "reference_runs": len(outcome.reference_s),
        "reference_ms_mean": statistics.mean(outcome.reference_s) * 1000.0,
        "aside_cpu_s": outcome.aside_cpu_s,
        "per_class_p50_ms": {
            kind: percentile(values, 50) * 1000.0 for kind, values in sorted(by_kind.items())
        },
    }
    if workload == "analytics":
        scans = [s for k, s in outcome.samples if k in SCAN_CLASSES]
        aggs = [s for k, s in outcome.samples if k not in SCAN_CLASSES]
        detail.update(
            scan_p50=tail(scans, 50), scan_p90=tail(scans, 90),
            agg_p50=tail(aggs, 50), agg_p90=tail(aggs, 90),
        )
    elif workload == "oltp":
        reads = by_kind.get("read", [])
        writes = [s for k, s in outcome.samples if k != "read"]
        detail.update(
            read_p50=tail(reads, 50), read_p99=tail(reads, 99),
            write_p50=tail(writes, 50), write_p99=tail(writes, 99),
        )
    else:
        detail["rows_per_s"] = ops_per_s
        detail["table_load_ms"] = {k: v[0] * 1000.0 for k, v in by_kind.items()}
    return metrics, detail


# -------------------------------------------------------------- per-layer --


def per_layer(workload: str, outcome) -> Tuple[Dict[str, Tuple[float, str]], Dict, List[str]]:
    from spans import attribute

    recorder = outcome.recorder
    layer_s, busy, orphans = attribute(recorder.spans)
    metrics: Dict[str, Tuple[float, str]] = {
        name: (100.0 * layer_s.get(span, 0.0) / busy, "%")
        for span, name in LAYER_METRICS.items()
    }
    handled = {m: 0.0 for m in HANDLE_METHODS + ("other",)}
    for span, seconds in layer_s.items():
        if span.startswith("providers.handle."):
            method = span[len("providers.handle."):]
            handled[method if method in handled else "other"] += seconds
    for method, seconds in handled.items():
        metrics[f"providers.handle_pct.{method}"] = (100.0 * seconds / busy, "%")

    stats = outcome.stats_delta
    counters = outcome.telemetry_counters
    a, b = outcome.phases["A"], outcome.phases["B"]

    def counter_sum(prefix: str, contains: str = "") -> float:
        return sum(
            value for key, value in counters.items()
            if (key == prefix or key.startswith(prefix + "{")) and contains in key
        )

    metrics.update(
        {
            "client.rows_reconstructed": (recorder.counts["client.rows_reconstructed"], "count"),
            "core.cells_shared": (recorder.counts["core.cells_shared"], "count"),
            "sim.bytes": (recorder.counts["sim.bytes"], "B"),
            "sim.messages": (recorder.counts["sim.messages"], "count"),
            "service.plancache_hit_ratio": (
                ratio(stats.get("plancache.hits", 0), stats.get("plancache.lookups", 0)), "ratio"),
            "service.batch_rpcs_per_round": (
                ratio(stats.get("batcher.tickets", 0), stats.get("batcher.rounds", 0)), "ratio"),
            "client.rowcache_hit_ratio": (
                ratio(stats["rowcache.row_hits"], stats["rowcache.row_lookups"]), "ratio"),
            "client.querycache_hit_ratio": (
                ratio(stats["rowcache.query_hits"], stats["rowcache.query_lookups"]), "ratio"),
            "core.weight_cache_hit_ratio": (
                ratio(stats["kernels.weight_hits"], stats["kernels.weight_lookups"]), "ratio"),
            "providers.rows_examined_per_row_returned": (
                ratio(stats["providers.compares"], b["rows_returned"]), "ratio"),
            "providers.vector_dispatch_ratio": (
                ratio(counter_sum("provider.kernel.dispatch", "backend=numpy"),
                      counter_sum("provider.kernel.dispatch")), "ratio"),
            "providers.retries": (counter_sum("fanout.retries"), "count"),
            "providers.failovers": (counter_sum("fanout.failovers"), "count"),
            "txn.wal_fsyncs_per_commit": (
                ratio(stats.get("txn.wal_fsyncs", 0), stats.get("txn.committed", 0)), "ratio"),
            "txn.group_size_mean": (
                ratio(stats.get("txn.txns_flushed", 0), stats.get("txn.groups", 0)), "ratio"),
            "txn.wal_bytes_per_commit": (
                ratio(stats.get("txn.wal_bytes", 0), stats.get("txn.committed", 0)), "B"),
            "trace.overhead_ratio": (
                ratio(a["measured_ops"] * b["wall_s"], b["measured_ops"] * a["wall_s"]), "ratio"),
            "trace.spans": (len(recorder.spans), "count"),
        }
    )

    problems = []
    if recorder.counts["sim.bytes"] != b["bytes"] or recorder.counts["sim.messages"] != b["messages"]:
        problems.append(
            f"wrapped sim bytes/messages {recorder.counts['sim.bytes']}/"
            f"{recorder.counts['sim.messages']} != NetworkStats {b['bytes']}/{b['messages']}"
        )
    if counter_sum("net.bytes") != b["bytes"] or counter_sum("net.messages") != b["messages"]:
        problems.append(
            f"telemetry net.bytes/messages {counter_sum('net.bytes')}/"
            f"{counter_sum('net.messages')} != NetworkStats {b['bytes']}/{b['messages']}"
        )
    if workload in ("analytics", "ingest"):
        for key in ("bytes", "messages", "modelled_s"):
            if a[key] != b[key]:
                problems.append(f"untraced {key} {a[key]!r} != traced {b[key]!r}")
    for span in REQUIRED_SPANS[workload]:
        if recorder.calls.get(span, 0) == 0:
            problems.append(f"coverage: wrapper {span} never fired on {workload}")
    for key in REQUIRED_STATS[workload]:
        if not stats.get(key):
            problems.append(f"coverage: counter {key} did not move on {workload}")
    detail = {
        "layer_seconds": layer_s,
        "busy_s": busy,
        "orphan_spans": orphans,
        "calls": dict(sorted(recorder.calls.items())),
        "phases": outcome.phases,
        "stats_delta": stats,
    }
    return metrics, detail, problems


# ------------------------------------------------------------------- main --


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("analytics", "oltp", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-tamper", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    with open(SPEC) as spec:
        gated = [m["name"] for m in json.load(spec)["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(SRC))
    import workloads
    from repro.providers.cluster import shutdown_shared_executor

    sizes = (workloads.TINY if args.scale == "tiny" else workloads.SIZES)[args.workload]
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    try:
        outcome = workloads.run(
            args.workload, sizes, args.seed, args.seconds, bool(args.trace),
            args.inject_tamper, str(workdir),
        )
    finally:
        shutdown_shared_executor(wait=True)

    problems = list(outcome.mismatches)
    if args.trace:
        metrics, detail, checks = per_layer(args.workload, outcome)
        problems.extend(checks)
    else:
        metrics, detail = end_to_end(args.workload, outcome)
    detail = {
        "environment": workloads.environment(args.workload, sizes, args.seed, args.seconds),
        **detail,
        "errors": outcome.errors[:20],
        "problems": problems[:20],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(workdir / f"{stem}.json", "w") as out:
        json.dump({"metrics": metrics, "detail": detail}, out, indent=1, default=str)
    if args.trace:
        outcome.recorder.write(workdir / f"{stem}-spans.json")

    env = detail["environment"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"backend={env['kernel_backend']} nproc={env['nproc']} n={env['n_providers']} "
        f"k={env['threshold']} rows={env['employees_rows']}+{env['managers_rows']}"
    )
    for name, (value, unit) in metrics.items():
        tail_of = detail.get(name[: -len("_ms")]) if name in ("p50_ms", "p95_ms") else None
        counts = f"  (n={tail_of['samples']}, beyond={tail_of['beyond']})" if tail_of else ""
        print(f"  {name:42s} {value:14.4f} {unit}{counts}")
    if not args.trace:
        print(f"  {'failed_frac':42s} {detail['failed_frac']:14.4f} frac")
    if "rows_per_s" in detail:
        print(f"  {'rows_per_s':42s} {detail['rows_per_s']:14.4f} 1/s")
    for name in ("scan_p50", "scan_p90", "agg_p50", "agg_p90",
                 "read_p50", "read_p99", "write_p50", "write_p99"):
        if name in detail and detail[name]["samples"]:
            t = detail[name]
            print(f"  {name + '_ms':42s} {t['ms']:14.4f} ms  (n={t['samples']}, beyond={t['beyond']})")
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")
    print(f"detail {json.dumps(detail, default=str, sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in gated
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
