"""Host-time benchmark of the repro MM-DBMS.

Usage (from the repository root)::

    python3 perfbench/run.py --workload debit_credit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a run whose odd rounds are
traced.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--tiny``
shrinks every size for a fast self-check (see selfcheck.py).  NOTES.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["debit_credit", "debit_credit_condensed", "read_mostly", "command_replay"]


def hermetic_environment() -> None:
    """Drop every ``REPRO_*`` switch and put this checkout's ``src``
    first on the import path; fail if the library is not there."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {source}")
    sys.path[:0] = [str(source), str(HERE)]


def per_layer(tracer, samples) -> dict[str, tuple[float, str]]:
    from tracing import LAYERS

    every = tracer.totals()
    working = tracer.totals(working_only=True)
    txns = max(1, samples.traced_txns)
    metrics: dict[str, tuple[float, str]] = {}

    def ratio(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    def self_per_call(metric, span):
        calls, _, own, _ = every[span]
        metrics[metric] = (ratio(own, calls, 1e6), "us")

    def self_per_unit(metric, span, unit):
        _, units, own, _ = working[span]
        metrics[metric] = (ratio(own, units, 1e6), unit)

    for metric, span in [
        ("db.read_us", "db.read"),
        ("db.update_us", "db.update"),
        ("db.insert_us", "db.insert"),
        ("db.lookup_us", "db.lookup"),
        ("db.range_us", "db.range"),
        ("txn.commit_us", "txn.commit"),
        ("concurrency.acquire_us", "concurrency.acquire"),
        ("wal.slb_append_us", "wal.slb_append"),
        ("wal.slt_deposit_us", "wal.slt_deposit"),
        ("wal.seal_page_us", "wal.seal_page"),
        ("wal.log_append_page_us", "wal.log_append_page"),
        ("wal.log_read_page_us", "wal.log_read_page"),
        ("checkpoint.image_write_us", "checkpoint.image_write"),
        ("checkpoint.image_read_us", "checkpoint.image_read"),
        ("index.hash_search_us", "index.hash_search"),
        ("index.hash_insert_us", "index.hash_insert"),
        ("index.ttree_search_us", "index.ttree_search"),
        ("index.ttree_range_us", "index.ttree_range"),
        ("index.ttree_insert_us", "index.ttree_insert"),
    ]:
        self_per_call(metric, span)
    self_per_unit("wal.slb_drain_us", "wal.slb_drain", "us/record")
    self_per_unit("recovery.sort_us_per_record", "recovery.sort", "us/record")
    self_per_unit("checkpoint.process_us", "checkpoint.process", "us/ckpt")
    calls, pages, own, _ = working["recovery.condense"]
    metrics["recovery.condense_slice_us"] = (ratio(own, calls, 1e6), "us")
    metrics["recovery.pages_per_slice"] = (ratio(pages, calls), "pages")
    redo_own = every["recovery.redo"][2] + every["recovery.redo_resilient"][2]
    metrics["recovery.redo_us_per_record"] = (
        ratio(redo_own, every["recovery.redo"][1], 1e6),
        "us/record",
    )
    # Phases made of other layers' calls: inclusive time.
    calls, _, _, inclusive = every["recovery.phase1"]
    metrics["recovery.phase1_ms"] = (ratio(inclusive, calls, 1e3), "ms")
    calls, _, _, inclusive = working["recovery.partition_restore"]
    metrics["recovery.partition_restore_us"] = (ratio(inclusive, calls, 1e6), "us")
    calls, replayed, _, inclusive = every["recovery.command_replay"]
    metrics["recovery.command_replay_ms"] = (ratio(inclusive, calls, 1e3), "ms")
    metrics["recovery.commands_replayed"] = (ratio(replayed, calls), "1/restart")
    metrics["engine.pump_us"] = (ratio(every["engine.pump"][3], txns, 1e6), "us/txn")

    appends = every["wal.slb_append"][0]
    metrics["txn.lock_calls_per_txn"] = (ratio(tracer.counts.get("txn.lock", 0), txns), "1/txn")
    metrics["txn.redo_records_per_txn"] = (ratio(appends, txns), "1/txn")
    metrics["concurrency.acquire_calls_per_txn"] = (
        ratio(every["concurrency.acquire"][0], txns),
        "1/txn",
    )
    metrics["concurrency.conflicts"] = (tracer.counts.get("concurrency.conflicts", 0), "count")
    metrics["wal.encode_calls_per_record"] = (
        ratio(tracer.counts.get("wal.encode", 0), appends),
        "1/record",
    )
    metrics["checkpoint.per_ktxn"] = (ratio(working["checkpoint.process"][1], txns, 1e3), "1/ktxn")
    for span, (calls, _, _, _) in every.items():
        metrics[f"{span}_calls"] = (calls, "count")

    total_own = sum(entry[2] for entry in every.values())
    for layer in LAYERS:
        own = sum(entry[2] for span, entry in every.items() if tracer.layer_of[span] == layer)
        metrics[f"share.{layer}"] = (ratio(own, total_own, 100.0), "%")

    traced_tps = statistics.median(r.txn_per_s for r in samples.rounds if r.traced)
    untraced_tps = statistics.median(r.txn_per_s for r in samples.rounds if not r.traced)
    metrics["trace.txn_per_s_traced"] = (traced_tps, "1/s")
    metrics["trace.txn_per_s_untraced"] = (untraced_tps, "1/s")
    metrics["trace.overhead_pct"] = (ratio(untraced_tps - traced_tps, untraced_tps, 100.0), "%")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    probes = [probe for r in samples.rounds for probe in r.probes_s]
    metrics["host.probe_us"] = (statistics.median(probes) * 1e6, "us")

    committed = max(1, samples.committed)
    metrics["sim.main_cpu_s_per_txn"] = (samples.main_cpu_s / committed, "s/txn")
    metrics["sim.recovery_cpu_s_per_txn"] = (samples.recovery_cpu_s / committed, "s/txn")
    metrics["sim.catalog_restore_s"] = (statistics.median(samples.sim_catalog_restore_s), "s")
    metrics["sim.restart_eager_s"] = (statistics.median(samples.sim_restart_eager_s), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    args = parser.parse_args(argv)

    hermetic_environment()
    import harness
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    samples = harness.run(args.workload, args.seed, args.seconds, tiny=args.tiny, tracer=tracer)
    if args.trace:
        metrics = per_layer(tracer, samples)
        tracer.write(ROOT / ".perfbench-out" / f"trace-{args.workload}.json.gz")
    else:
        metrics = harness.end_to_end(samples)

    for problem in samples.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": samples.failed == 0,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
