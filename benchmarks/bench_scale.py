"""Scale benchmark: the paper's replica counts, built and run on the simulator.

Two points, written to ``BENCH_scale.json``:

* **build** -- ``Deployment.build`` at the paper's largest topology
  (15 shards x 28 replicas, 600k YCSB records): wall time and the process's
  peak RSS (interpreter and imports included).  Every shard's preload is one
  read-only ``PartitionImage`` shared by its 28 replicas, so the build costs
  O(records), not O(replicas x records).  Gate: at most 3 s and 400 MB.
* **run** -- 5 shards x 28 replicas, 60 transactions, 30 % cross-shard,
  seed 2022, the ``repro demo`` closed loop on the simulator: events/s and
  wall time, the reference point for making the simulator fast at n = 28.
  Its per-type ``message_counts`` and every shard's ledger head digest must
  equal ``baselines/scale_5x28.json``: a speed-up must not change what the
  protocol does.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke --output BENCH_scale.json
    PYTHONPATH=src python benchmarks/bench_scale.py --record   # rewrite the baseline

``--smoke`` runs the two points above and exits 1 unless every gate holds.
Without it the run point is repeated three times and the median events/s is
reported.  The build point runs first, so the peak RSS is the build's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import SystemConfig, WorkloadConfig  # noqa: E402
from repro.engine import Deployment, WorkloadDriver  # noqa: E402
from repro.workloads.ycsb import YcsbWorkloadGenerator  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "baselines" / "scale_5x28.json"

BUILD = dict(shards=15, replicas=28, num_records=600_000)
BUILD_MAX_S = 3.0
BUILD_MAX_RSS_MB = 400.0

RUN = dict(shards=5, replicas=28, transactions=60, cross_shard=0.3, seed=2022, clients=2)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build_point() -> dict:
    """Wall time and peak RSS of building the paper's largest deployment."""
    config = SystemConfig.uniform(
        BUILD["shards"],
        BUILD["replicas"],
        workload=WorkloadConfig(num_records=BUILD["num_records"]),
    )
    started = time.perf_counter()
    deployment = Deployment.build(config, backend="sim")
    wall_s = time.perf_counter() - started
    peak_rss_mb = _peak_rss_mb()
    replicas = len(deployment.replicas)
    deployment.close()
    del deployment
    gc.collect()
    return {
        **BUILD,
        "replicas_built": replicas,
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": round(peak_rss_mb, 1),
    }


def run_point() -> dict:
    """The ``repro demo`` closed loop at 5 x 28; events/s and what it sent."""
    workload = WorkloadConfig(
        num_records=1_000,
        cross_shard_fraction=RUN["cross_shard"],
        batch_size=1,
        num_clients=RUN["clients"],
        seed=RUN["seed"],
    )
    config = SystemConfig.uniform(RUN["shards"], RUN["replicas"], workload=workload)
    deployment = Deployment.build(
        config, backend="sim", num_clients=RUN["clients"], batch_size=1, seed=RUN["seed"]
    )
    try:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=RUN["seed"]
        )
        driver = WorkloadDriver(deployment, generator, total=RUN["transactions"], window=2)
        started = time.perf_counter()
        result = driver.run(timeout=300.0)
        wall_s = time.perf_counter() - started
        events = deployment.scheduler.processed_events
        heads = {
            str(shard): deployment.replica(shard, 0).ledger.head.block_hash().hex()
            for shard in config.shard_ids
        }
    finally:
        deployment.close()
    return {
        **RUN,
        "completed": result.completed,
        "ledgers_consistent": result.ledgers_consistent,
        "wall_s": round(wall_s, 3),
        "events": events,
        "events_per_s": round(events / wall_s, 1),
        "message_counts": dict(sorted(result.message_counts.items())),
        "ledger_heads": heads,
    }


def run_benchmark(smoke: bool = False) -> dict:
    build = build_point()
    runs = [run_point() for _ in range(1 if smoke else 3)]
    run = runs[0]
    run["events_per_s"] = statistics.median(r["events_per_s"] for r in runs)
    run["wall_s"] = statistics.median(r["wall_s"] for r in runs)
    baseline = json.loads(BASELINE_PATH.read_text())
    verdicts = {
        "build_within_time": build["wall_s"] <= BUILD_MAX_S,
        "build_within_memory": build["peak_rss_mb"] <= BUILD_MAX_RSS_MB,
        "run_completed": run["completed"] == RUN["transactions"]
        and bool(run["ledgers_consistent"]),
        "run_repeats_identical": all(
            (r["events"], r["message_counts"], r["ledger_heads"])
            == (run["events"], run["message_counts"], run["ledger_heads"])
            for r in runs
        ),
        "message_counts_match_baseline": run["message_counts"] == baseline["message_counts"],
        "ledger_heads_match_baseline": run["ledger_heads"] == baseline["ledger_heads"],
    }
    verdicts["ok"] = all(verdicts.values())
    return {
        "mode": "smoke" if smoke else "full",
        "host_cpus": os.cpu_count(),
        "build": build,
        "run": run,
        "verdicts": verdicts,
    }


def record_baseline() -> None:
    run = run_point()
    BASELINE_PATH.write_text(
        json.dumps(
            {
                "params": RUN,
                "message_counts": run["message_counts"],
                "ledger_heads": run["ledger_heads"],
            },
            indent=2,
        )
        + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="one run repeat; CI gate")
    parser.add_argument("--output", type=Path, default=Path("BENCH_scale.json"))
    parser.add_argument(
        "--record",
        action="store_true",
        help="rewrite the run point's message-count and ledger-head baseline, then exit",
    )
    args = parser.parse_args(argv)
    if args.record:
        record_baseline()
        print(f"wrote {BASELINE_PATH}")
        return 0
    report = run_benchmark(smoke=args.smoke)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    build, run = report["build"], report["run"]
    print(f"wrote {args.output}")
    print(
        f"build {build['shards']}x{build['replicas']}, {build['num_records']} records:"
        f" {build['wall_s']} s, peak RSS {build['peak_rss_mb']} MB"
        f" (gates {BUILD_MAX_S} s, {BUILD_MAX_RSS_MB} MB)"
    )
    print(
        f"run {run['shards']}x{run['replicas']}, {run['transactions']} txns:"
        f" {run['completed']} completed, {run['events']} events in {run['wall_s']} s"
        f" = {run['events_per_s']} events/s"
    )
    failed = [name for name, ok in report["verdicts"].items() if not ok and name != "ok"]
    print(f"verdict: {'OK' if not failed else 'FAIL ' + ', '.join(failed)}")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
