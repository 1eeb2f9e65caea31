"""Pipeline benchmark: protocol throughput vs proposal-window depth k.

The earlier perf PRs attacked *machinery* speed (serialization, MACs, the
event kernel); this one attacks *protocol* throughput: a primary with
``PipelineConfig.depth = k`` runs consensus on up to k sequence numbers
concurrently, every proposer goes through one admission point, and a slot is
free again at local commit, so WAN round-trips overlap instead of
serialising.  Four checks, all measured:

* **sweep** -- a figure-8-style cross-shard workload on the simulator at
  k in {1, 2, 4, 8}; the headline is protocol throughput at k=4 over the
  classic k=1.  The closed loop is latency-bound (arrivals too slow to fill
  a batch, so the pump ships eagerly), hence every k >= 2 must clear the
  same >= 1.5x gate and hold the eager pump's recorded plateau (no
  regression), read as the mean over a fixed seed panel because one
  closed-loop run is a chaotic reading.
* **open loop** -- Poisson arrivals at fixed offered rates against the same
  topology (arrivals fill a batch inside ``target_queue_delay``, so only
  full batches and timer flushes go out).  Every depth >= 2 must carry the
  offered load at the saturating rate (>= 0.98x), with batches averaging
  >= 0.75x ``max_batch`` (no crumbs) and ``peak_open_slots <= depth`` (the
  window is a bound for Forward-driven proposals too).
* **identity** -- k=1 must reproduce the pre-PR behaviour *byte-identically*:
  the run is replayed with the exact parameters recorded in
  ``baselines/pipeline_k1_chains.json`` and every block hash of every shard
  chain must match.
* **backends** -- ledgers stay consistent under a pipelined window (k=4) on
  both execution backends (sim, socket).

Writes ``BENCH_pipeline.json``::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --output BENCH_pipeline.json
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke   # CI gate

The open-loop sweep isolates pipeline capacity from unrelated ceilings: it
uses a large key space (no artificial lock contention at saturation depth)
and fault timers well above the injection horizon (a saturated queue must
not read as a faulty primary -- view-change churn is a correctness topic,
measured elsewhere).  Depth=1 runs the legacy propose-on-fill path (no
window, batches up to the replica's ``batch_size``); its open-loop numbers
are reported as the reference column, not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import PipelineConfig, SystemConfig, TimerConfig, WorkloadConfig  # noqa: E402
from repro.engine import (  # noqa: E402
    BACKENDS,
    Deployment,
    PoissonSaturationDriver,
    WorkloadDriver,
)
from repro.txn.transaction import TransactionBuilder  # noqa: E402
from repro.workloads.ycsb import YcsbWorkloadGenerator  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "baselines" / "pipeline_k1_chains.json"

DEFAULTS = dict(
    shards=3,
    replicas=4,
    batch_size=100,
    clients_per_shard=2,
    cross_shard=0.3,
    seed=2022,
    total=360,
    window=4,
    depths=(1, 2, 4, 8),
)

SMOKE_OVERRIDES = dict(depths=(1, 4))

#: Required closed-loop protocol-throughput ratio of every k >= 2 over k=1
#: (the CI gate; k=4 is the headline).
SPEEDUP_GATE = 1.5

#: Seeds of the closed-loop no-regression panel.  One closed-loop run is a
#: chaotic reading: the shared generator hands the next transaction to
#: whichever client completes first, so a forwarded batch that waits one local
#: round (~1 ms) for a window slot re-deals the rest of the workload.  The same
#: code spreads over 347-429 tps across seeds; paired per-seed differences
#: against the unbounded window are +-4 % with no sign (38 seeds: +0.6 %,
#: -0.1 %, -0.0 % at k=2/4/8).  An 8-seed mean resolves about 1 %.
CLOSED_LOOP_PANEL_SEEDS = tuple(range(2022, 2030))

#: Closed-loop plateau the eager pump recorded before the window bounded
#: Forward-driven proposals: mean over the panel at any depth >= 2 (400.06;
#: the seed-2022 run alone read 406.4).  Every pipelined depth must still
#: reach it, to within what the panel can resolve.
CLOSED_LOOP_FLOOR_TPS = 400.0
CLOSED_LOOP_TOLERANCE = 0.01

#: Open-loop gate: share of the saturating offered rate every depth >= 2
#: must sustain inside the injection window.
OPEN_LOOP_SUSTAINED_FRACTION = 0.98

#: Open-loop gate: mean proposed batch size at k >= 2, as a share of
#: ``max_batch``.  Under sustained load only full batches and timer flushes
#: leave the primary, so the average sits just below a full batch.
OPEN_LOOP_MIN_BATCH_FILL = 0.75

OPEN_LOOP = dict(
    # Figure-8 topology and mix, but measured open loop at fixed offered
    # rates.  The saturating rate (last entry) drives the open-loop gates.
    rates=(1500.0, 2500.0),
    depths=(1, 2, 4, 8),
    # Batch cap: small enough that a single rotation cannot amortise the
    # whole queue (that is the k=1 mega-batch regime), large enough to keep
    # rotations worth their WAN round-trips.  Both rates fill it inside the
    # 50 ms queue-delay budget at every primary, so the full-batch rule is
    # what is measured.
    max_batch=8,
    # Capacity isolation: large key space (no lock-contention ceiling) and
    # fault timers beyond the horizon (no view-change churn while saturated).
    num_records=100_000,
    duration_s=8.0,
    warmup_s=2.0,
    drain_s=4.0,
    fault_timers=(30.0, 60.0, 90.0, 120.0),
)

OPEN_LOOP_SMOKE = dict(rates=(2500.0,), depths=(2, 4))


# ----------------------------------------------------------------------
# k-sweep: figure-8-style cross-shard macro on the simulator
# ----------------------------------------------------------------------


def _sweep_run(depth: int, params: dict) -> dict:
    """One closed-loop cross-shard run at window depth ``depth``.

    Clients are co-located with their shard's region (the paper's setup:
    clients talk to a nearby primary over a LAN hop, shards talk to each
    other over the WAN), so the queue the adaptive batcher sees reflects
    WAN consensus latency rather than client RTT.
    """
    workload = WorkloadConfig(
        num_records=1_000,
        cross_shard_fraction=params["cross_shard"],
        batch_size=params["batch_size"],
        num_clients=params["shards"] * params["clients_per_shard"],
        seed=params["seed"],
    )
    config = SystemConfig.uniform(
        params["shards"],
        params["replicas"],
        workload=workload,
        pipeline=PipelineConfig(depth=depth),
    )
    deployment = Deployment.build(
        config,
        backend="sim",
        num_clients=0,
        batch_size=params["batch_size"],
        seed=params["seed"],
    )
    try:
        for i, shard in enumerate(config.shards):
            for j in range(params["clients_per_shard"]):
                deployment.add_client(f"client-{i}-{j}", region=shard.region)
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=params["seed"]
        )
        driver = WorkloadDriver(
            deployment,
            generator,
            total=params["total"],
            window=params["window"],
            poll_interval=0.005,
        )
        result = driver.run(timeout=600.0)
    finally:
        deployment.close()
    return {
        "depth": depth,
        "completed": result.completed,
        "submitted": result.submitted,
        "ledgers_consistent": result.ledgers_consistent,
        "protocol_throughput_tps": round(result.throughput_tps, 1),
        "avg_latency_s": round(result.avg_latency, 4),
        "wall_clock_s": round(result.wall_clock_s, 4),
        "pipeline": result.pipeline_stats,
    }


def _closed_loop_panel(depth: int, params: dict, headline: dict) -> dict:
    """Closed-loop throughput at ``depth`` per panel seed, and the mean."""
    by_seed = {
        str(seed): (
            headline if seed == params["seed"] else _sweep_run(depth, {**params, "seed": seed})
        )["protocol_throughput_tps"]
        for seed in CLOSED_LOOP_PANEL_SEEDS
    }
    return {"tps_by_seed": by_seed, "mean_tps": round(sum(by_seed.values()) / len(by_seed), 1)}


def _sweep(params: dict) -> dict:
    runs = {str(depth): _sweep_run(depth, params) for depth in params["depths"]}
    k1 = runs.get("1", {}).get("protocol_throughput_tps", 0.0)
    speedups = {
        depth: round(run["protocol_throughput_tps"] / k1, 2) if k1 else 0.0
        for depth, run in runs.items()
    }
    panel = {
        depth: _closed_loop_panel(int(depth), params, run)
        for depth, run in runs.items()
        if int(depth) > 1
    }
    return {"runs": runs, "speedup_vs_k1": speedups, "panel": panel}


# ----------------------------------------------------------------------
# open-loop k-sweep: Poisson saturation against the same topology
# ----------------------------------------------------------------------


def _open_loop_run(depth: int, rate: float, params: dict, open_params: dict) -> dict:
    """One open-loop Poisson run at window depth ``depth`` and ``rate`` tps."""
    workload = WorkloadConfig(
        num_records=open_params["num_records"],
        cross_shard_fraction=params["cross_shard"],
        batch_size=params["batch_size"],
        num_clients=params["shards"] * params["clients_per_shard"],
        seed=params["seed"],
    )
    local, remote, transmit, client = open_params["fault_timers"]
    config = SystemConfig.uniform(
        params["shards"],
        params["replicas"],
        workload=workload,
        timers=TimerConfig(
            local_timeout=local,
            remote_timeout=remote,
            transmit_timeout=transmit,
            client_timeout=client,
        ),
        pipeline=PipelineConfig(depth=depth, max_batch_size=open_params["max_batch"]),
    )
    deployment = Deployment.build(
        config,
        backend="sim",
        num_clients=0,
        batch_size=params["batch_size"],
        seed=params["seed"],
    )
    try:
        for i, shard in enumerate(config.shards):
            for j in range(params["clients_per_shard"]):
                deployment.add_client(f"client-{i}-{j}", region=shard.region)
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=params["seed"]
        )
        driver = PoissonSaturationDriver(
            deployment,
            generator,
            rate_per_second=rate,
            duration_s=open_params["duration_s"],
            warmup_s=open_params["warmup_s"],
            drain_s=open_params["drain_s"],
            seed=params["seed"],
        )
        result = driver.run()
    finally:
        deployment.close()
    return {
        "depth": depth,
        "offered_rate_tps": rate,
        "submitted": driver.submitted,
        "completed": result.completed,
        "sustained_tps": round(driver.sustained_tps, 1),
        "ledgers_consistent": result.ledgers_consistent,
        "wall_clock_s": round(result.wall_clock_s, 4),
        # Over the whole run, drain included: the bound admits no exception.
        "peak_open_slots": result.pipeline_stats.get("peak_open_slots", 0),
        # Gauges captured at end of injection, while the load was applied.
        "pipeline": driver.steady_pipeline_stats,
    }


def _open_loop_sweep(params: dict, open_params: dict) -> dict:
    """Sustained throughput per depth per offered rate, plus the gated share."""
    runs: dict[str, dict[str, dict]] = {}
    for rate in open_params["rates"]:
        for depth in open_params["depths"]:
            runs.setdefault(str(int(rate)), {})[str(depth)] = _open_loop_run(
                depth, rate, params, open_params
            )
    saturating = str(int(open_params["rates"][-1]))
    pipelined = [
        run["sustained_tps"] for depth, run in runs[saturating].items() if int(depth) > 1
    ]
    return {
        "runs": runs,
        "saturating_rate_tps": float(saturating),
        # Worst pipelined depth's share of the saturating offered rate.
        "sustained_fraction": (
            round(min(pipelined) / float(saturating), 3) if pipelined else 0.0
        ),
    }


# ----------------------------------------------------------------------
# identity: k=1 reproduces the pre-PR chains byte-for-byte
# ----------------------------------------------------------------------


def _chain_identity() -> dict:
    """Replay the recorded pre-PR run with depth=1 and diff every block hash."""
    baseline = json.loads(BASELINE_PATH.read_text())
    params = baseline["params"]
    workload = WorkloadConfig(
        num_records=1_000,
        cross_shard_fraction=params["cross_shard"],
        batch_size=params["batch_size"],
        num_clients=4,
        seed=params["seed"],
    )
    config = SystemConfig.uniform(
        params["shards"],
        params["replicas"],
        workload=workload,
        pipeline=PipelineConfig(depth=1),
    )
    deployment = Deployment.build(
        config,
        backend="sim",
        num_clients=4,
        batch_size=params["batch_size"],
        seed=params["seed"],
    )
    try:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=params["seed"]
        )
        driver = WorkloadDriver(deployment, generator, total=params["total"], window=4)
        result = driver.run(timeout=600.0)
        chains = {
            str(shard): [
                block.block_hash().hex()
                for block in deployment.shard_replicas(shard)[0].ledger.blocks()
            ]
            for shard in config.shard_ids
        }
    finally:
        deployment.close()
    combined = hashlib.sha256(
        "|".join(h for s in sorted(chains) for h in chains[s]).encode()
    ).hexdigest()
    return {
        "match": combined == baseline["combined_chain_digest"]
        and chains == baseline["chains"],
        "completed": result.completed,
        "ledgers_consistent": result.ledgers_consistent,
        "expected_digest": baseline["combined_chain_digest"],
        "actual_digest": combined,
    }


# ----------------------------------------------------------------------
# backends: consistent ledgers under a pipelined window everywhere
# ----------------------------------------------------------------------


def _backend_txns(num_shards: int = 2, count: int = 16) -> list:
    """A burst of single- and cross-shard transactions submitted at once,
    which is exactly the arrival pattern that fills a proposal window."""
    txns = []
    for i in range(count):
        if i % 4 == 0:
            builder = TransactionBuilder(f"pipe-x{i}", "client-0")
            for shard in range(num_shards):
                builder.read_modify_write(shard, f"user{3 + shard}", f"x{i}@{shard}")
            txns.append(builder.build())
        else:
            shard = i % num_shards
            txns.append(
                TransactionBuilder(f"pipe-l{i}", f"client-{i % 2}")
                .read_modify_write(shard, f"user{5 + i % 7}", f"v{i}")
                .build()
            )
    return txns


def _backend_consistency(depth: int = 4) -> dict:
    reports = {}
    for backend in sorted(BACKENDS):
        config = SystemConfig.uniform(
            2,
            4,
            workload=WorkloadConfig(
                num_records=200,
                cross_shard_fraction=0.25,
                batch_size=1,
                num_clients=2,
                seed=11,
            ),
            pipeline=PipelineConfig(depth=depth),
        )
        deployment = Deployment.build(
            config, backend=backend, num_clients=2, batch_size=1, seed=11
        )
        try:
            result = deployment.run_workload(_backend_txns(), timeout=120.0)
        finally:
            deployment.close()
        reports[backend] = {
            "completed": result.completed,
            "submitted": result.submitted,
            "ledgers_consistent": result.ledgers_consistent,
            "peak_open_slots": result.pipeline_stats.get("peak_open_slots", 0),
        }
    return reports


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def run_benchmark(smoke: bool = False, **overrides) -> dict:
    params = {**DEFAULTS, **(SMOKE_OVERRIDES if smoke else {}), **overrides}
    open_params = {**OPEN_LOOP, **(OPEN_LOOP_SMOKE if smoke else {})}
    sweep = _sweep(params)
    open_loop = _open_loop_sweep(params, open_params)
    identity = _chain_identity()
    backends = _backend_consistency(depth=max(params["depths"]))

    saturating = open_loop["runs"].get(str(int(open_params["rates"][-1])), {})
    pipelined_runs = [run for d, run in saturating.items() if int(d) > 1]
    verdicts = {
        # CI gate (pipeline-perf-smoke): every pipelined depth at least 1.5x
        # the classic k=1 (k=4 is the headline; the smoke run sweeps only it).
        "closed_loop_speedup_1_5x": all(
            speedup >= SPEEDUP_GATE
            for depth, speedup in sweep["speedup_vs_k1"].items()
            if int(depth) > 1
        ),
        # CI gate: the closed loop never regresses -- every pipelined depth
        # still reaches the plateau the eager pump recorded (panel mean).
        "closed_loop_no_regression": all(
            panel["mean_tps"] >= (1.0 - CLOSED_LOOP_TOLERANCE) * CLOSED_LOOP_FLOOR_TPS
            for panel in sweep["panel"].values()
        ),
        # CI gate: every pipelined depth carries the saturating offered rate.
        "open_loop_sustains_offered": bool(pipelined_runs)
        and open_loop["sustained_fraction"] >= OPEN_LOOP_SUSTAINED_FRACTION,
        # CI gate: full batches, not crumbs, under sustained load.
        "open_loop_full_batches": all(
            run["pipeline"].get("avg_batch_size", 0.0)
            >= OPEN_LOOP_MIN_BATCH_FILL * open_params["max_batch"]
            for run in pipelined_runs
        ),
        # CI gate: the window bounds every proposer, Forward-driven included.
        "open_loop_window_is_a_bound": all(
            run["peak_open_slots"] <= run["depth"] for run in pipelined_runs
        ),
        # Safety: pipelining off means bit-for-bit the pre-PR protocol.
        "k1_chain_identity": identity["match"],
        "completed_all_depths": all(
            run["completed"] == run["submitted"] for run in sweep["runs"].values()
        ),
        "ledgers_consistent_all_depths": all(
            run["ledgers_consistent"] for run in sweep["runs"].values()
        ),
        "ledgers_consistent_open_loop": all(
            run["ledgers_consistent"]
            for by_depth in open_loop["runs"].values()
            for run in by_depth.values()
        ),
        "ledgers_consistent_all_backends": all(
            report["ledgers_consistent"] for report in backends.values()
        ),
        "window_actually_opened": all(
            run["pipeline"].get("peak_open_slots", 0) > 1
            for depth, run in sweep["runs"].items()
            if int(depth) > 1
        ),
    }
    verdicts["ok"] = all(verdicts.values())
    return {
        "benchmark": "pipeline",
        "mode": "smoke" if smoke else "full",
        "params": {**params, "depths": list(params["depths"])},
        "open_loop_params": {
            **open_params,
            "rates": list(open_params["rates"]),
            "depths": list(open_params["depths"]),
            "fault_timers": list(open_params["fault_timers"]),
        },
        "sweep": sweep,
        "open_loop": open_loop,
        "k1_identity": identity,
        "backends": backends,
        "verdicts": verdicts,
    }


# ----------------------------------------------------------------------
# pytest entry point (run explicitly: python -m pytest benchmarks/bench_pipeline.py)
# ----------------------------------------------------------------------


def test_pipeline_speedup_and_safety():
    report = run_benchmark(smoke=True)
    assert report["verdicts"]["ok"], json.dumps(
        {
            "speedup_vs_k1": report["sweep"]["speedup_vs_k1"],
            "k1_identity": report["k1_identity"],
            "backends": report["backends"],
            "verdicts": report["verdicts"],
        },
        indent=2,
    )


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="short CI run (k in {1,4})")
    parser.add_argument("--total", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--cross-shard", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--depths", type=int, nargs="+", default=None, help="window depths to sweep"
    )
    parser.add_argument("--output", type=Path, default=Path("BENCH_pipeline.json"))
    args = parser.parse_args(argv)

    overrides = {
        key: value
        for key, value in dict(
            total=args.total,
            batch_size=args.batch_size,
            window=args.window,
            cross_shard=args.cross_shard,
            seed=args.seed,
            depths=tuple(args.depths) if args.depths else None,
        ).items()
        if value is not None
    }
    report = run_benchmark(smoke=args.smoke, **overrides)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {args.output}")
    for depth, run in report["sweep"]["runs"].items():
        pipe = run["pipeline"]
        print(
            f"k={depth:>2s}: {run['protocol_throughput_tps']:>8} tps"
            f"  (x{report['sweep']['speedup_vs_k1'][depth]:<5} vs k=1,"
            f" peak {pipe.get('peak_open_slots', 0)} slots,"
            f" avg batch {pipe.get('avg_batch_size', 0.0)},"
            f" consistent={run['ledgers_consistent']})"
        )
    for depth, panel in report["sweep"]["panel"].items():
        print(
            f"closed-loop panel k={depth:>2s}: mean {panel['mean_tps']} tps over"
            f" {len(panel['tps_by_seed'])} seeds (floor {CLOSED_LOOP_FLOOR_TPS},"
            f" -{CLOSED_LOOP_TOLERANCE:.0%} resolution)"
        )
    for rate, by_depth in report["open_loop"]["runs"].items():
        for depth, run in by_depth.items():
            pipe = run["pipeline"]
            print(
                f"open k={depth:>2s} @ {rate:>5s}/s: {run['sustained_tps']:>8} tps sustained"
                f"  (avg batch {pipe.get('avg_batch_size', 0.0)},"
                f" peak {run['peak_open_slots']} slots,"
                f" queue delay {1e3 * pipe.get('avg_queue_delay_s', 0.0):.1f} ms)"
            )
    print(
        "open-loop sustained: "
        f"x{report['open_loop']['sustained_fraction']} of"
        f" {report['open_loop']['saturating_rate_tps']:.0f}/s offered"
        " (worst depth >= 2)"
    )
    identity = report["k1_identity"]
    print(f"k=1 chain identity : {'MATCH' if identity['match'] else 'MISMATCH'}"
          f" ({identity['actual_digest'][:16]})")
    for backend, rep in report["backends"].items():
        print(
            f"backend {backend:8s}: {rep['completed']}/{rep['submitted']} completed,"
            f" consistent={rep['ledgers_consistent']},"
            f" peak {rep['peak_open_slots']} slots"
        )
    print(f"verdict            : {'OK' if report['verdicts']['ok'] else 'FAIL'}")
    return 0 if report["verdicts"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
