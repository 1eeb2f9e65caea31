"""Steady-state memory benchmark: checkpoint-driven GC keeps retained state flat.

Sustains an open-loop Poisson workload for >= 20 checkpoint intervals and
samples the deployment's retained-state gauges (consensus-log slots, batch
payloads, cross-shard records, lock-table size, ...) throughout.  The same
run is repeated with garbage collection disabled; the comparison demonstrates

* flat gauges with GC on -- bounded by O(checkpoint_interval + in-flight),
* linear growth with GC off -- O(total committed work),
* no throughput cost for running GC.

Runs as a pytest module (CI smoke) and as a standalone script that writes
``BENCH_steady_state.json``, the first entry in the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_steady_state.py --output BENCH_steady_state.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import SystemConfig, TimerConfig, WorkloadConfig  # noqa: E402
from repro.engine import BACKENDS, run_sustained_load  # noqa: E402

#: Gauges that must stay flat once GC runs (each one grew without bound before).
FLAT_GAUGES = ("log_slots", "batches", "cross_records", "committed_txn_ids")

#: Minimum sustained checkpoint intervals for a reliable flat-gauge verdict.
#: GC only reaches steady state after ~2 intervals (first stable checkpoint
#: plus sweep lag), so on shorter runs the warm-up ramp dominates the
#: first-half/second-half growth comparison and healthy gauges fail
#: spuriously (the known ``--intervals 6`` flake).
MIN_VERDICT_INTERVALS = 10

DEFAULTS = dict(
    shards=2,
    replicas=4,
    rate=50.0,
    intervals=25,
    checkpoint_interval=4,
    cross_shard=0.2,
    seed=7,
)


def _config(
    *, shards: int, replicas: int, checkpoint_interval: int, cross_shard: float, seed: int
) -> SystemConfig:
    timers = TimerConfig(
        local_timeout=1.0,
        remote_timeout=2.0,
        transmit_timeout=3.0,
        client_timeout=1.5,
        checkpoint_interval=checkpoint_interval,
    )
    workload = WorkloadConfig(
        num_records=400,
        cross_shard_fraction=cross_shard,
        batch_size=1,
        num_clients=2,
        seed=seed,
    )
    return SystemConfig.uniform(shards, replicas, timers=timers, workload=workload)


def _run_variant(*, gc_enabled: bool, backend: str = "sim", **params) -> dict:
    merged = {**DEFAULTS, **params}
    config = _config(
        shards=merged["shards"],
        replicas=merged["replicas"],
        checkpoint_interval=merged["checkpoint_interval"],
        cross_shard=merged["cross_shard"],
        seed=merged["seed"],
    )
    result, driver = run_sustained_load(
        config,
        backend=backend,
        rate_per_second=merged["rate"],
        checkpoint_intervals=merged["intervals"],
        seed=merged["seed"],
        sample_interval=0.2,
        gc_enabled=gc_enabled,
    )
    series = driver.series
    return {
        "gc_enabled": gc_enabled,
        "submitted": result.submitted,
        "completed": result.completed,
        "throughput_tps": round(result.throughput_tps, 1),
        "avg_latency_s": round(result.avg_latency, 4),
        "duration_s": round(result.duration_s, 3),
        "wall_clock_s": round(result.wall_clock_s, 3),
        "ledgers_consistent": result.ledgers_consistent,
        "stable_floor": driver.stable_floor(),
        "target_sequence": driver.target_sequence,
        "gauges": {
            gauge: {
                "peak": series.peak(gauge),
                "final": series.final(gauge),
                "growth_ratio": round(series.growth_ratio(gauge), 3),
            }
            for gauge in sorted({g for s in series.samples for g in s.gauges})
        },
        "series": series.as_rows(),
    }


def run_benchmark(backend: str = "sim", **params) -> dict:
    """Run the GC-on / GC-off pair and attach pass/fail verdicts."""
    merged = {**DEFAULTS, **params}
    if merged["intervals"] < MIN_VERDICT_INTERVALS:
        raise ValueError(
            f"--intervals {merged['intervals']} is below the minimum "
            f"{MIN_VERDICT_INTERVALS} needed for a reliable flat-gauge verdict: "
            "checkpoint GC only reaches steady state after ~2 intervals, so on "
            "short runs the warm-up ramp dominates the growth comparison and "
            "fails spuriously"
        )
    gc_on = _run_variant(gc_enabled=True, backend=backend, **params)
    gc_off = _run_variant(gc_enabled=False, backend=backend, **params)

    total_replicas = merged["shards"] * merged["replicas"]
    # Retained state must be O(checkpoint_interval + in-flight), never
    # O(total committed).  The per-replica allowance covers the GC lag (up to
    # two checkpoint windows between settle and sweep) plus in-flight work.
    per_replica_allowance = 6 * merged["checkpoint_interval"] + 32
    bound = total_replicas * per_replica_allowance

    verdicts = {
        "completed_all": gc_on["completed"] == gc_on["submitted"],
        "ledgers_consistent": bool(gc_on["ledgers_consistent"]),
        "reached_target": gc_on["stable_floor"] >= gc_on["target_sequence"],
        "flat_gauges": {
            gauge: gc_on["gauges"].get(gauge, {}).get("growth_ratio", 0.0) <= 1.5
            for gauge in FLAT_GAUGES
        },
        "bounded_by_interval": all(
            gc_on["gauges"].get(gauge, {}).get("peak", 0) <= bound for gauge in FLAT_GAUGES
        ),
        "gc_off_grows": gc_off["gauges"]["log_slots"]["final"]
        >= 2 * max(gc_on["gauges"]["log_slots"]["final"], 1),
        # Protocol-time throughput is GC-invariant by construction on the sim
        # backend (GC consumes no simulated time), so the real cost check is
        # wall clock: running GC must not make the identical run materially
        # slower on the host.  Generous tolerance absorbs CI timer noise.
        "no_throughput_regression": gc_on["throughput_tps"]
        >= 0.9 * gc_off["throughput_tps"],
        "no_wall_clock_regression": gc_on["wall_clock_s"]
        <= 1.5 * gc_off["wall_clock_s"] + 0.5,
    }
    verdicts["ok"] = (
        verdicts["completed_all"]
        and verdicts["ledgers_consistent"]
        and verdicts["reached_target"]
        and all(verdicts["flat_gauges"].values())
        and verdicts["bounded_by_interval"]
        and verdicts["gc_off_grows"]
        and verdicts["no_throughput_regression"]
        and verdicts["no_wall_clock_regression"]
    )
    return {
        "benchmark": "steady_state",
        "backend": backend,
        "params": merged,
        "retained_state_bound": bound,
        "gc_on": gc_on,
        "gc_off": gc_off,
        "verdicts": verdicts,
    }


# ----------------------------------------------------------------------
# pytest entry point (CI smoke)
# ----------------------------------------------------------------------


def test_steady_state_memory_is_flat():
    report = run_benchmark()
    assert report["verdicts"]["ok"], json.dumps(report["verdicts"], indent=2)


def test_small_interval_count_is_rejected():
    """Regression: short runs get a clear error, not a flaky verdict."""
    import pytest

    with pytest.raises(ValueError, match="minimum"):
        run_benchmark(intervals=6)


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="sim", choices=sorted(BACKENDS))
    parser.add_argument("--rate", type=float, default=DEFAULTS["rate"])
    parser.add_argument("--intervals", type=int, default=DEFAULTS["intervals"])
    parser.add_argument(
        "--checkpoint-interval", type=int, default=DEFAULTS["checkpoint_interval"]
    )
    parser.add_argument("--shards", type=int, default=DEFAULTS["shards"])
    parser.add_argument("--replicas", type=int, default=DEFAULTS["replicas"])
    parser.add_argument("--cross-shard", type=float, default=DEFAULTS["cross_shard"])
    parser.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    parser.add_argument("--output", type=Path, default=Path("BENCH_steady_state.json"))
    args = parser.parse_args(argv)

    try:
        report = run_benchmark(
            backend=args.backend,
            rate=args.rate,
            intervals=args.intervals,
            checkpoint_interval=args.checkpoint_interval,
            shards=args.shards,
            replicas=args.replicas,
            cross_shard=args.cross_shard,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    gc_on, gc_off = report["gc_on"], report["gc_off"]
    print(f"wrote {args.output}")
    print(f"stable checkpoints : {gc_on['stable_floor']}/{gc_on['target_sequence']} sequences")
    print(f"throughput         : GC on {gc_on['throughput_tps']} tps"
          f" / GC off {gc_off['throughput_tps']} tps")
    print(f"wall clock         : GC on {gc_on['wall_clock_s']}s"
          f" / GC off {gc_off['wall_clock_s']}s")
    for gauge in FLAT_GAUGES:
        on, off = gc_on["gauges"].get(gauge, {}), gc_off["gauges"].get(gauge, {})
        print(
            f"{gauge:18s}: GC on peak {on.get('peak', 0):5d}"
            f" (x{on.get('growth_ratio', 0.0):.2f})"
            f" | GC off final {off.get('final', 0):5d}"
            f" (x{off.get('growth_ratio', 0.0):.2f})"
        )
    print(f"verdict            : {'OK' if report['verdicts']['ok'] else 'FAIL'}")
    return 0 if report["verdicts"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
