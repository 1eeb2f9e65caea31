"""Command-line interface.

Examples::

    # List the experiments that regenerate the paper's figures.
    ringbft list

    # Regenerate one figure and print its table.
    ringbft run figure8-shards

    # Run the figure's protocol-mode validation on a chosen execution backend.
    ringbft run figure8-shards --backend sim

    # Run a small end-to-end protocol demo (simulator or real TCP loopback).
    ringbft demo --shards 3 --replicas 4 --transactions 20 --backend sim

    # Sustain open-loop Poisson load across checkpoint intervals and report
    # the retained-state gauges (steady-state memory behaviour).
    ringbft steady --rate 50 --intervals 20 --checkpoint-interval 4

    # Run a full deployment over real TCP loopback, one OS process per
    # replica, and aggregate the fleet's metrics.
    ringbft deploy-local --shards 2 --replicas-per-shard 4 --transactions 24

    # The same, with every link emulating the wan3 region RTT matrix.
    ringbft deploy-local --shards 2 --replicas-per-shard 4 --geo wan3

    # One geo workload on both backends, side by side.
    ringbft run wan-backends

    # (Usually spawned by deploy-local:) host one replica over TCP.
    ringbft serve --shard 0 --index 1 --address-file /tmp/addresses.json
"""

from __future__ import annotations

import argparse
import sys

from repro.config import PipelineConfig, SystemConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.baselines.ahl.replica import AhlReplica
from repro.baselines.sharper.replica import SharperReplica
from repro.engine import BACKENDS, Deployment, WorkloadDriver
from repro.experiments.runner import EXPERIMENTS, format_table, run_experiment
from repro.metrics.collector import (
    cache_efficiency,
    format_cache_stats,
    format_pipeline_stats,
)
from repro.netem import GEO_PROFILES as _GEO_PROFILES
from repro.workloads.ycsb import YcsbWorkloadGenerator

_PROTOCOLS = {
    "ringbft": RingBftReplica,
    "ahl": AhlReplica,
    "sharper": SharperReplica,
}


def _print_cache_block(result) -> None:
    """Print one aligned 'hot-path caches' block for a RunResult."""
    cache_lines = format_cache_stats(result.cache_stats)
    if cache_lines:
        print("hot-path caches     : " + cache_lines[0])
        for line in cache_lines[1:]:
            print("                      " + line)


def _print_pipeline_block(result, depth: int) -> None:
    """Print one aligned 'pipeline' block for a RunResult."""
    if not result.pipeline_stats:
        return
    lines = format_pipeline_stats(result.pipeline_stats, depth)
    print("pipeline            : " + lines[0])
    for line in lines[1:]:
        print("                      " + line)


def _cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    rows = run_experiment(args.experiment, backend=args.backend)
    print(format_table(rows))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.metrics.plotting import figure_chart

    rows = run_experiment(args.experiment, backend=args.backend)
    print(figure_chart(args.experiment, rows))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.netem import netem_policy_for, regions_for

    workload = WorkloadConfig(
        num_records=1_000,
        cross_shard_fraction=args.cross_shard,
        batch_size=1,
        num_clients=args.clients,
        seed=args.seed,
    )
    config = SystemConfig.uniform(
        args.shards,
        args.replicas,
        workload=workload,
        regions=regions_for(args.geo),
        pipeline=PipelineConfig(depth=args.pipeline_depth),
    )
    deployment = Deployment.build(
        config,
        backend=args.backend,
        replica_class=_PROTOCOLS[args.protocol],
        num_clients=args.clients,
        batch_size=1,
        seed=args.seed,
        netem=netem_policy_for(args.geo),
    )
    try:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=args.seed
        )
        driver = WorkloadDriver(deployment, generator, total=args.transactions, window=2)
        result = driver.run(timeout=300.0)
    finally:
        deployment.close()
    print(f"protocol            : {args.protocol}")
    print(f"backend             : {result.backend}")
    if args.geo:
        print(f"geo profile         : {args.geo}")
    print(f"shards x replicas   : {args.shards} x {args.replicas}")
    print(f"completed           : {result.completed}/{result.submitted}")
    print(f"duration            : {result.duration_s:.3f}s (protocol time)")
    print(f"wall clock          : {result.wall_clock_s:.3f}s")
    print(f"throughput          : {result.throughput_tps:.1f} txn/s (protocol time)")
    print(f"average latency     : {result.avg_latency * 1000:.1f} ms")
    print(f"messages exchanged  : {result.total_messages}")
    print(f"ledgers consistent  : {result.ledgers_consistent}")
    _print_pipeline_block(result, args.pipeline_depth)
    _print_cache_block(result)
    return 0 if result.all_completed and result.ledgers_consistent else 1


def _cmd_steady(args: argparse.Namespace) -> int:
    import json

    from repro.config import TimerConfig
    from repro.engine import run_sustained_load

    timers = TimerConfig(
        local_timeout=1.0,
        remote_timeout=2.0,
        transmit_timeout=3.0,
        client_timeout=1.5,
        checkpoint_interval=args.checkpoint_interval,
    )
    workload = WorkloadConfig(
        num_records=1_000,
        cross_shard_fraction=args.cross_shard,
        batch_size=1,
        num_clients=args.clients,
        seed=args.seed,
    )
    config = SystemConfig.uniform(
        args.shards,
        args.replicas,
        timers=timers,
        workload=workload,
        pipeline=PipelineConfig(depth=args.pipeline_depth),
    )
    result, driver = run_sustained_load(
        config,
        backend=args.backend,
        replica_class=_PROTOCOLS[args.protocol],
        rate_per_second=args.rate,
        checkpoint_intervals=args.intervals,
        num_clients=args.clients,
        seed=args.seed,
        gc_enabled=not args.no_gc,
    )
    series = driver.series
    print(f"protocol            : {args.protocol}")
    print(f"backend             : {result.backend}")
    print(f"gc                  : {'off' if args.no_gc else 'on'}")
    print(f"stable checkpoints  : {driver.stable_floor()}/{driver.target_sequence} sequences")
    print(f"completed           : {result.completed}/{result.submitted}")
    print(f"throughput          : {result.throughput_tps:.1f} txn/s (protocol time)")
    print(f"ledgers consistent  : {result.ledgers_consistent}")
    print("retained state      :  gauge                peak   final  growth")
    for gauge in (
        "open_slots",
        "log_slots",
        "batches",
        "cross_records",
        "committed_txn_ids",
        "locked_keys",
    ):
        print(
            f"                       {gauge:18s} {series.peak(gauge):6d}"
            f" {series.final(gauge):7d}  x{series.growth_ratio(gauge):.2f}"
        )
    _print_pipeline_block(result, args.pipeline_depth)
    _print_cache_block(result)
    if args.json:
        payload = {
            "result": result.as_row(),
            "stable_floor": driver.stable_floor(),
            "target_sequence": driver.target_sequence,
            "series": series.as_rows(),
            "cache_stats": cache_efficiency(result.cache_stats),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote               : {args.json}")
    ok = result.ledgers_consistent and driver.stable_floor() >= driver.target_sequence
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.launcher import AddressBook, build_system_config, serve_replica

    config = build_system_config(
        shards=args.shards,
        replicas_per_shard=args.replicas_per_shard,
        num_records=args.num_records,
        cross_shard=args.cross_shard,
        checkpoint_interval=args.checkpoint_interval,
        seed=args.seed,
        num_clients=args.num_clients,
        geo=args.geo,
    )
    return serve_replica(
        shard=args.shard,
        index=args.index,
        address_book=AddressBook.read(args.address_file),
        config=config,
        replica_class=_PROTOCOLS[args.protocol],
        batch_size=args.batch_size,
        seed=args.seed,
        max_runtime=args.max_runtime,
        geo=args.geo,
    )


def _cmd_deploy_local(args: argparse.Namespace) -> int:
    import json

    from repro.net.launcher import deploy_local

    outcome = deploy_local(
        shards=args.shards,
        replicas_per_shard=args.replicas_per_shard,
        transactions=args.transactions,
        num_clients=args.clients,
        cross_shard=args.cross_shard,
        num_records=args.num_records,
        checkpoint_interval=args.checkpoint_interval,
        batch_size=args.batch_size,
        seed=args.seed,
        timeout=args.timeout,
        geo=args.geo,
    )
    result = outcome.result
    aggregate = outcome.aggregate
    print(f"processes           : {aggregate['processes']} "
          f"({args.shards} shards x {args.replicas_per_shard} replicas + coordinator)")
    geo_line = f"{args.geo} (emulated WAN latency)" if args.geo else "none (plain loopback)"
    print(f"geo profile         : {geo_line}")
    print(f"completed           : {result.completed}/{result.submitted}")
    print(f"duration            : {result.duration_s:.3f}s (wall-clock == protocol time)")
    print(f"throughput          : {result.throughput_tps:.1f} txn/s")
    print(f"average latency     : {result.avg_latency * 1000:.1f} ms "
          f"(p99 {result.p99_latency * 1000:.1f} ms)")
    print(f"messages exchanged  : {result.total_messages}")
    print(f"bytes on wire       : {aggregate['bytes_on_wire']}")
    print(f"auth rejections     : {aggregate['auth_rejections']} "
          f"(of {aggregate['auth_verifications']} verifications)")
    print(f"ledgers consistent  : {result.ledgers_consistent}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(outcome.report(), fh, indent=2)
        print(f"wrote               : {args.json}")
    return 0 if outcome.ok else 1


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro import analysis

    root = Path(args.root).resolve()
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} does not look like the repo root (no src/repro)",
              file=sys.stderr)
        return 2

    if args.list_rules:
        for rule_id, rule in sorted(analysis.all_rules().items()):
            print(f"{rule_id:24} {rule.title}")
        return 0

    select = tuple(s.strip() for s in args.select.split(",") if s.strip()) if args.select else ()
    baseline_path = Path(args.baseline) if args.baseline else root / analysis.DEFAULT_BASELINE_NAME
    baseline = frozenset()
    if not args.no_baseline and not args.write_baseline:
        try:
            baseline = analysis.load_baseline(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"error: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2

    try:
        report = analysis.run_analysis(root, select=select, baseline=baseline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        analysis.write_baseline(baseline_path, report.findings)
        print(f"wrote baseline with {len(report.findings)} finding(s) to {baseline_path}")
        return 0

    rendered = (
        analysis.render_json(report) if args.format == "json" else analysis.render_text(report)
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.format} report to {args.output}")
        if report.findings:
            print(f"{len(report.findings)} non-baselined finding(s)", file=sys.stderr)
    else:
        print(rendered)
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringbft",
        description="RingBFT reproduction: experiments, figures, and protocol demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.set_defaults(func=_cmd_list)

    backend_kwargs = dict(choices=sorted(BACKENDS), default=None)

    run_parser = sub.add_parser("run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument(
        "--backend",
        help="run the figure's protocol-mode validation on this execution backend "
        "instead of regenerating the analytical figure",
        **backend_kwargs,
    )
    run_parser.set_defaults(func=_cmd_run)

    plot_parser = sub.add_parser("plot", help="run one experiment and render ASCII charts")
    plot_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    plot_parser.add_argument("--backend", **backend_kwargs)
    plot_parser.set_defaults(func=_cmd_plot)

    demo_parser = sub.add_parser("demo", help="run a protocol-mode demo on either backend")
    demo_parser.add_argument("--protocol", choices=sorted(_PROTOCOLS), default="ringbft")
    demo_parser.add_argument("--backend", choices=sorted(BACKENDS), default="sim")
    demo_parser.add_argument("--shards", type=int, default=3)
    demo_parser.add_argument("--replicas", type=int, default=4)
    demo_parser.add_argument("--clients", type=int, default=2)
    demo_parser.add_argument("--transactions", type=int, default=20)
    demo_parser.add_argument("--cross-shard", type=float, default=0.3)
    demo_parser.add_argument("--seed", type=int, default=2022)
    demo_parser.add_argument(
        "--geo",
        choices=sorted(_GEO_PROFILES),
        default=None,
        help="emulate this WAN geo profile on the chosen backend",
    )
    demo_parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=1,
        help="proposal-window depth k per primary (1 = classic one-batch-at-a-time)",
    )
    demo_parser.set_defaults(func=_cmd_demo)

    steady_parser = sub.add_parser(
        "steady",
        help="sustain open-loop Poisson load across checkpoint intervals and "
        "report retained-state gauges",
    )
    steady_parser.add_argument("--protocol", choices=sorted(_PROTOCOLS), default="ringbft")
    steady_parser.add_argument("--backend", choices=sorted(BACKENDS), default="sim")
    steady_parser.add_argument("--shards", type=int, default=2)
    steady_parser.add_argument("--replicas", type=int, default=4)
    steady_parser.add_argument("--clients", type=int, default=2)
    steady_parser.add_argument("--rate", type=float, default=50.0, help="offered load (txn/s)")
    steady_parser.add_argument(
        "--intervals", type=int, default=20, help="checkpoint intervals to sustain"
    )
    steady_parser.add_argument("--checkpoint-interval", type=int, default=4)
    steady_parser.add_argument("--cross-shard", type=float, default=0.2)
    steady_parser.add_argument("--seed", type=int, default=2022)
    steady_parser.add_argument(
        "--no-gc",
        action="store_true",
        help="disable checkpoint-driven truncation (to demonstrate the growth it prevents)",
    )
    steady_parser.add_argument("--json", help="also write the sampled series to this file")
    steady_parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=1,
        help="proposal-window depth k per primary (1 = classic one-batch-at-a-time)",
    )
    steady_parser.set_defaults(func=_cmd_steady)

    serve_parser = sub.add_parser(
        "serve",
        help="host one replica of a networked deployment over TCP "
        "(normally spawned by deploy-local)",
    )
    serve_parser.add_argument("--shard", type=int, required=True)
    serve_parser.add_argument("--index", type=int, required=True)
    serve_parser.add_argument(
        "--address-file", required=True, help="AddressBook JSON written by the launcher"
    )
    serve_parser.add_argument("--protocol", choices=sorted(_PROTOCOLS), default="ringbft")
    serve_parser.add_argument("--shards", type=int, default=2)
    serve_parser.add_argument("--replicas-per-shard", type=int, default=4)
    serve_parser.add_argument("--num-records", type=int, default=1_000)
    serve_parser.add_argument("--cross-shard", type=float, default=0.3)
    serve_parser.add_argument("--checkpoint-interval", type=int, default=100)
    serve_parser.add_argument("--batch-size", type=int, default=1)
    serve_parser.add_argument("--num-clients", type=int, default=2)
    serve_parser.add_argument("--seed", type=int, default=2022)
    serve_parser.add_argument(
        "--geo",
        choices=sorted(_GEO_PROFILES),
        default=None,
        help="geo profile of the deployment (must match the coordinator's)",
    )
    serve_parser.add_argument(
        "--max-runtime",
        type=float,
        default=600.0,
        help="exit with status 1 if no shutdown arrives within this many seconds",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    deploy_parser = sub.add_parser(
        "deploy-local",
        help="run a full deployment over TCP loopback, one OS process per replica",
    )
    deploy_parser.add_argument("--shards", type=int, default=2)
    deploy_parser.add_argument("--replicas-per-shard", type=int, default=4)
    deploy_parser.add_argument("--transactions", type=int, default=24)
    deploy_parser.add_argument("--clients", type=int, default=2)
    deploy_parser.add_argument("--cross-shard", type=float, default=0.3)
    deploy_parser.add_argument("--num-records", type=int, default=1_000)
    deploy_parser.add_argument("--checkpoint-interval", type=int, default=100)
    deploy_parser.add_argument("--batch-size", type=int, default=1)
    deploy_parser.add_argument("--seed", type=int, default=2022)
    deploy_parser.add_argument("--timeout", type=float, default=120.0)
    deploy_parser.add_argument(
        "--geo",
        choices=sorted(_GEO_PROFILES),
        default=None,
        help="emulate this WAN geo profile across the loopback fleet",
    )
    deploy_parser.add_argument("--json", help="also write the aggregated report to this file")
    deploy_parser.set_defaults(func=_cmd_deploy_local)

    lint_parser = sub.add_parser(
        "lint",
        help="run the protocol-aware static-analysis rules over the repo",
        description=(
            "AST-based protocol invariants: determinism, MAC coverage, codec "
            "completeness, async hygiene, lock/ordering discipline.  Exits 0 "
            "when no finding is outside the baseline, 1 otherwise.  Suppress a "
            "single line with '# repro: allow[rule-id] reason'."
        ),
    )
    lint_parser.add_argument(
        "--root", default=".", help="repository root (default: current directory)"
    )
    lint_parser.add_argument("--format", choices=("text", "json"), default="text")
    lint_parser.add_argument(
        "--output", help="write the report to this file instead of stdout"
    )
    lint_parser.add_argument(
        "--baseline",
        help="baseline file of grandfathered findings "
        "(default: <root>/analysis-baseline.json when it exists)",
    )
    lint_parser.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    lint_parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="capture the current findings as the new baseline and exit 0",
    )
    lint_parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all; pragma "
        "bookkeeping only runs on full runs)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    lint_parser.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
