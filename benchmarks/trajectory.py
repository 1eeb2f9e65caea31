"""Perf-trajectory ledger: record benchmark headlines per commit, gate on drift.

Every tracked benchmark (``bench_pipeline``, ``bench_hotpath``) writes a JSON
report with a ``verdicts`` block and a handful of headline throughput numbers.
This tool appends those headlines to ``benchmarks/baselines/trajectory.json``
keyed by git SHA, so the repo carries its own performance history, and checks
new reports against the recorded best so a silent regression fails CI instead
of quietly becoming the new normal.

Usage::

    python benchmarks/trajectory.py record \
        --pipeline BENCH_pipeline.json --hotpath BENCH_hotpath.json
    python benchmarks/trajectory.py check \
        --pipeline BENCH_pipeline.json --hotpath BENCH_hotpath.json

``record`` extracts the headline metrics and upserts one entry for the
current HEAD.  ``check`` fails (exit 1) when

* any benchmark verdict in the supplied reports is false, or
* a *gated* throughput metric falls more than ``TOLERANCE`` (10%) below the
  best value ever recorded in the ledger.

Only sim-time metrics are gated (``closed_loop_tps``, ``open_loop_tps``):
they are deterministic, so a 10% drop is a real protocol change, never host
noise.  Wall-clock metrics (hotpath events/sec) are recorded for trend
plotting but deliberately excluded from the gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_LEDGER = REPO_ROOT / "benchmarks" / "baselines" / "trajectory.json"

#: Gated metrics may fall at most this far below the recorded best.
TOLERANCE = 0.10

#: Metrics the regression gate enforces (deterministic sim-time throughput).
GATED_METRICS = ("pipeline_closed_loop_tps", "pipeline_open_loop_tps")


# ----------------------------------------------------------------------
# headline extraction
# ----------------------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def pipeline_headline(report: dict) -> dict:
    """Headline metrics from a ``bench_pipeline`` report."""
    closed = [
        run["protocol_throughput_tps"]
        for depth, run in report["sweep"]["runs"].items()
        if int(depth) > 1
    ]
    open_loop = report.get("open_loop", {})
    saturating_rate = None
    open_tps: list[float] = []
    if open_loop.get("runs"):
        saturating_rate = max(open_loop["runs"], key=float)
        open_tps = [
            run["sustained_tps"]
            for depth, run in open_loop["runs"][saturating_rate].items()
            if int(depth) > 1
        ]
    return {
        "pipeline_verdict_ok": bool(report["verdicts"]["ok"]),
        "pipeline_closed_loop_tps": max(closed) if closed else 0.0,
        "pipeline_open_loop_tps": max(open_tps) if open_tps else 0.0,
        "pipeline_open_loop_rate": (
            float(saturating_rate) if saturating_rate else 0.0
        ),
        "pipeline_open_loop_sustained_fraction": open_loop.get(
            "sustained_fraction", 0.0
        ),
    }


def hotpath_headline(report: dict) -> dict:
    """Headline metrics from a ``bench_hotpath`` report.

    ``events_per_sec`` is wall-clock and therefore informational only --
    recorded for trend plots, never gated.
    """
    macro = report.get("macro", {}).get("optimized", {})
    digest = report.get("micro", {}).get("encode_digest", {})
    return {
        "hotpath_verdict_ok": bool(report["verdicts"]["ok"]),
        "hotpath_events_per_sec": macro.get("events_per_sec", 0),
        "hotpath_digest_speedup": digest.get("speedup", 0.0),
    }


def extract_entry(
    pipeline_report: dict | None, hotpath_report: dict | None
) -> dict:
    metrics: dict = {}
    modes = set()
    for report in (pipeline_report, hotpath_report):
        if report is not None:
            modes.add(report.get("mode", "full"))
    if pipeline_report is not None:
        metrics.update(pipeline_headline(pipeline_report))
    if hotpath_report is not None:
        metrics.update(hotpath_headline(hotpath_report))
    # Smoke and full runs sweep different depths/rates, so their headline
    # numbers are not comparable; the gate only compares like with like.
    mode = "full" if modes == {"full"} else "smoke"
    return {"sha": _git_sha(), "mode": mode, "metrics": metrics}


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------


def load_ledger(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"entries": []}


def record(entry: dict, path: Path) -> dict:
    ledger = load_ledger(path)
    ledger["entries"] = [
        e
        for e in ledger["entries"]
        if not (e["sha"] == entry["sha"] and e.get("mode") == entry["mode"])
    ]
    ledger["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=2) + "\n")
    return ledger


def best_recorded(ledger: dict, metric: str, mode: str) -> float:
    values = [
        e["metrics"][metric]
        for e in ledger["entries"]
        if e.get("mode") == mode and metric in e["metrics"]
    ]
    return max(values) if values else 0.0


def check(entry: dict, ledger: dict) -> list[str]:
    """Return a list of failure strings (empty means the gate passes)."""
    failures: list[str] = []
    metrics = entry["metrics"]
    for key, value in metrics.items():
        if key.endswith("_verdict_ok") and not value:
            failures.append(f"{key} is false: the benchmark's own gate failed")
    for metric in GATED_METRICS:
        if metric not in metrics:
            continue
        best = best_recorded(ledger, metric, entry["mode"])
        floor = best * (1.0 - TOLERANCE)
        if best > 0.0 and metrics[metric] < floor:
            failures.append(
                f"{metric} regressed: {metrics[metric]:.1f} < {floor:.1f} "
                f"(best recorded {best:.1f}, tolerance {TOLERANCE:.0%}, "
                f"mode {entry['mode']})"
            )
    return failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _load_report(path: str | None) -> dict | None:
    if path is None:
        return None
    return json.loads(Path(path).read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("record", "check"))
    parser.add_argument("--pipeline", help="path to BENCH_pipeline.json")
    parser.add_argument("--hotpath", help="path to BENCH_hotpath.json")
    parser.add_argument(
        "--ledger", default=str(DEFAULT_LEDGER), help="trajectory ledger path"
    )
    args = parser.parse_args(argv)

    if args.pipeline is None and args.hotpath is None:
        parser.error("supply at least one of --pipeline / --hotpath")

    entry = extract_entry(
        _load_report(args.pipeline), _load_report(args.hotpath)
    )
    ledger_path = Path(args.ledger)
    ledger = load_ledger(ledger_path)

    if args.command == "check":
        failures = check(entry, ledger)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(f"trajectory gate OK for {entry['sha'][:12]}")
        for key, value in sorted(entry["metrics"].items()):
            print(f"  {key}: {value}")
        return 0

    record(entry, ledger_path)
    print(f"recorded {entry['sha'][:12]} -> {ledger_path}")
    for key, value in sorted(entry["metrics"].items()):
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
