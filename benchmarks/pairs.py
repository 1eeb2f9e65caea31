"""Paired parent/change measurement of ringbench's driver-style runs.

    python3 benchmarks/pairs.py --parent-src PATH | --parent REV
                                --workload W [--workload W2 ...]
                                [--metric M ...] [--pairs N] [--seed S]
                                [--output PATH]

Host time on a shared machine drifts by tens of percent over minutes, so a
single run of each commit says little.  This tool alternates the run the
benchmark driver makes::

    python3 benchmarks/ringbench/run.py --workload W --seed S --seconds 10 --trace 0

between the parent tree and this tree (the checkout this file sits in),
switching which side goes first on every pair, so a slow stretch of the host
falls on both sides.  The parent is a source tree (``--parent-src``) or a
revision of this repository, checked out with ``git worktree add --detach``
into a temporary directory that is removed afterwards (no network needed).

Per workload and metric it reports each side's median and quartiles, the
change's wins, losses and ties over the pairs (ties count for neither side),
and a two-sided sign-test p-value.  The verdict is ``gain`` only when the
change wins at least nine of every ten pairs *and* the medians differ, in the
change's favour, by more than the parent's interquartile range (the ringbench
README's rule for a claim); ``loss`` is the same rule with the sides swapped;
anything else is ``none``.  Which direction is better comes from
``BENCHMARK.json``.  Everything is written to one JSON file for CHANGES.md
entries to quote.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_HERE = Path(__file__).resolve().parent
CHANGE_ROOT = _HERE.parent
RUNNER = Path("benchmarks") / "ringbench" / "run.py"
DEFAULT_METRICS = ("cpu_us_per_txn", "tps", "p50_ms", "p99_ms", "setup_s", "peak_rss_mb")
#: Measuring budget of one run: the benchmark driver's.
SECONDS = 10
#: Wall seconds after which one run is treated as hung.
RUN_TIMEOUT_S = 600.0


# ----------------------------------------------------------------------
# statistics and verdict
# ----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (inclusive method; one value is its
    own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses`` (ties dropped)."""
    trials = wins + losses
    if trials == 0:
        return 1.0
    extreme = max(wins, losses)
    tail = sum(math.comb(trials, k) for k in range(extreme, trials + 1)) / 2**trials
    return min(1.0, 2 * tail)


def compare_series(parent: list[float], change: list[float], better: str) -> dict:
    """Paired statistics and verdict for one metric.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``; ``better``
    is ``"lower"`` or ``"higher"``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, at least one pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}
    pairs = len(parent)
    gap = sign * (sides["change"]["median"] - sides["parent"]["median"])
    spread = sides["parent"]["iqr"]
    if 10 * wins >= 9 * pairs and gap > spread:
        verdict = "gain"
    elif 10 * losses >= 9 * pairs and -gap > spread:
        verdict = "loss"
    else:
        verdict = "none"
    base = sides["parent"]["median"]
    return {
        "better": better,
        **sides,
        "pairs": pairs,
        "wins": wins,
        "losses": losses,
        "ties": pairs - wins - losses,
        "sign_p": sign_test_p(wins, losses),
        "median_change": (sides["change"]["median"] - base) / base if base else None,
        "verdict": verdict,
    }


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def directions(root: Path) -> dict[str, str]:
    """Metric name -> ``"lower"``/``"higher"``, from ``root/BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def run_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One driver-style ringbench run in ``tree``; its metric values by name."""
    command = [
        sys.executable, str(tree / RUNNER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} failed ({done.returncode}):\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed its output checks")
    return {name: row["value"] for name, row in result["metrics"].items()}


def run_pairs(
    parent: Path,
    change: Path,
    workload: str,
    *,
    pairs: int,
    seed: int,
) -> dict[str, list[dict[str, float]]]:
    """``pairs`` alternating runs per side; pair ``i`` runs the parent first
    when ``i`` is even."""
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append(run_once(tree, workload, seed))
        print(
            f"  pair {index + 1}/{pairs} ({order[0]} first): "
            + ", ".join(
                f"{name} {runs['parent'][-1].get(name)} -> {runs['change'][-1].get(name)}"
                for name in ("cpu_us_per_txn", "tps")
                if name in runs["parent"][-1]
            )
        )
    return runs


def summarise(
    runs: dict[str, list[dict[str, float]]], metrics: list[str], better: dict[str, str]
) -> dict[str, dict]:
    """``compare_series`` for every metric both sides reported."""
    summary = {}
    for name in metrics:
        parent = [run.get(name) for run in runs["parent"]]
        change = [run.get(name) for run in runs["change"]]
        if None in parent or None in change:
            continue
        summary[name] = compare_series(parent, change, better.get(name, "lower"))
    return summary


def print_summary(workload: str, summary: dict[str, dict]) -> None:
    print(f"\n{workload}")
    print(
        f"  {'metric':<16}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
        f"{'change':>9}{'wins':>9}{'sign p':>8}  verdict"
    )
    for name, row in summary.items():
        cells = [
            f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
            for side in ("parent", "change")
        ]
        share = row["median_change"]
        print(
            f"  {name:<16}{cells[0]:>30}{cells[1]:>30}"
            f"{'' if share is None else f'{share:+.1%}':>9}"
            f"{row['wins']:>5}/{row['pairs']:<3}{row['sign_p']:>8.3f}  {row['verdict']}"
        )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _parent_worktree(rev: str) -> Path:
    target = Path(tempfile.mkdtemp(prefix="pairs-parent-"))
    target.rmdir()
    subprocess.run(
        ["git", "-C", str(CHANGE_ROOT), "worktree", "add", "--detach", str(target), rev],
        check=True, capture_output=True, text=True,
    )
    return target


def _remove_worktree(path: Path) -> None:
    subprocess.run(
        ["git", "-C", str(CHANGE_ROOT), "worktree", "remove", "--force", str(path)],
        capture_output=True, text=True,
    )
    shutil.rmtree(path, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--parent-src", type=Path, help="source tree of the parent")
    source.add_argument("--parent", help="revision of this repository to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--metric", action="append", help=f"default: {', '.join(DEFAULT_METRICS)}")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--output", type=Path, default=Path("pairs.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = args.metric or list(DEFAULT_METRICS)
    change = CHANGE_ROOT
    parent = _parent_worktree(args.parent) if args.parent else args.parent_src.resolve()
    try:
        better = directions(change)
        report = {
            "parent": args.parent or str(parent),
            "change": str(change),
            "seed": args.seed,
            "pairs": args.pairs,
            "workloads": {},
        }
        for workload in args.workload:
            print(f"{workload}: {args.pairs} pairs at seed {args.seed}")
            runs = run_pairs(parent, change, workload, pairs=args.pairs, seed=args.seed)
            summary = summarise(runs, metrics, better)
            report["workloads"][workload] = {"metrics": summary, "runs": runs}
            print_summary(workload, summary)
    finally:
        if args.parent:
            _remove_worktree(parent)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
