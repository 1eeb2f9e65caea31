"""CI gate: a ringbench smoke report against the checked-in reference.

    python3 benchmarks/ringbench/run.py --smoke
    python3 benchmarks/ringbench_gate.py [REPORT] [--reference PATH]

It applies ``run.py compare``'s verdicts (``run.compare_rows``) and fails only
where a verdict can be trusted on any machine: the protocol-time rows
(``metrics.SIM_DETERMINISTIC``) of a simulator workload are bit-deterministic
per seed, so anything but ``same`` there is a behaviour change.  So are a
simulator workload's ``message_counts``: a count of any message type that
differs from the reference fails, even when every protocol-time row stays
within its bound.  Host-time rows
(CPU, RSS, setup time) and every socket-backend row depend on the host running
them; they are printed as advisory and never fail the gate.

After an intended change to simulated behaviour, re-record the reference::

    python3 benchmarks/ringbench/run.py --smoke --output benchmarks/baselines/ringbench_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCHMARKS), str(_BENCHMARKS.parent / "src")]

from ringbench import metrics, run  # noqa: E402

REFERENCE = _BENCHMARKS / "baselines" / "ringbench_smoke.json"
REPORT = run.OUT_DIR / "ringbench.json"


def gate_rows(reference: dict, report: dict) -> tuple[list[dict], list[dict]]:
    """Split ``compare_rows(reference, report)`` into ``(failing, advisory)``.

    Failing: a non-``same`` verdict on a sim workload's protocol-time row, a
    message type whose count in a sim workload differs from the reference
    (verdict ``count A -> B``), or a sim workload of the reference that the
    report lacks (verdict ``missing``).  Advisory: every row that is not
    protocol time on the sim.
    """
    failing: list[dict] = []
    advisory: list[dict] = []
    sim = {
        name for name, summary in reference["workloads"].items()
        if summary["params"]["backend"] == "sim"
    }
    for name in sorted(sim - set(report["workloads"])):
        failing.append({"workload": name, "metric": "*", "verdict": "missing"})
    for name in sorted(sim & set(report["workloads"])):
        failing.extend(_count_rows(name, reference["workloads"][name], report["workloads"][name]))
    for row in run.compare_rows(reference, report):
        if row["workload"] in sim and row["metric"] in metrics.SIM_DETERMINISTIC:
            if row["verdict"] != "same":
                failing.append(row)
        else:
            advisory.append(row)
    return failing, advisory


def _count_rows(name: str, reference: dict, report: dict) -> list[dict]:
    """One row per message type whose count differs between two summaries."""
    before = reference.get("message_counts", {})
    after = report.get("message_counts", {})
    return [
        {
            "workload": name,
            "metric": f"msgs.{kind}",
            "verdict": f"count {before.get(kind, 0)} -> {after.get(kind, 0)}",
        }
        for kind in sorted(set(before) | set(after))
        if before.get(kind, 0) != after.get(kind, 0)
    ]


def _print_rows(title: str, rows: list[dict]) -> None:
    print(f"\n{title}")
    for row in rows:
        if "a" not in row:
            print(f"  {row['workload']:<18}{row['metric']:<24}{row['verdict']}")
            continue
        print(
            f"  {row['workload']:<18}{row['metric']:<24}{row['a']:>12.4g}"
            f"{row['b']:>12.4g}{row['change']:>+9.2%}  {row['verdict']}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("report", type=Path, nargs="?", default=REPORT)
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    args = parser.parse_args(argv)
    failing, advisory = gate_rows(
        json.loads(args.reference.read_text()), json.loads(args.report.read_text())
    )
    moved = [row for row in advisory if row["verdict"] != "same"]
    print(f"{len(advisory) - len(moved)} advisory rows (host time or socket) are `same`")
    if moved:
        _print_rows("advisory rows that moved (never fail the gate):", moved)
    if failing:
        _print_rows("FAILED: sim protocol-time rows or message counts that moved:", failing)
        return 1
    print("\nsim protocol-time rows and message counts: all same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
