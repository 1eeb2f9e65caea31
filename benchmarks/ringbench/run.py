"""ringbench: one benchmark for the whole stack.

Full report (every workload, ``--repeats`` untraced passes plus one traced)::

    python3 benchmarks/ringbench/run.py [--workload NAME] [--seed N] [--repeats R]
                                        [--smoke] [--output PATH]

One run as the benchmark driver makes it (passes repeat until ``--seconds``
of measuring are spent; the last stdout line is the result object)::

    python3 benchmarks/ringbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Compare two full reports with the benchmark's own per-metric bounds::

    python3 benchmarks/ringbench/run.py compare A.json B.json

Every pass runs in a fresh child interpreter, one at a time.  The workload
seed feeds ``WorkloadConfig.seed``, ``Deployment.build(seed=)`` and the
arrival RNG; the program under test only sees the generated transactions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parents[1] / "src"
if not (_SRC / "repro").is_dir():
    sys.exit(f"ringbench: the program under test is missing ({_SRC}/repro not found)")
# Import as the ``ringbench`` package: with the script directory itself on
# sys.path, ``trace.py`` here would shadow the standard library's ``trace``.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != _HERE]
sys.path[:0] = [str(_HERE.parent), str(_SRC)]

from ringbench import checks, metrics, workloads  # noqa: E402
from ringbench.host import QuietHostGate  # noqa: E402
from ringbench.trace import SPAN_NAMES  # noqa: E402

OUT_DIR = _HERE / "out"
DEFAULT_SEED = 2022
DEFAULT_REPEATS = 3
SMOKE_SCALE = 0.1
#: A child pass that runs this long (wall seconds) is treated as hung.
PASS_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# passes (each in a fresh child interpreter)
# ----------------------------------------------------------------------


def _child(request: dict) -> dict:
    """Body of ``--child``: run one pass in this interpreter."""
    spec = workloads.BY_NAME[request["workload"]].scaled(request["scale"])
    spans = Path(request["spans"]) if request.get("spans") else None
    return workloads.run_pass(spec, request["seed"], trace=request["trace"], spans_path=spans)


def run_pass(name: str, seed: int, *, trace: bool, scale: float) -> dict:
    request = {"workload": name, "seed": seed, "trace": trace, "scale": scale}
    if trace:
        request["spans"] = str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(request)],
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"pass {request} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_passes(
    name: str, seed: int, plan: list[bool], *, scale: float, seconds: float | None
) -> tuple[list[dict], QuietHostGate]:
    """Run ``plan`` (one trace flag per pass), each pass once the host is quiet;
    with ``seconds``, keep repeating the plan's last kind of pass while most of
    another one still fits the budget (waiting for the host does not count)."""
    gate = QuietHostGate(OUT_DIR / "host-state.json")
    passes: list[dict] = []
    measuring = longest = 0.0
    while len(passes) < len(plan) or (
        seconds is not None and measuring + 0.75 * longest <= seconds
    ):
        gate.wait()
        pass_started = time.perf_counter()
        trace = plan[min(len(passes), len(plan) - 1)]
        passes.append(run_pass(name, seed, trace=trace, scale=scale))
        elapsed = time.perf_counter() - pass_started
        measuring += elapsed
        longest = max(longest, elapsed)
    return passes, gate


# ----------------------------------------------------------------------
# one workload's result from its passes
# ----------------------------------------------------------------------


def _signature(outcome: dict) -> dict:
    """What sim passes of one seed must reproduce bit for bit."""
    return {
        "end_to_end": {k: outcome["end_to_end"][k] for k in metrics.SIM_DETERMINISTIC},
        "submitted": outcome["submitted"],
        "completed": outcome["completed"],
        "message_counts": outcome["message_counts"],
    }


def summarise(name: str, seed: int, passes: list[dict], gate: QuietHostGate) -> dict:
    spec = workloads.BY_NAME[name]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    verdicts: dict[str, bool] = {}
    for outcome in passes:
        for check, ok in outcome["checks"].items():
            verdicts[check] = verdicts.get(check, True) and ok
    if spec.backend == "sim" and len(passes) > 1:
        verdicts["deterministic_repeats"] = checks.deterministic_repeats(
            [_signature(p) for p in passes]
        )
    failed_checks = sorted(check for check, ok in verdicts.items() if not ok)

    attempted = sum(p["submitted"] for p in passes)
    failed = attempted if failed_checks else sum(p["submitted"] - p["completed"] for p in passes)

    # Interference from the host only ever adds time, so the pass that spent
    # the least CPU per transaction is the least disturbed one: every metric
    # is read from it.  ``setup_s`` alone is the median over all passes.
    quietest = min(untraced, key=lambda p: p["end_to_end"]["cpu_us_per_txn"])
    end_to_end = {}
    for metric in metrics.END_TO_END:
        values = [p["end_to_end"][metric.name] for p in untraced]
        end_to_end[metric.name] = {
            "value": (
                statistics.median(values)
                if metric.name == "setup_s"
                else quietest["end_to_end"][metric.name]
            ),
            "min": min(values),
            "max": max(values),
            "samples": len(values),
            "unit": metric.unit,
        }
    if failed_checks:
        # A pass whose outputs are wrong completed nothing that counts.
        end_to_end["completed_fraction"].update(value=0.0, min=0.0)

    summary = {
        "why": spec.why,
        "params": spec.params(),
        "seed": seed,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "host": {"waited_s": gate.waited_s, "disturbed_passes": gate.disturbed_passes},
        "attempted": attempted,
        "failed": failed,
        "checks": verdicts,
        "failed_checks": failed_checks,
        "latency_samples": quietest["completed"],
        "generator_lag_ms": quietest["generator_lag_ms"],
        "message_counts": quietest["message_counts"],
        "end_to_end": end_to_end,
    }
    if traced:
        # Likewise the least disturbed traced pass, so the spans' self times
        # add up to the CPU time they are compared with.
        layers = min(traced, key=lambda p: p["end_to_end"]["cpu_us_per_txn"])
        traced_cpu = layers["end_to_end"]["cpu_us_per_txn"]
        values = {
            **layers["per_layer"],
            "trace.overhead_ratio": traced_cpu / end_to_end["cpu_us_per_txn"]["value"],
            "trace.coverage": sum(
                value for name, value in layers["per_layer"].items() if name.endswith(".self_us")
            )
            / traced_cpu,
        }
        summary["per_layer"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in metrics.PER_LAYER
        }
        summary["span_edges"] = layers["span_edges"]
        summary["spans_path"] = layers.get("spans_path")
    return summary


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_summary(name: str, summary: dict) -> None:
    params = summary["params"]
    delay = (
        "host TCP loopback, no emulated delay"
        if params["backend"] == "socket"
        else "injected delay = GCP region RTT matrix (default NetemPolicy)"
    )
    print(f"\n== {name}  [{params['backend']} · {params['protocol']} · {params['loop']} loop; {delay}]")
    print(
        f"   seed {summary['seed']}, {summary['passes']['untraced']} untraced +"
        f" {summary['passes']['traced']} traced passes, {summary['latency_samples']} latency"
        f" samples per pass, attempted {summary['attempted']}, failed {summary['failed']}"
    )
    host = summary["host"]
    if host["waited_s"] or host["disturbed_passes"]:
        print(
            f"   host: waited {host['waited_s']:.0f} s for a quiet host,"
            f" {host['disturbed_passes']} passes ran disturbed"
        )
    for metric, row in summary["end_to_end"].items():
        print(
            f"   {metric:<24}{_fmt(row['value']):>12} {row['unit']:<6}"
            f" (min {_fmt(row['min'])}, max {_fmt(row['max'])})"
        )
    for check, ok in summary["checks"].items():
        print(f"   check {check:<24}{'ok' if ok else 'FAILED'}")
    if "per_layer" not in summary:
        return
    layer = summary["per_layer"]
    print(f"   {'span (per committed txn)':<42}{'calls':>10}{'self_us':>10}")
    for span in SPAN_NAMES:
        calls, self_us = layer[f"{span}.calls"]["value"], layer[f"{span}.self_us"]["value"]
        print(f"   {span:<42}{_fmt(calls):>10}{_fmt(self_us):>10}")
    for metric, row in layer.items():
        if not metric.endswith((".calls", ".self_us")):
            print(f"   {metric:<42}{_fmt(row['value']):>10} {row['unit']}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def compare_rows(a: dict, b: dict) -> list[dict]:
    """One verdict per (workload, end-to-end metric) of two full reports.

    ``worse``/``better`` when B's value differs from A's by more than the
    metric's ``compare`` share in that direction, ``unresolved`` when either
    report's own min-max spread over its passes already exceeds that share,
    ``same`` otherwise.
    """
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        sim = a["workloads"][name]["params"]["backend"] == "sim"
        for metric in metrics.END_TO_END:
            left = a["workloads"][name]["end_to_end"][metric.name]
            right = b["workloads"][name]["end_to_end"][metric.name]
            bound = metric.compare[0 if sim else 1]
            base = abs(left["value"])
            margin = max(bound * base, metric.floor)
            worsening = right["value"] - left["value"]
            if metric.better == "higher":
                worsening = -worsening
            if max(left["max"] - left["min"], right["max"] - right["min"]) > margin:
                verdict = "unresolved"
            elif worsening > margin:
                verdict = "worse"
            elif worsening < -margin:
                verdict = "better"
            else:
                verdict = "same"
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "a": left["value"],
                    "b": right["value"],
                    "change": (right["value"] - left["value"]) / base if base else 0.0,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=compare_rows.__doc__)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    rows = compare_rows(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    print(f"{'workload':<18}{'metric':<24}{'A':>12}{'B':>12}{'change':>9}{'bound':>7}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<18}{row['metric']:<24}{_fmt(row['a']):>12}{_fmt(row['b']):>12}"
            f"{row['change']:>+9.2%}{row['bound']:>7.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] in ("worse", "unresolved") for row in rows) else 0


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def driver_run(args) -> int:
    """One run under the benchmark driver's contract."""
    plan = [False, True] if args.trace else [False, False]
    passes, gate = run_passes(
        args.workload, args.seed, plan, scale=args.scale, seconds=args.seconds
    )
    summary = summarise(args.workload, args.seed, passes, gate)
    print_summary(args.workload, summary)
    reported = summary["per_layer"] if args.trace else summary["end_to_end"]
    print(
        json.dumps(
            {
                "correct": not summary["failed_checks"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in reported.items()
                },
            }
        )
    )
    return 1 if summary["failed_checks"] else 0


def full_report(args) -> int:
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    report = {
        "benchmark": "ringbench",
        "seed": args.seed,
        "repeats": args.repeats,
        "scale": args.scale,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for name in names:
        passes, gate = run_passes(
            name, args.seed, [False] * args.repeats + [True], scale=args.scale, seconds=None
        )
        report["workloads"][name] = summarise(name, args.seed, passes, gate)
        print_summary(name, report["workloads"][name])
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    failed = {n: s["failed_checks"] for n, s in report["workloads"].items() if s["failed_checks"]}
    print(f"\nwrote {args.output}")
    print(f"output checks: {'all ok' if not failed else f'FAILED {failed}'}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS, help="untraced passes")
    parser.add_argument("--smoke", action="store_true", help="1/10 of the transactions, 1 repeat")
    parser.add_argument("--output", type=Path, default=OUT_DIR / "ringbench.json")
    parser.add_argument("--seconds", type=float, help="driver run: measuring budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver run only")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(json.loads(args.child))))
        return 0
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.smoke:
        args.repeats = 1
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return driver_run(args)
    return full_report(args)


if __name__ == "__main__":
    sys.exit(main())
