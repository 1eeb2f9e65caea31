"""Experiment registry and table formatting used by the CLI and the benchmarks."""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ExperimentError
from repro.experiments import figure1, figure8, figure9, figure10, wan

#: Registry mapping experiment identifiers to the callables that regenerate them.
EXPERIMENTS: dict[str, Callable[[], list[dict]]] = {
    "figure1": figure1.run,
    "figure8-shards": figure8.impact_of_shards,
    "figure8-replicas": figure8.impact_of_replicas,
    "figure8-crossshard": figure8.impact_of_cross_shard_rate,
    "figure8-batch": figure8.impact_of_batch_size,
    "figure8-involved": figure8.impact_of_involved_shards,
    "figure8-clients": figure8.impact_of_clients,
    "figure9": figure9.run,
    "figure10": figure10.run,
    "wan-backends": wan.run,
}

#: Protocol-mode validations, one per figure module: the same scenario executed
#: at message level through ``Deployment`` on a chosen execution backend.
PROTOCOL_VALIDATIONS: dict[str, Callable[..., list[dict]]] = {
    "figure1": figure1.run_protocol,
    "figure8": figure8.run_protocol,
    "figure9": figure9.run_protocol,
    "figure10": figure10.run_protocol,
    "wan": wan.run_protocol,
}


def run_experiment(name: str, backend: str | None = None) -> list[dict]:
    """Run one registered experiment and return its rows.

    With ``backend=None`` the experiment regenerates its figure the usual way
    (analytical model or simulator, depending on the figure).  With
    ``backend="sim"`` / ``"socket"`` the figure module's protocol-mode
    validation runs through :class:`repro.engine.Deployment` on that backend
    instead, producing unified run metrics.
    """
    if name not in EXPERIMENTS:
        raise ExperimentError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    if backend is None:
        return EXPERIMENTS[name]()
    module = name.split("-")[0]
    return PROTOCOL_VALIDATIONS[module](backend=backend)


def format_table(rows: list[dict]) -> str:
    """Render experiment rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        column: max(len(column), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
