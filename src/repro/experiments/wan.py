"""WAN experiment: one geo workload, both execution backends, side by side.

The paper's headline results are geo-scale (one shard per GCP region); this
experiment expresses a geo deployment once -- a :mod:`repro.netem` profile
plus a seeded workload -- and runs it unchanged on the deterministic
simulator and the TCP socket backend.  A single shared
:class:`~repro.netem.NetemPolicy` object drives the link behaviour of both
runs, so the only thing that differs between rows is the clock and
the wire.

Registered as ``wan-backends`` in the experiment registry::

    ringbft run wan-backends            # both backends
    ringbft run wan-backends --backend socket   # just one
"""

from __future__ import annotations

from repro.engine.deployment import Deployment, RunResult
from repro.net.launcher import build_system_config, build_workload
from repro.netem import NetemPolicy

#: Backends compared by the default run, in reporting order.
BACKENDS: tuple[str, ...] = ("sim", "socket")

#: Scaled-down standard settings (the full 15x28 paper scale belongs to the
#: analytical model; this is a protocol-level experiment).
DEFAULTS = dict(
    geo="wan3",
    shards=2,
    replicas_per_shard=4,
    transactions=12,
    num_clients=2,
    cross_shard=0.3,
    seed=2022,
    timeout=120.0,
)


def _row(backend: str, geo: str, result: RunResult) -> dict:
    return {
        "backend": backend,
        "geo": geo,
        "completed": f"{result.completed}/{result.submitted}",
        "throughput_tps": round(result.throughput_tps, 1),
        "avg_latency_ms": round(result.avg_latency * 1000.0, 1),
        "p99_latency_ms": round(result.p99_latency * 1000.0, 1),
        "wall_clock_s": round(result.wall_clock_s, 3),
        "consistent": bool(result.ledgers_consistent),
    }


def run_one(
    backend: str,
    *,
    policy: NetemPolicy | None = None,
    **overrides,
) -> tuple[RunResult, Deployment | None]:
    """Run the geo workload on one backend; returns the unified result.

    ``policy`` lets several calls share one :class:`NetemPolicy` object (the
    cross-backend comparison does); by default one is built for the profile.
    The deployment is closed before returning (the second tuple element is
    kept ``None``; it exists so tests monkeypatching this function can expose
    internals).
    """
    params = {**DEFAULTS, **overrides}
    geo = params["geo"]
    if policy is None and geo:
        policy = NetemPolicy.for_profile(geo)
    config = build_system_config(
        shards=params["shards"],
        replicas_per_shard=params["replicas_per_shard"],
        cross_shard=params["cross_shard"],
        seed=params["seed"],
        num_clients=params["num_clients"],
        geo=geo,
    )
    deployment = Deployment.build(
        config,
        backend=backend,
        num_clients=params["num_clients"],
        batch_size=1,
        seed=params["seed"],
        netem=policy,
    )
    try:
        workload = build_workload(
            config, list(deployment.clients), params["transactions"], params["seed"]
        )
        result = deployment.run_workload(workload, timeout=params["timeout"])
    finally:
        deployment.close()
    return result, None


def run_protocol(backend: str = "sim", **overrides) -> list[dict]:
    """Single-backend protocol validation (the ``--backend`` entry point)."""
    params = {**DEFAULTS, **overrides}
    result, _ = run_one(backend, **params)
    return [_row(backend, params["geo"], result)]


def run(backends: tuple[str, ...] = BACKENDS, **overrides) -> list[dict]:
    """The cross-backend comparison: one shared policy, one seeded workload.

    Every backend consumes the *same* :class:`NetemPolicy` instance and the
    same transaction list, so differences between rows are attributable to
    the execution substrate alone.
    """
    params = {**DEFAULTS, **overrides}
    policy = NetemPolicy.for_profile(params["geo"])
    rows = []
    for backend in backends:
        result, _ = run_one(backend, policy=policy, **params)
        rows.append(_row(backend, params["geo"], result))
    return rows
