"""Output oracles run after every pass, each reported by name.

A failed check marks the whole pass as failed: every operation it attempted
counts against ``completed_fraction`` and the run exits non-zero.
"""

from __future__ import annotations


def output_checks(
    deployment,
    *,
    completed: dict[str, frozenset[int]],
    generator_lag_s: float | None,
    expect_view_change_on: int | None,
) -> dict[str, bool]:
    """``check name -> passed`` for one drained deployment.

    ``completed`` maps each acknowledged transaction id to its involved
    shards; ``generator_lag_s`` is the open-loop generator's worst lateness
    on the simulator (``None`` where it does not apply).
    """
    shard_ids = deployment.config.shard_ids
    live = {
        shard: [r for r in deployment.shard_replicas(shard) if not r.crashed]
        for shard in shard_ids
    }
    verdicts = {
        "ledgers_consistent": all(deployment.ledgers_consistent(s) for s in shard_ids),
        "exactly_once": all(
            _exactly_once(live[shard], {t for t, involved in completed.items() if shard in involved})
            for shard in shard_ids
        ),
        "locks_released": all(
            replica.retained_state()["locked_keys"] == 0
            for replicas in live.values()
            for replica in replicas
        ),
    }
    if generator_lag_s is not None:
        verdicts["generator_on_time"] = generator_lag_s == 0.0
    if expect_view_change_on is not None:
        verdicts["view_change_completed"] = any(
            replica.view_changes_completed >= 1 for replica in live[expect_view_change_on]
        )
    return verdicts


def _exactly_once(replicas, txn_ids: set[str]) -> bool:
    """Every acknowledged transaction sits exactly once in the ledger of every
    surviving replica of an involved shard (so none was lost or re-ordered
    twice, including across a view change)."""
    for replica in replicas:
        order = replica.ledger.commit_order(txn_ids)
        if len(order) != len(txn_ids) or len(set(order)) != len(order):
            return False
    return True


def deterministic_repeats(signatures: list[dict]) -> bool:
    """Sim passes of one seed must agree on every protocol-time number."""
    return all(signature == signatures[0] for signature in signatures[1:])
