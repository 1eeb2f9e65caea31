"""Rule families: importing this package registers every rule."""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    async_hygiene,
    codec_completeness,
    determinism,
    lock_discipline,
    mac_coverage,
    quorum_tally,
)
