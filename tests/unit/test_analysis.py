"""The static-analysis suite: every rule family catches its seeded violation,
pragmas and baselines round-trip, and the repo itself stays clean.

The fixture corpus writes throwaway ``src/repro/...`` trees into tmp_path so
module-scoping behaves exactly as it does on the real repo layout.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    load_baseline,
    render_json,
    render_text,
    run_analysis,
    write_baseline,
)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(root: Path, rel: str, content: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)


def _rules_of(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# determinism family
# ---------------------------------------------------------------------------


class TestDeterminismRules:
    def _analyze(self, tmp_path, body, module="src/repro/consensus/snippet.py"):
        _write(tmp_path, module, body)
        return run_analysis(
            tmp_path, select=("wall-clock", "global-rng", "os-entropy", "unordered-iteration")
        )

    def test_wall_clock_and_rng_and_entropy_flagged(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import time, random, os\n"
            "def decide():\n"
            "    return time.time(), random.random(), os.urandom(4)\n",
        )
        assert len(_rules_of(report, "wall-clock")) == 1
        assert len(_rules_of(report, "global-rng")) == 1
        assert len(_rules_of(report, "os-entropy")) == 1

    def test_aliased_imports_are_resolved(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import time as _t\n"
            "from random import random as rand\n"
            "def decide():\n"
            "    return _t.time(), rand()\n",
        )
        assert len(_rules_of(report, "wall-clock")) == 1
        assert len(_rules_of(report, "global-rng")) == 1

    def test_seeded_rng_instance_is_sanctioned(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import random\n"
            "def decide(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random(), rng.choice([1, 2])\n",
        )
        assert not report.findings

    def test_set_iteration_flagged_and_sorted_is_sanctioned(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "def decide(shards):\n"
            "    for s in set(shards):\n"
            "        pass\n"
            "    bad = list({1, 2, 3})\n"
            "    good = sorted(set(shards))\n"
            "    also_good = sorted({s for s in shards})\n"
            "    return bad, good, also_good\n",
        )
        assert len(_rules_of(report, "unordered-iteration")) == 2

    def test_out_of_scope_modules_are_ignored(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import time\n\ndef measure():\n    return time.time()\n",
            module="src/repro/metrics/snippet.py",
        )
        assert not report.findings

    # Fixture pair for the slot-occupancy controller: an EWMA estimator is
    # deterministic only if its state starts from a configured prior and every
    # sample is scheduler time passed in by the caller.  The bad twin commits
    # the two mistakes the rule family exists to catch -- reading a host
    # clock inside the update and seeding the smoothing state from the
    # process-global RNG.

    _GOOD_CONTROLLER = (
        "class Controller:\n"
        "    def __init__(self, alpha, latency_prior_s):\n"
        "        self._alpha = alpha\n"
        "        self._latency_s = latency_prior_s\n"
        "        self._open_since = {}\n\n"
        "    def note_propose(self, now, sequence):\n"
        "        self._open_since[sequence] = now\n\n"
        "    def note_commit(self, now, sequence):\n"
        "        proposed_at = self._open_since.get(sequence)\n"
        "        if proposed_at is None:\n"
        "            return\n"
        "        sample = now - proposed_at\n"
        "        self._latency_s += self._alpha * (sample - self._latency_s)\n"
    )

    _BAD_CONTROLLER = (
        "import random\n"
        "import time\n\n"
        "class Controller:\n"
        "    def __init__(self, alpha):\n"
        "        self._alpha = alpha\n"
        "        self._latency_s = random.random() * 0.01\n"
        "        self._open_since = {}\n\n"
        "    def note_propose(self, sequence):\n"
        "        self._open_since[sequence] = time.process_time()\n\n"
        "    def note_commit(self, sequence):\n"
        "        proposed_at = self._open_since.get(sequence)\n"
        "        if proposed_at is None:\n"
        "            return\n"
        "        sample = time.process_time() - proposed_at\n"
        "        self._latency_s += self._alpha * (sample - self._latency_s)\n"
    )

    def test_seeded_ewma_controller_is_clean(self, tmp_path):
        report = self._analyze(
            tmp_path,
            self._GOOD_CONTROLLER,
            module="src/repro/consensus/pbft/pacing_fixture.py",
        )
        assert not report.findings

    def test_wall_clock_ewma_controller_is_flagged(self, tmp_path):
        report = self._analyze(
            tmp_path,
            self._BAD_CONTROLLER,
            module="src/repro/consensus/pbft/pacing_fixture.py",
        )
        assert len(_rules_of(report, "wall-clock")) == 2  # both process_time reads
        assert len(_rules_of(report, "global-rng")) == 1  # RNG-seeded EWMA state

    def test_real_pacing_module_is_clean(self):
        report = run_analysis(
            REPO_ROOT,
            select=("wall-clock", "global-rng", "os-entropy", "unordered-iteration"),
        )
        pacing = [f for f in report.findings if f.path.endswith("pacing.py")]
        assert pacing == []


# ---------------------------------------------------------------------------
# MAC coverage family
# ---------------------------------------------------------------------------


class TestMacCoverageRule:
    _CORPUS = (
        "class Message:\n"
        "    pass\n\n"
        "class Covered(Message):\n"
        "    pass\n\n"
        "class Uncovered(Message):\n"
        "    pass\n\n"
        "class Indirect(Covered):\n"
        "    pass\n\n"
        "class Replica:\n"
        "    _MAC_REQUIRED_TYPES = (Covered,)\n"
    )

    def test_uncovered_message_subclasses_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/common/snippet.py", self._CORPUS)
        report = run_analysis(tmp_path, select=("mac-coverage",))
        flagged = {f.symbol for f in report.findings}
        assert flagged == {"Uncovered", "Indirect"}

    def test_extension_tuples_count_as_coverage(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/common/snippet.py",
            self._CORPUS
            + "\nclass SubReplica(Replica):\n"
            "    _MAC_REQUIRED_TYPES = Replica._MAC_REQUIRED_TYPES + (Uncovered, Indirect)\n",
        )
        report = run_analysis(tmp_path, select=("mac-coverage",))
        assert not report.findings

    def test_whitelisted_client_types_are_exempt(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/common/snippet.py",
            "class Message:\n    pass\n\nclass ClientRequest(Message):\n    pass\n",
        )
        report = run_analysis(tmp_path, select=("mac-coverage",))
        assert not report.findings


# ---------------------------------------------------------------------------
# codec completeness family
# ---------------------------------------------------------------------------


class TestCodecCompletenessRules:
    def test_unregistered_reachable_dataclass_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/common/snippet.py",
            "from dataclasses import dataclass\n"
            "def register_wire_type(cls):\n    return cls\n\n"
            "class Message:\n    pass\n\n"
            "@dataclass(frozen=True)\n"
            "class Inner:\n    x: int\n\n"
            "@register_wire_type\n"
            "@dataclass(frozen=True)\n"
            "class Envelope(Message):\n"
            "    inner: Inner\n",
        )
        report = run_analysis(tmp_path, select=("codec-registered",))
        assert {f.symbol for f in report.findings} == {"Inner"}

    def test_registered_closure_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/common/snippet.py",
            "from dataclasses import dataclass\n"
            "def register_wire_type(cls):\n    return cls\n\n"
            "class Message:\n    pass\n\n"
            "@register_wire_type\n"
            "@dataclass(frozen=True)\n"
            "class Inner:\n    x: int\n\n"
            "@register_wire_type\n"
            "@dataclass(frozen=True)\n"
            "class Envelope(Message):\n"
            "    inner: 'Inner'\n",  # string annotation resolves too
        )
        report = run_analysis(tmp_path, select=("codec-registered",))
        assert not report.findings

    _LAYOUT_SRC = (
        "from repro.common import codec\n\n"
        "_SNIPPET_LAYOUT = codec.compile_fixed_dict({'type': 'X'}, ('x',))\n\n"
        "class PackedThing:\n"
        "    def payload_bytes(self):\n"
        "        return _SNIPPET_LAYOUT(self.x)\n"
    )

    def test_layout_without_identity_test_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/common/snippet.py", self._LAYOUT_SRC)
        report = run_analysis(tmp_path, select=("layout-identity-test",))
        assert {f.symbol for f in report.findings} == {"_SNIPPET_LAYOUT"}

    def test_identity_assert_naming_the_consumer_counts(self, tmp_path):
        _write(tmp_path, "src/repro/common/snippet.py", self._LAYOUT_SRC)
        _write(
            tmp_path,
            "tests/test_snippet.py",
            "def test_identity(thing: 'PackedThing'):\n"
            "    assert thing.payload_bytes() == codec.encode_canonical({'type': 'X'})\n",
        )
        report = run_analysis(tmp_path, select=("layout-identity-test",))
        assert not report.findings

    def test_naming_the_layout_constant_counts(self, tmp_path):
        _write(tmp_path, "src/repro/common/snippet.py", self._LAYOUT_SRC)
        _write(
            tmp_path,
            "tests/test_snippet.py",
            "from repro.common.snippet import _SNIPPET_LAYOUT\n",
        )
        report = run_analysis(tmp_path, select=("layout-identity-test",))
        assert not report.findings


# ---------------------------------------------------------------------------
# async hygiene family
# ---------------------------------------------------------------------------


class TestAsyncHygieneRules:
    def _analyze(self, tmp_path, body):
        _write(tmp_path, "src/repro/rt/snippet.py", body)
        return run_analysis(tmp_path, select=("blocking-async", "orphan-task"))

    def test_blocking_sleep_in_coroutine_flagged(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import time\n\nasync def pump():\n    time.sleep(0.1)\n",
        )
        assert len(_rules_of(report, "blocking-async")) == 1

    def test_sleep_in_sync_function_is_fine(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import time\n\ndef wait_for_child():\n    time.sleep(0.1)\n",
        )
        assert not report.findings

    def test_fire_and_forget_task_flagged_but_owned_task_is_fine(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import asyncio\n\n"
            "async def pump(loop):\n"
            "    loop.create_task(pump(loop))\n"
            "    task = asyncio.create_task(pump(loop))\n"
            "    task.add_done_callback(print)\n"
            "    await task\n",
        )
        assert len(_rules_of(report, "orphan-task")) == 1


# ---------------------------------------------------------------------------
# lock discipline family
# ---------------------------------------------------------------------------


class TestLockDisciplineRules:
    def test_lock_mutation_outside_audited_modules_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/core/snippet.py",
            "class Fast:\n"
            "    def go(self, locks):\n"
            "        return locks.try_lock(1, 't', frozenset())\n",
        )
        report = run_analysis(tmp_path, select=("lock-site",))
        assert len(report.findings) == 1

    def test_audited_module_is_exempt(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/pbft/replica.py",
            "class Replica:\n"
            "    def execute(self):\n"
            "        self.locks.try_lock(1, 't', frozenset())\n"
            "        self.locks.release('t')\n",
        )
        report = run_analysis(tmp_path, select=("lock-site",))
        assert not report.findings

    def test_cross_order_state_outside_ahl_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/core/snippet.py",
            "class Replica:\n"
            "    def propose(self):\n"
            "        self._ready_cross[1] = None\n"
            "        self._next_cross_proposal += 1\n",
        )
        report = run_analysis(tmp_path, select=("cross-order-site",))
        assert len(report.findings) == 2

    def test_direct_propose_outside_admission_flagged(self, tmp_path):
        # The shape RingBFT and AHL had: a subclass proposing a forwarded
        # batch itself, past the window.
        _write(
            tmp_path,
            "src/repro/core/snippet.py",
            "class RingReplica:\n"
            "    def _handle_forward(self, message):\n"
            "        self._propose(message.requests)\n",
        )
        report = run_analysis(tmp_path, select=("propose-site",))
        assert len(report.findings) == 1
        assert report.findings[0].symbol == "RingReplica._handle_forward"

    def test_admission_and_pump_may_propose(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/pbft/replica.py",
            "class PbftReplica:\n"
            "    def _admit(self, batch):\n"
            "        self._propose(batch)\n"
            "    def _pump_pipeline(self, reason):\n"
            "        self._propose(self._admission_queue.popleft())\n"
            "    def _resubmit_pending_requests(self):\n"
            "        self._propose(())\n",
        )
        report = run_analysis(tmp_path, select=("propose-site",))
        assert [f.symbol for f in report.findings] == [
            "PbftReplica._resubmit_pending_requests"
        ]


# ---------------------------------------------------------------------------
# quorum tally
# ---------------------------------------------------------------------------


class TestQuorumTallyRule:
    # The shape AHL's decision round had: a sender set, a len() against the
    # commit quorum, and an "already acted" flag beside it.
    _HAND_ROLLED = (
        "class Replica:\n"
        "    def on_vote(self, record, message):\n"
        "        record.voters.add(str(message.sender))\n"
        "        if record.decided:\n"
        "            return\n"
        "        if len(record.voters) < self.quorum.commit_quorum:\n"
        "            return\n"
        "        record.decided = True\n"
        "\n"
        "    def on_reply(self, entry, message):\n"
        "        needed = self.directory.quorum(entry.shard).weak_quorum\n"
        "        if needed <= len(entry.replies):\n"
        "            self.complete(entry)\n"
    )

    _TALLIED = (
        "class Replica:\n"
        "    def on_vote(self, record, message):\n"
        "        if record.tally.add(message.batch_digest, message.sender):\n"
        "            self.decide(record)\n"
        "\n"
        "    def window_full(self):\n"
        "        return len(self._open_slots) >= self.pipeline.depth\n"
    )

    def _analyze(self, tmp_path, body, module="src/repro/baselines/snippet.py"):
        _write(tmp_path, module, body)
        return run_analysis(tmp_path, select=("quorum-tally",))

    def test_len_against_a_threshold_is_flagged_directly_and_through_a_local(self, tmp_path):
        report = self._analyze(tmp_path, self._HAND_ROLLED)
        findings = _rules_of(report, "quorum-tally")
        assert [f.symbol for f in findings] == ["Replica.on_vote", "Replica.on_reply"]

    def test_tally_and_non_quorum_lengths_are_clean(self, tmp_path):
        assert not self._analyze(tmp_path, self._TALLIED).findings

    def test_the_quorum_module_itself_is_exempt(self, tmp_path):
        report = self._analyze(tmp_path, self._HAND_ROLLED, module="src/repro/common/quorum.py")
        assert not report.findings

    def test_pragma_with_reason_suppresses(self, tmp_path):
        body = self._HAND_ROLLED.replace(
            "        if len(record.voters)",
            "        # repro: allow[quorum-tally] keeps the messages for a certificate\n"
            "        if len(record.voters)",
        )
        report = self._analyze(tmp_path, body)
        assert [f.symbol for f in _rules_of(report, "quorum-tally")] == ["Replica.on_reply"]


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------


class TestSuppressionPragmas:
    def test_same_line_pragma_suppresses(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            "import time\n"
            "def decide():\n"
            "    return time.time()  # repro: allow[wall-clock] metrics only\n",
        )
        report = run_analysis(tmp_path)
        assert not report.findings
        assert report.suppressed_count == 1

    def test_line_above_pragma_suppresses(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            "import time\n"
            "def decide():\n"
            "    # repro: allow[wall-clock] metrics only\n"
            "    return time.time()\n",
        )
        report = run_analysis(tmp_path)
        assert not report.findings
        assert report.suppressed_count == 1

    def test_pragma_without_reason_is_a_finding(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            "import time\n"
            "def decide():\n"
            "    return time.time()  # repro: allow[wall-clock]\n",
        )
        report = run_analysis(tmp_path)
        rules = {f.rule for f in report.findings}
        assert "pragma-syntax" in rules
        assert "wall-clock" in rules  # a reasonless pragma does not suppress

    def test_unknown_rule_id_is_a_finding(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            "x = 1  # repro: allow[no-such-rule] because reasons\n",
        )
        report = run_analysis(tmp_path)
        assert {f.rule for f in report.findings} == {"pragma-syntax"}

    def test_unused_pragma_is_a_finding(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            "x = 1  # repro: allow[wall-clock] stale allowance\n",
        )
        report = run_analysis(tmp_path)
        assert {f.rule for f in report.findings} == {"pragma-unused"}

    def test_one_pragma_may_cover_multiple_rules(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            "import time, random\n"
            "def decide():\n"
            "    return time.time() + random.random()"
            "  # repro: allow[wall-clock, global-rng] simulation of host jitter\n",
        )
        report = run_analysis(tmp_path)
        assert not report.findings
        assert report.suppressed_count == 2


# ---------------------------------------------------------------------------
# baseline round trip
# ---------------------------------------------------------------------------


class TestBaseline:
    _BODY = (
        "import time\n"
        "def decide():\n"
        "    return time.time()\n"
    )

    def test_baseline_round_trip_grandfathers_old_findings_only(self, tmp_path):
        _write(tmp_path, "src/repro/consensus/snippet.py", self._BODY)
        first = run_analysis(tmp_path)
        assert len(first.findings) == 1
        baseline_path = tmp_path / "analysis-baseline.json"
        write_baseline(baseline_path, first.findings)

        grandfathered = run_analysis(tmp_path, baseline=load_baseline(baseline_path))
        assert not grandfathered.findings
        assert len(grandfathered.baselined) == 1

        # A *new* finding is not absorbed by the old baseline.
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            self._BODY + "def also():\n    return time.time() + 1\n",
        )
        dirty = run_analysis(tmp_path, baseline=load_baseline(baseline_path))
        assert len(dirty.findings) == 1
        assert len(dirty.baselined) == 1

    def test_fingerprints_survive_unrelated_line_shifts(self, tmp_path):
        _write(tmp_path, "src/repro/consensus/snippet.py", self._BODY)
        baseline_path = tmp_path / "analysis-baseline.json"
        write_baseline(baseline_path, run_analysis(tmp_path).findings)
        # Push the finding three lines down; the fingerprint must not move.
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            '"""Docstring."""\n# comment\n\n' + self._BODY,
        )
        report = run_analysis(tmp_path, baseline=load_baseline(baseline_path))
        assert not report.findings
        assert len(report.baselined) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == frozenset()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "analysis-baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(path)


# ---------------------------------------------------------------------------
# reporters + CLI
# ---------------------------------------------------------------------------


class TestReportersAndCli:
    def _dirty_repo(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/consensus/snippet.py",
            "import time\ndef decide():\n    return time.time()\n",
        )
        return tmp_path

    def test_json_report_schema(self, tmp_path):
        report = run_analysis(self._dirty_repo(tmp_path))
        payload = json.loads(render_json(report))
        assert payload["clean"] is False
        assert payload["summary"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "wall-clock"
        assert finding["path"] == "src/repro/consensus/snippet.py"
        assert finding["line"] == 3
        assert finding["fingerprint"]

    def test_text_report_mentions_location_and_rule(self, tmp_path):
        report = run_analysis(self._dirty_repo(tmp_path))
        text = render_text(report)
        assert "src/repro/consensus/snippet.py:3" in text
        assert "[wall-clock]" in text

    def test_cli_exit_codes_and_write_baseline(self, tmp_path, capsys):
        root = str(self._dirty_repo(tmp_path))
        assert cli_main(["lint", "--root", root]) == 1
        assert cli_main(["lint", "--root", root, "--write-baseline"]) == 0
        assert cli_main(["lint", "--root", root]) == 0  # baselined now
        assert cli_main(["lint", "--root", root, "--no-baseline"]) == 1
        assert cli_main(["lint", "--root", str(tmp_path / "nowhere")]) == 2
        capsys.readouterr()

    def test_cli_json_output_file(self, tmp_path, capsys):
        root = self._dirty_repo(tmp_path)
        out = tmp_path / "report.json"
        assert (
            cli_main(
                ["lint", "--root", str(root), "--format", "json", "--output", str(out)]
            )
            == 1
        )
        payload = json.loads(out.read_text())
        assert payload["summary"]["findings"] == 1
        capsys.readouterr()

    def test_unknown_rule_select_is_a_usage_error(self, tmp_path, capsys):
        root = str(self._dirty_repo(tmp_path))
        assert cli_main(["lint", "--root", root, "--select", "bogus"]) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# the repo itself
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_repo_wide_run_has_no_unbaselined_findings(self):
        """The gate the CI static-analysis job enforces, run as a tier-1 test.

        The determinism and async-hygiene families must stay at zero without
        a baseline entry; the repo currently holds the stronger invariant --
        no baseline file at all.
        """
        report = run_analysis(REPO_ROOT)
        formatted = "\n".join(
            f"{f.location()}: [{f.rule}] {f.message}" for f in report.findings
        )
        assert report.clean, f"un-baselined findings:\n{formatted}"
        assert report.files_analyzed > 50
