"""Integration tests: experiment harness, figure generators, and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments import figure1, figure8, figure9, figure10
from repro.experiments.runner import EXPERIMENTS, format_table, run_experiment


class TestFigure1:
    def test_rows_cover_all_protocols_and_node_counts(self):
        rows = figure1.run(node_counts=(4, 16))
        protocols = {row["protocol"] for row in rows}
        assert protocols == {
            "RingBFT",
            "RingBFT_X",
            "Pbft",
            "Sbft",
            "HotStuff",
            "Rcc",
            "PoE",
            "Zyzzyva",
        }
        assert {row["nodes_per_group"] for row in rows} == {4, 16}

    def test_ringbft_dominates_and_cross_shard_costs_throughput(self):
        rows = {(r["protocol"], r["nodes_per_group"]): r["throughput_tps"] for r in figure1.run((16,))}
        assert rows[("RingBFT", 16)] > rows[("RingBFT_X", 16)]
        for protocol in ("Pbft", "Zyzzyva", "Sbft", "PoE", "HotStuff", "Rcc"):
            assert rows[("RingBFT", 16)] > rows[(protocol, 16)]

    def test_total_nodes_reported(self):
        rows = figure1.run((4,))
        ring = next(r for r in rows if r["protocol"] == "RingBFT")
        pbft = next(r for r in rows if r["protocol"] == "Pbft")
        assert ring["total_nodes"] == 36  # 9 shards x 4 replicas
        assert pbft["total_nodes"] == 4


class TestFigure8:
    def test_each_sweep_produces_all_three_protocols(self):
        sweeps = [
            figure8.impact_of_shards((3, 15)),
            figure8.impact_of_replicas((10, 28)),
            figure8.impact_of_cross_shard_rate((0.0, 0.3)),
            figure8.impact_of_batch_size((10, 100)),
            figure8.impact_of_involved_shards((1, 15)),
            figure8.impact_of_clients((3_000, 20_000)),
        ]
        for rows in sweeps:
            assert {row["protocol"] for row in rows} == {"RingBFT", "Sharper", "AHL"}
            assert all(row["throughput_tps"] > 0 for row in rows)
            assert all(row["latency_s"] > 0 for row in rows)

    def test_zero_cross_shard_rate_equalises_protocols(self):
        rows = figure8.impact_of_cross_shard_rate((0.0,))
        values = {row["protocol"]: row["throughput_tps"] for row in rows}
        assert values["RingBFT"] == pytest.approx(values["AHL"], rel=1e-6)
        assert values["RingBFT"] == pytest.approx(values["Sharper"], rel=1e-6)

    def test_ringbft_wins_at_fifteen_shards(self):
        rows = figure8.impact_of_shards((15,))
        values = {row["protocol"]: row["throughput_tps"] for row in rows}
        assert values["RingBFT"] > values["Sharper"] > values["AHL"]

    def test_involved_shards_one_behaves_like_single_shard_workload(self):
        rows = figure8.impact_of_involved_shards((1,))
        values = {row["protocol"]: row["throughput_tps"] for row in rows}
        assert values["RingBFT"] == pytest.approx(values["AHL"], rel=1e-6)


class TestFigure9:
    def test_primary_failure_dips_and_recovers(self):
        from repro.experiments.figure9 import Figure9Config

        rows = figure9.run(
            Figure9Config(horizon=40.0, submit_rate_per_s=4.0, failure_time=10.0)
        )
        summary = rows[-1]
        assert summary["replicas_that_changed_view"] >= 9  # 3 shards x >=3 alive replicas
        assert summary["completed_transactions"] > 0
        series = {row["time_s"]: row["throughput_tps"] for row in rows[:-1]}
        before = series[5.0]
        during = series[10.0]
        after_values = [tput for time, tput in series.items() if 20.0 <= time <= 35.0]
        assert during < before
        assert max(after_values) > during

    def test_all_submitted_transactions_eventually_complete(self):
        from repro.experiments.figure9 import Figure9Config

        config = Figure9Config(horizon=30.0, submit_rate_per_s=3.0)
        rows = figure9.run(config)
        summary = rows[-1]
        assert summary["completed_transactions"] == int(config.horizon * config.submit_rate_per_s)


class TestFigure10:
    def test_throughput_decreases_with_remote_reads(self):
        rows = figure10.run((0, 32, 64))
        values = [row["throughput_tps"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_protocol_validation_resolves_dependencies(self):
        summary = figure10.run_protocol_validation(num_shards=3, remote_reads=4)
        assert summary["completed"]
        assert summary["is_complex"]
        assert summary["resolved_dependencies"] == summary["expected_dependencies"]


class TestRunnerAndCli:
    def test_registry_contains_every_figure(self):
        assert set(EXPERIMENTS) == {
            "figure1",
            "figure8-shards",
            "figure8-replicas",
            "figure8-crossshard",
            "figure8-batch",
            "figure8-involved",
            "figure8-clients",
            "figure9",
            "figure10",
            "wan-backends",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("figure99")

    def test_format_table_aligns_columns(self):
        table = format_table([{"a": 1, "b": "xy"}, {"a": 234, "b": "z"}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert format_table([]) == "(no rows)"

    def test_cli_list_and_run(self, capsys):
        assert main(["list"]) == 0
        assert "figure10" in capsys.readouterr().out
        assert main(["run", "figure10"]) == 0
        out = capsys.readouterr().out
        assert "RingBFT" in out and "remote_reads" in out

    def test_cli_demo_small_cluster(self, capsys):
        exit_code = main(
            [
                "demo",
                "--shards",
                "2",
                "--replicas",
                "4",
                "--transactions",
                "6",
                "--clients",
                "1",
                "--cross-shard",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "ledgers consistent  : True" in out

    def test_cli_parser_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "not-a-figure"])

    @pytest.mark.parametrize("flags", [["--backend", "realtime"], ["--time-scale", "0.02"]])
    def test_cli_demo_rejects_removed_options(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err
