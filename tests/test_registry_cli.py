"""Tests for the ``repro-experiments`` command-line interface."""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys

import pytest

from repro import telemetry
from repro.experiments.registry import main


class TestCli:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        from repro.experiments.registry import run_experiment
        from repro.experiments.reporting import write_experiments_markdown

        output = tmp_path / "report.md"
        exit_code = main(
            ["--ids", "E7", "--scale", "quick", "--seed", "5", "--output", str(output), "--quiet"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert output.exists()
        assert "wrote" in captured.out
        assert "## E7" in output.read_text(encoding="utf-8")
        # The flags reached the report: it is the quick-scale run at seed 5.
        expected = write_experiments_markdown(
            [run_experiment("E7", "quick", seed=5)], tmp_path / "expected.md"
        )
        assert output.read_bytes() == expected.read_bytes()

    def test_jobs_flag_gives_identical_report(self, tmp_path, capsys):
        serial_output = tmp_path / "serial.md"
        parallel_output = tmp_path / "parallel.md"
        assert (
            main(
                ["--ids", "E7", "--scale", "quick", "--seed", "5",
                 "--output", str(serial_output), "--quiet"]
            )
            == 0
        )
        assert (
            main(
                ["--ids", "E7", "--scale", "quick", "--seed", "5", "--jobs", "2",
                 "--output", str(parallel_output), "--quiet"]
            )
            == 0
        )
        capsys.readouterr()
        assert parallel_output.read_text(encoding="utf-8") == serial_output.read_text(
            encoding="utf-8"
        )

    def test_invalid_jobs_rejected(self, capsys):
        exit_code = main(["--ids", "E7", "--scale", "quick", "--jobs", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err

    def test_console_output_not_quiet(self, capsys):
        exit_code = main(["--ids", "E7", "--scale", "quick", "--seed", "5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "E7" in captured.out

    def test_unknown_experiment_id_fails(self, capsys):
        exit_code = main(["--ids", "E42", "--scale", "quick"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err

    def test_invalid_scale_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["--scale", "enormous"])

    def test_scenario_show_prints_round_trippable_json(self, tmp_path, capsys):
        from repro.io.serialization import read_scenario_json
        from repro.scenarios import get_scenario

        exit_code = main(["scenario", "show", "E5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        path = tmp_path / "e5.json"
        path.write_text(captured.out, encoding="utf-8")
        assert read_scenario_json(path) == get_scenario("E5")

    def test_scenario_show_unknown_name_fails(self, capsys):
        exit_code = main(["scenario", "show", "no-such-scenario"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err

    def test_serve_configuration_error_exits_2(self, tmp_path, capsys):
        exit_code = main(
            [
                "serve", "--port", "0", "--data-dir", str(tmp_path / "data"),
                "--kernel-backend", "bogus",
            ]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["scenario", "run", "E7"], ["profile", "E6"]]
    )
    def test_subcommand_configuration_error_exits_2(self, command, capsys):
        exit_code = main(
            [*command, "--scale", "quick", "--tile-size", "0"]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_profile_with_jobs_reports_the_workers_kernel_sweeps(self, capsys):
        exit_code = main(["profile", "E6", "--scale", "quick", "--seed", "1", "--jobs", "2"])
        assert exit_code == 0
        assert "kernel.forward.sweeps" in capsys.readouterr().out

    def test_profile_prints_the_runs_minor_page_faults(self, capsys):
        assert main(["profile", "E5", "--scale", "quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^minor page faults: (\d+) in this process$", out, re.M)
        assert match is not None, out
        assert int(match.group(1)) > 0

    def test_profile_with_jobs_counts_the_workers_page_faults(self, capsys):
        argv = ["profile", "E5", "--scale", "quick", "--seed", "1", "--jobs", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        pattern = r"^minor page faults: (\d+) in this process, (\d+) in its workers$"
        match = re.search(pattern, out, re.M)
        assert match is not None, out
        # The run joined its workers, so their faults are counted.
        assert int(match.group(2)) > 0

    def test_profile_reports_the_fault_deltas(self, monkeypatch, capsys):
        from repro.experiments import registry

        readings = iter([(1_000, 70), (1_600, 500)])
        monkeypatch.setattr(registry, "_minor_faults", lambda: next(readings))
        argv = ["profile", "E7", "--scale", "quick", "--seed", "1", "--jobs", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "minor page faults: 600 in this process, 430 in its workers" in out

    def test_run_experiments_shares_one_pool(self, monkeypatch):
        from repro.engine import executors
        from repro.experiments import registry

        pools = []

        class CountingPool(executors.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
        ids = ["E1", "E2", "E7"]
        parallel = registry.run_experiments(ids, scale="quick", seed=3, jobs=2)
        assert len(pools) == 1
        serial = registry.run_experiments(ids, scale="quick", seed=3)
        assert len(pools) == 1
        markdown = [report.to_markdown() for report in serial]
        assert [report.to_markdown() for report in parallel] == markdown
        # Every experiment ran at the requested scale and seed, and the seed
        # mattered: each scenario's default seed gives a different report.
        assert markdown == [
            registry.run_experiment(key, "quick", seed=3).to_markdown() for key in ids
        ]
        defaults = [registry.run_experiment(key, "quick").to_markdown() for key in ids]
        assert all(ours != default for ours, default in zip(markdown, defaults))

    def test_help_mentions_experiments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "E1" in capsys.readouterr().out


class TestTileSizeFlag:
    """``--tile-size N`` rewrites the scenario's ``distance_summary`` options.

    ``hypercube-urtn-diameter`` at quick scale runs 4 trials at n = 8 and 4
    at n = 16, so a width ``w`` streams ``4 · (⌈8/w⌉ + ⌈16/w⌉)`` tiles.
    """

    NAME = "hypercube-urtn-diameter"

    @staticmethod
    def _tiles(width):
        return 4 * (-(-8 // width) + -(-16 // width))

    def _run(self, monkeypatch, options, *flags):
        """Run the scenario with its metric options replaced; return the
        telemetry counters of the run."""
        from repro.experiments import registry
        from repro.scenarios import MetricSpec, MetricSuite

        base = registry.get_scenario(self.NAME)
        if options is not None:
            (spec,) = base.metrics
            metric = MetricSpec("distance_summary", {**spec.options, **options})
            base = dataclasses.replace(base, metrics=MetricSuite.of(metric))
        monkeypatch.setattr(registry, "get_scenario", lambda name: base)
        argv = ["scenario", "run", self.NAME, "--scale", "quick", "--seed", "5"]
        with telemetry.session() as rec:
            assert main([*argv, "--quiet", *flags]) == 0
        return rec.counters

    def test_flag_streams_the_summaries_in_its_width(self, monkeypatch):
        counters = self._run(monkeypatch, None, "--tile-size", "3")
        assert counters["blocked.tiles"] == self._tiles(3)
        assert "analysis.compute.arrival_matrix" not in counters

    def test_without_the_flag_summaries_stay_dense(self, monkeypatch):
        counters = self._run(monkeypatch, None)
        assert "blocked.tiles" not in counters
        assert counters["analysis.compute.arrival_matrix"] == 8

    def test_flag_reaches_jobs_workers(self, monkeypatch):
        counters = self._run(monkeypatch, None, "--tile-size", "3", "--jobs", "2")
        assert counters["blocked.tiles"] == self._tiles(3)

    def test_a_specs_dense_mode_wins(self, monkeypatch):
        counters = self._run(monkeypatch, {"mode": "dense"}, "--tile-size", "3")
        assert "blocked.tiles" not in counters
        assert counters["analysis.compute.arrival_matrix"] == 8

    @pytest.mark.parametrize("mode", ["auto", "blocked"])
    def test_a_specs_own_tile_size_wins(self, monkeypatch, mode):
        counters = self._run(
            monkeypatch, {"mode": mode, "tile_size": 5}, "--tile-size", "3"
        )
        assert counters["blocked.tiles"] == self._tiles(5)

    def test_a_specs_blocked_mode_takes_the_flags_width(self, monkeypatch):
        counters = self._run(monkeypatch, {"mode": "blocked"}, "--tile-size", "3")
        assert counters["blocked.tiles"] == self._tiles(3)

    def test_records_equal_with_and_without_the_flag(self, tmp_path, capsys):
        argv = ["scenario", "run", self.NAME, "--scale", "quick", "--seed", "5"]
        dense, tiled = tmp_path / "dense.json", tmp_path / "tiled.json"
        assert main([*argv, "--quiet", "--records", str(dense)]) == 0
        flags = ["--tile-size", "3", "--jobs", "2"]
        assert main([*argv, "--quiet", "--records", str(tiled), *flags]) == 0
        capsys.readouterr()
        assert tiled.read_bytes() == dense.read_bytes()

    def test_sweep_and_profile_take_the_flag(self, capsys):
        sweep = ["scenario", "sweep", self.NAME, "--scale", "quick", "--quiet"]
        with telemetry.session() as rec:
            assert main([*sweep, "--set", "dimension=3", "--tile-size", "3"]) == 0
        assert rec.counters["blocked.tiles"] == 4 * 3  # 4 trials at n = 8
        assert main(["profile", self.NAME, "--scale", "quick", "--tile-size", "3"]) == 0
        assert "blocked.tiles" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--ids", "E7", "--scale", "quick", "--tile-size", "8"],
         ["serve", "--port", "0", "--tile-size", "8"]],
        ids=["report", "serve"],
    )
    def test_report_run_and_serve_have_no_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--tile-size" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_runs_without_runpy_warning(self):
        """``python -m`` must not find the registry module already imported.

        runpy emits a ``RuntimeWarning`` when a package ``__init__`` imports
        the module it is asked to run; ``-W error`` turns that into exit 1.
        """
        result = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.experiments.registry", "--help",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "E1" in result.stdout
