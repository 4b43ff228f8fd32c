"""Tests for the telemetry subsystem (repro.telemetry) and its integrations.

Covers the recorder primitives (counters, Welford timing statistics, span
trees), the activation stack (disabled no-op path, scoped attach, isolated),
the sinks (JSONL round-trip, stderr summary), the layered report, the
analysis-handle cache pins, the engine's cross-process counter transport, and
the CLI surface (``--telemetry``, ``repro-experiments profile``).
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro import complete_graph, normalized_urtn, telemetry
from repro.analysis_api import NetworkAnalysis, compute_events
from repro.core.journeys import earliest_arrival_matrix
from repro.engine.driver import run_sharded
from repro.engine.executors import MultiprocessExecutor
from repro.engine.sharding import ShardResult
from repro.experiments.registry import main
from repro.montecarlo.experiment import Experiment
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.metrics import METRICS, TrialContext
from repro.scenarios.specs import MetricSpec
from repro.telemetry import (
    JsonlSink,
    StderrSummarySink,
    TelemetryRecorder,
    TimingStats,
    format_layer_report,
    read_jsonl,
)
from repro.telemetry.sinks import recorder_to_records


def _coin_trial(params, rng):
    """Module-level trial so the multiprocess executor can pickle it."""
    analysis = NetworkAnalysis(
        normalized_urtn(
            complete_graph(int(params.get("n", 8)), directed=True),
            seed=int(rng.integers(2**31)),
        )
    )
    return {"diameter": float(analysis.diameter)}


class TestDisabledPath:
    """Telemetry off — the default — must be a strict no-op."""

    def test_no_recorders_active_by_default(self):
        assert telemetry.active() == ()

    def test_module_helpers_are_noops_when_disabled(self):
        # None of these may raise or create hidden state.
        telemetry.counter("kernel.forward.sweeps")
        telemetry.observe_ms("kernel.forward.sweep_ms", 1.0)
        with telemetry.span("scenario.run", scenario="none"):
            pass
        assert telemetry.active() == ()

    def test_instrumented_kernel_records_nothing_when_disabled(self):
        network = normalized_urtn(complete_graph(8, directed=True), seed=0)
        with telemetry.session() as probe:
            pass  # close immediately: probe stays empty
        earliest_arrival_matrix(network)  # outside any session
        assert probe.counters == {}
        assert probe.timings == {}


class TestRecorder:
    def test_counters_accumulate(self):
        rec = TelemetryRecorder()
        rec.counter("a.b")
        rec.counter("a.b", 4)
        rec.counter("c")
        assert rec.counters == {"a.b": 5, "c": 1}

    def test_timing_stats_match_numpy(self):
        data = np.random.default_rng(7).exponential(size=193)
        stats = TimingStats()
        for x in data:
            stats.add(float(x))
        assert stats.count == 193
        assert stats.mean == pytest.approx(float(np.mean(data)))
        assert stats.variance == pytest.approx(float(np.var(data)))
        assert stats.minimum == pytest.approx(float(np.min(data)))
        assert stats.maximum == pytest.approx(float(np.max(data)))
        assert stats.total == pytest.approx(float(np.sum(data)))

    def test_nested_spans_build_a_tree_and_feed_timings(self):
        rec = TelemetryRecorder()
        with rec.span("outer", label="x"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        assert [node.name for node in rec.spans] == ["outer"]
        outer = rec.spans[0]
        assert outer.attrs == {"label": "x"}
        assert [child.name for child in outer.children] == ["inner", "inner"]
        # Every closed span also feeds the timing statistic of its name.
        assert rec.timings["outer"].count == 1
        assert rec.timings["inner"].count == 2
        assert rec.timings["outer"].total >= rec.timings["inner"].total

    def test_module_span_nests_across_all_active_recorders(self):
        with telemetry.session() as outer_rec:
            with telemetry.span("outer"):
                inner_rec = TelemetryRecorder()
                with telemetry.attach(inner_rec):
                    with telemetry.span("inner"):
                        telemetry.counter("hits")
        # The outer recorder saw the whole tree; the scoped probe saw only
        # what happened inside its attach window.
        assert [n.name for n in outer_rec.spans] == ["outer"]
        assert [n.name for n in outer_rec.spans[0].children] == ["inner"]
        assert outer_rec.counters == {"hits": 1}
        assert [n.name for n in inner_rec.spans] == ["inner"]
        assert inner_rec.counters == {"hits": 1}

    def test_isolated_hides_outer_recorders(self):
        with telemetry.session() as outer_rec:
            shard_rec = TelemetryRecorder()
            with telemetry.isolated(shard_rec):
                telemetry.counter("engine.shards")
            telemetry.counter("visible")
        assert outer_rec.counters == {"visible": 1}
        assert shard_rec.counters == {"engine.shards": 1}

    def test_session_flushes_sinks_even_on_failure(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with telemetry.session(JsonlSink(path)):
                telemetry.counter("partial")
                raise RuntimeError("boom")
        records = read_jsonl(path)
        assert {"kind": "counter", "name": "partial", "value": 1} in records


class TestThreads:
    """``isolated()`` binds the calling thread; sessions reach every thread."""

    PROBE_EVENTS = 5_000

    def test_isolated_units_leave_other_threads_to_their_session(self):
        """The two-thread probe: one thread runs back-to-back isolated units
        while another records into a session.  Every session event lands in
        the session and every unit captures exactly its own event."""
        stop = threading.Event()
        units: list[TelemetryRecorder] = []

        def run_units():
            while not stop.is_set():
                unit = TelemetryRecorder()
                with telemetry.isolated(unit):
                    telemetry.counter("probe.unit")
                    stop.wait(0.0001)
                    telemetry.counter("probe.unit")
                units.append(unit)

        with telemetry.session() as session:
            worker = threading.Thread(target=run_units)
            worker.start()
            try:
                for index in range(self.PROBE_EVENTS):
                    telemetry.counter("probe.session")
                    if index % 50 == 0:
                        stop.wait(0.0001)
            finally:
                stop.set()
                worker.join(timeout=30)
        assert not worker.is_alive()
        assert session.counters == {"probe.session": self.PROBE_EVENTS}
        assert units
        assert all(unit.counters == {"probe.unit": 2} for unit in units)

    def test_isolated_region_is_the_calling_threads_alone(self):
        inside, done = threading.Event(), threading.Event()
        unit = TelemetryRecorder()
        seen = {}

        def isolated_thread():
            with telemetry.isolated(unit):
                seen["worker"] = telemetry.active()
                inside.set()
                done.wait(timeout=30)

        with telemetry.session() as session:
            worker = threading.Thread(target=isolated_thread)
            worker.start()
            assert inside.wait(timeout=30)
            seen["main"] = telemetry.active()
            with telemetry.span("main.region"):
                telemetry.observe_ms("main.timing", 1.0)
            done.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen == {"worker": (unit,), "main": (session,)}
        assert set(session.timings) == {"main.region", "main.timing"}
        assert not unit.timings and not unit.spans

    def test_session_on_one_thread_records_other_threads(self):
        """The service daemon's case: a session opened on the main thread
        sees what the HTTP and job threads record."""
        with telemetry.session() as session:
            workers = [
                threading.Thread(target=telemetry.counter, args=("probe.thread",))
                for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert session.counters == {"probe.thread": 4}

    def test_concurrent_updates_to_one_recorder_are_not_lost(self):
        """Threads recording into one session race on its counters and
        timings; with a short switch interval an unlocked read-modify-write
        loses most of them."""
        threads, events = 8, 20_000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.session() as session:
                def record():
                    for _ in range(events):
                        telemetry.counter("probe.count")
                        telemetry.observe_ms("probe.ms", 1.0)
                    session.merge_state({"counters": {"probe.merged": 1}})

                workers = [threading.Thread(target=record) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert session.counters == {
            "probe.count": threads * events, "probe.merged": threads
        }
        assert session.timings["probe.ms"].count == threads * events

    def test_concurrent_attaches_keep_the_shared_stack(self):
        """Threads attaching and detaching probes at once rewrite the shared
        stack; a lost update would drop the session or strand a probe."""
        threads, rounds = 8, 5_000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.session() as session:
                def probe():
                    for _ in range(rounds):
                        with telemetry.attach(TelemetryRecorder()):
                            pass

                workers = [threading.Thread(target=probe) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert telemetry.active() == (session,)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert telemetry.active() == ()

    def test_attach_inside_isolated_stays_on_the_thread(self):
        unit, probe = TelemetryRecorder(), TelemetryRecorder()
        with telemetry.session() as session:
            with telemetry.isolated(unit):
                with telemetry.attach(probe):
                    assert telemetry.active() == (unit, probe)
                    telemetry.counter("inside")
                assert telemetry.active() == (unit,)
            assert telemetry.active() == (session,)
            telemetry.counter("outside")
        assert unit.counters == probe.counters == {"inside": 1}
        assert session.counters == {"outside": 1}

    SPAN_PAIRS = 200

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("entry", ["module", "recorder"])
    def test_span_trees_stay_per_thread(self, entry, threads):
        """The span probe: threads each close nested ``outer``/``inner``
        pairs into one session at the same time.  Every node keeps its place:
        each ``outer`` is a root holding exactly its own thread's ``inner``."""
        start = threading.Barrier(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.session() as session:
                if entry == "module":
                    region = telemetry.span
                else:
                    region = session.span

                def nest():
                    thread = threading.get_ident()
                    start.wait(timeout=30)
                    for index in range(self.SPAN_PAIRS):
                        with region("outer", thread=thread, index=index):
                            with region("inner", thread=thread, index=index):
                                pass

                workers = [threading.Thread(target=nest) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads * self.SPAN_PAIRS
        assert session.timings["outer"].count == session.timings["inner"].count == total
        assert len(session.spans) == total
        for root in session.spans:
            assert root.name == "outer"
            [child] = root.children
            assert (child.name, child.attrs, child.children) == ("inner", root.attrs, [])
        per_thread = {}
        for root in session.spans:
            per_thread.setdefault(root.attrs["thread"], []).append(root.attrs["index"])
        assert sorted(per_thread.values()) == [list(range(self.SPAN_PAIRS))] * threads

    def test_span_on_another_thread_is_a_root_not_a_child(self):
        """A span closed on a thread with nothing open is a root, even while
        another thread holds a span open in the same recorder."""
        inside, done = threading.Event(), threading.Event()
        with telemetry.session() as session:
            def hold_open():
                with telemetry.span("held"):
                    inside.set()
                    done.wait(timeout=30)

            worker = threading.Thread(target=hold_open)
            worker.start()
            assert inside.wait(timeout=30)
            with telemetry.span("main"):
                with telemetry.span("main.child"):
                    pass
            done.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert [root.name for root in session.spans] == ["main", "held"]
        assert [child.name for child in session.spans[0].children] == ["main.child"]
        assert session.spans[1].children == []

    def test_nested_isolated_restores_the_outer_region(self):
        outer, inner = TelemetryRecorder(), TelemetryRecorder()
        with telemetry.isolated(outer):
            with telemetry.isolated(inner):
                telemetry.counter("inner")
            telemetry.counter("outer")
        assert telemetry.active() == ()
        assert inner.counters == {"inner": 1}
        assert outer.counters == {"outer": 1}


class TestMerge:
    """Worker-side partials must fold into run totals exactly."""

    def test_timing_merge_is_exact_across_simulated_workers(self):
        data = np.random.default_rng(11).gamma(2.0, size=240)
        reference = TimingStats()
        for x in data:
            reference.add(float(x))
        # Split the same stream over 5 "workers" with uneven shard sizes and
        # fold them in order — like the driver folds shard states.
        merged = TimingStats()
        bounds = [0, 7, 48, 100, 101, 240]
        for lo, hi in zip(bounds, bounds[1:]):
            worker = TimingStats()
            for x in data[lo:hi]:
                worker.add(float(x))
            merged.merge(worker)
        assert merged.count == reference.count
        assert merged.mean == pytest.approx(reference.mean, rel=1e-12)
        assert merged.variance == pytest.approx(reference.variance, rel=1e-12)
        assert merged.minimum == reference.minimum
        assert merged.maximum == reference.maximum

    def test_timing_merge_handles_empty_partials(self):
        stats = TimingStats()
        stats.merge(TimingStats())
        assert stats.count == 0
        stats.add(3.0)
        stats.merge(TimingStats())
        assert stats.count == 1 and stats.mean == 3.0

    def test_timing_state_round_trip(self):
        stats = TimingStats()
        for x in (1.0, 4.0, 2.5):
            stats.add(x)
        clone = TimingStats.from_state(stats.to_state())
        assert clone.count == stats.count
        assert clone.mean == stats.mean
        assert clone.m2 == stats.m2
        assert clone.minimum == stats.minimum
        assert clone.maximum == stats.maximum
        empty = TimingStats.from_state(TimingStats().to_state())
        assert empty.count == 0 and math.isinf(empty.minimum)

    def test_recorder_merge_state_adds_counters_and_timings(self):
        worker = TelemetryRecorder()
        worker.counter("engine.trials", 4)
        worker.observe_ms("engine.shard_ms", 10.0)
        parent = TelemetryRecorder()
        parent.counter("engine.trials", 2)
        parent.merge_state(worker.to_state())
        parent.merge_state(worker.to_state())
        assert parent.counters["engine.trials"] == 10
        assert parent.timings["engine.shard_ms"].count == 2

    def test_span_trees_do_not_cross_process_state(self):
        rec = TelemetryRecorder()
        with rec.span("worker.region"):
            pass
        state = rec.to_state()
        assert "spans" not in state
        # ...but the span's duration travels as its timing statistic.
        assert state["timings"]["worker.region"]["count"] == 1


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.session(JsonlSink(path)) as rec:
            with telemetry.span("scenario.run", scenario="t"):
                with telemetry.span("scenario.trial"):
                    telemetry.counter("scenario.trials")
            telemetry.observe_ms("scenario.graph_build_ms", 2.0)
        records = read_jsonl(path)
        assert records == recorder_to_records(rec)
        kinds = {record["kind"] for record in records}
        assert kinds == {"span", "counter", "timing"}
        trial_span = next(r for r in records if r["path"] == "scenario.run/scenario.trial")
        assert trial_span["depth"] == 1
        timing = next(
            r for r in records
            if r["kind"] == "timing" and r["name"] == "scenario.graph_build_ms"
        )
        assert timing["count"] == 1 and timing["mean"] == 2.0

    def test_jsonl_appends_across_sessions(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            with telemetry.session(JsonlSink(path)):
                telemetry.counter("runs")
        records = read_jsonl(path)
        assert [r["value"] for r in records if r["kind"] == "counter"] == [1, 1]

    def test_stderr_summary_sink_writes_to_stream(self):
        import io

        stream = io.StringIO()
        with telemetry.session(StderrSummarySink(stream)):
            telemetry.counter("kernel.forward.sweeps", 3)
            telemetry.observe_ms("kernel.forward.sweep_ms", 5.0)
        out = stream.getvalue()
        assert "kernel.forward.sweeps = 3" in out
        assert "kernel.forward.sweep_ms" in out


class TestAnalysisCachePins:
    """The artifact-cache counters pin the handle's compute-once contract."""

    def test_four_metric_suite_one_compute_three_hits(self):
        network = normalized_urtn(complete_graph(32, directed=True), seed=3)
        suite = [
            MetricSpec("distance_summary"),
            MetricSpec("temporal_diameter"),
            MetricSpec("strong_reachability"),
            MetricSpec("temporal_centrality"),
        ]
        with compute_events() as events:
            ctx = TrialContext(
                graph=None, network=network, params={"n": 32},
                rng=np.random.default_rng(0),
            )
            for spec in suite:
                ctx.metrics.update(METRICS[spec.metric](ctx, spec.options))
            # The acceptance pin: one arrival-matrix sweep serves the whole
            # suite; every later consumer is a cache hit.
            assert events.counts["arrival_matrix"] == 1
            assert events.hits["arrival_matrix"] == 3

    def test_kernel_counters_under_the_handle(self):
        network = normalized_urtn(complete_graph(16, directed=True), seed=1)
        with telemetry.session() as rec:
            NetworkAnalysis(network).summary
        assert rec.counters["kernel.forward.sweeps"] == 1
        assert rec.counters["kernel.forward.sources"] == 16
        assert rec.timings["analysis.compute_ms.arrival_matrix"].count == 1


class TestDecisionExitPins:
    """E5 asks Theorem 6's yes/no question once per trial, a stack per sweep.

    Each point's 20 trials run as one shard, and at quick scale every
    point's networks fit one stack of ``STACK_ARCS`` time arcs, decided by
    one sweep: 23 sweeps for 460 trials.  A stack stops early only when
    every trial in it has saturated; it gives up the deficient-row exit,
    since such a row decides only its own trial.  The counts are exact at a
    fixed seed.  Stacks of eight took 69 sweeps and scanned 3 196 groups;
    one sweep per trial took 460 sweeps and scanned 11 465 groups, with 231
    saturation and 229 deficient exits.
    """

    def test_e5_quick_counts(self):
        with telemetry.session() as rec:
            run_scenario(get_scenario("E5"), scale="quick", seed=4)
        counters = rec.counters
        assert counters["scenario.trials"] == counters["engine.trials"] == 460
        assert counters["engine.shards"] == 23
        assert counters["kernel.forward.sweeps"] == 23
        assert counters["kernel.forward.groups_scanned"] == 1090
        assert counters["kernel.forward.saturation_exits"] == 5
        assert "kernel.forward.deficient_exits" not in counters
        assert "analysis.compute.reachability" not in counters


class TestCsrBuildTimers:
    """Lazy CSR layout builds record one count and one timing per build."""

    def test_e1_quick_records_one_forward_build_per_trial(self):
        scenario = get_scenario("E1")
        with telemetry.session() as rec:
            run_scenario(scenario, scale="quick", seed=3)
        trials = rec.counters["scenario.trials"]
        assert trials > 0
        assert rec.counters["csr.builds.forward"] == trials
        assert rec.timings["csr.build_ms.forward"].count == trials
        assert "csr.builds.reverse" not in rec.counters
        # Its cliques (n <= 64, under 8 192 time arcs) are laid out whole.
        config = scenario.scales["quick"].extras
        assert trials == config["repetitions"] * len(config["sizes"])
        arcs = sum(n * (n - 1) for n in config["sizes"]) * config["repetitions"]
        assert rec.counters["csr.arcs.forward"] == arcs

    def test_saturating_sweeps_lay_out_a_prefix(self):
        queries = {
            "diameter": lambda network: NetworkAnalysis(network).diameter,
            "distances_from": lambda network: NetworkAnalysis(network).distances_from([0]),
            "timearc_csr": lambda network: network.timearc_csr,
        }
        for name, query in queries.items():
            network = normalized_urtn(complete_graph(256, directed=True), seed=0)
            with telemetry.session() as rec:
                query(network)
            laid_out = rec.counters["csr.arcs.forward"]
            if name == "timearc_csr":
                assert laid_out == network.num_time_arcs
            else:
                assert rec.counters["kernel.forward.saturation_exits"] == 1
                assert laid_out < network.num_time_arcs // 4, name

    def test_each_direction_is_built_and_recorded_once(self):
        network = normalized_urtn(complete_graph(8, directed=True), seed=0)
        with telemetry.session() as rec:
            assert network.timearc_csr is network.timearc_csr
            assert network.reverse_timearc_csr is network.reverse_timearc_csr
        for direction in ("forward", "reverse"):
            assert rec.counters[f"csr.builds.{direction}"] == 1
            assert rec.timings[f"csr.build_ms.{direction}"].count == 1


class TestEngineTransport:
    """Worker-side recorders ship home and merge identically across executors."""

    def _run(self, jobs):
        experiment = Experiment(name="telemetry-parity", trial=_coin_trial)
        with telemetry.session() as rec:
            result = run_sharded(
                experiment, budget=8, seed=42, jobs=jobs, shard_size=2
            )
        return result, rec

    def test_jobs2_counters_identical_to_serial(self):
        serial_result, serial_rec = self._run(jobs=None)
        parallel_result, parallel_rec = self._run(jobs=2)
        assert serial_result.values == parallel_result.values
        assert serial_rec.counters == parallel_rec.counters
        # Timing *counts* are deterministic too (the observed values are not).
        assert {name: stats.count for name, stats in serial_rec.timings.items()} == {
            name: stats.count for name, stats in parallel_rec.timings.items()
        }
        assert serial_rec.counters["engine.shards"] == 4
        assert serial_rec.counters["engine.trials"] == 8
        assert serial_rec.counters["engine.shards_completed"] == 4
        assert serial_rec.counters["analysis.compute.arrival_matrix"] == 8
        assert serial_rec.counters["kernel.forward.sweeps"] == 8

    @staticmethod
    def _e6(**options):
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("E6"), scale="quick", seed=1, **options)
        return run, rec

    def test_direct_points_jobs2_counters_identical_to_serial(self):
        """E6's direct points ship their telemetry home like shards do."""
        serial_run, serial_rec = self._e6()
        parallel_run, parallel_rec = self._e6(jobs=2)
        assert parallel_run.records == serial_run.records
        assert parallel_rec.counters == serial_rec.counters
        # 32 probes of 10 trials, each decided in one stack, and one box
        # assignment per family (stacks of 8 and 2 took 67 sweeps, one
        # sweep per trial 323).
        assert serial_rec.counters["kernel.forward.sweeps"] == 35
        assert serial_rec.counters["scenario.direct_points"] == 3

    def test_direct_points_sweep_in_spawned_workers(self):
        serial_run, _ = self._e6()
        run, rec = self._e6(executor=MultiprocessExecutor(2, start_method="spawn"))
        assert run.records == serial_run.records
        assert rec.counters["kernel.forward.sweeps"] == 35

    def test_no_telemetry_state_when_disabled(self):
        experiment = Experiment(name="telemetry-off", trial=_coin_trial)
        assert telemetry.active() == ()
        result = run_sharded(experiment, budget=2, seed=1, shard_size=2)
        assert result.repetitions == 2

    def test_shard_result_payload_round_trip(self):
        rec = TelemetryRecorder()
        rec.counter("engine.trials", 3)
        rec.observe_ms("engine.shard_ms", 1.5)
        result = ShardResult(
            index=0, start=0, stop=3, repetitions=3, values={},
            telemetry_state=rec.to_state(),
        )
        clone = ShardResult.from_payload(result.to_payload())
        assert clone.telemetry_state == result.telemetry_state

    def test_pre_telemetry_checkpoints_still_load(self):
        result = ShardResult(
            index=0, start=0, stop=1, repetitions=1, values={},
        )
        payload = result.to_payload()
        del payload["telemetry"]  # a checkpoint written before telemetry existed
        clone = ShardResult.from_payload(payload)
        assert clone.telemetry_state is None


class TestReport:
    def test_layer_report_groups_namespaces(self):
        rec = TelemetryRecorder()
        rec.counter("kernel.forward.sweeps", 2)
        rec.counter("analysis.compute.arrival_matrix", 1)
        rec.counter("analysis.cache_hit.arrival_matrix", 3)
        rec.counter("engine.trials", 8)
        rec.counter("scenario.trials", 8)
        rec.counter("misc.other")
        rec.counter("csr.builds.forward", 2)
        report = format_layer_report(rec, title="profile: test")
        assert "profile: test" in report
        assert "Scenario pipeline" in report
        assert "Parallel engine" in report
        assert "CSR sweep kernels" in report
        assert "Label-grouped CSR layouts [csr.*]" in report
        assert "arrival_matrix" in report
        assert "misc.other" in report

    def test_empty_recorder_reports_placeholder(self):
        assert "(no telemetry recorded)" in format_layer_report(TelemetryRecorder())


class TestCli:
    def test_scenario_run_with_jsonl_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        exit_code = main(
            [
                "scenario", "run", "clique-temporal-centrality",
                "--scale", "quick", "--seed", "7",
                "--telemetry", f"jsonl:{trace}",
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        records = read_jsonl(trace)
        counters = {r["name"]: r["value"] for r in records if r["kind"] == "counter"}
        assert counters["scenario.trials"] == counters["engine.trials"]
        assert counters["analysis.compute.arrival_matrix"] >= 1

    def test_invalid_telemetry_spec_rejected(self, capsys):
        exit_code = main(
            [
                "scenario", "run", "clique-temporal-centrality",
                "--scale", "quick", "--telemetry", "nonsense",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "telemetry" in (captured.out + captured.err)

    def test_profile_command_prints_layer_report(self, capsys):
        exit_code = main(
            ["profile", "clique-temporal-centrality", "--scale", "quick", "--seed", "7"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Analysis handle (artifact cache)" in captured.out
        assert "arrival_matrix" in captured.out
        assert "csr.arcs.forward" in captured.out

    def test_profile_unknown_scenario_fails(self, capsys):
        exit_code = main(["profile", "no-such-scenario"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no-such-scenario" in (captured.out + captured.err)
