"""Unit tests for the parallel execution engine (repro.engine)."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import executors
from repro.engine.checkpoint import CheckpointStore
from repro.engine.driver import run_sharded
from repro import telemetry
from repro.engine.executors import (
    MultiprocessExecutor,
    RunContext,
    SerialExecutor,
    merge_telemetry,
    resolve_executor,
    run_unit,
)
from repro.engine.sharding import (
    DEFAULT_MAX_SHARDS,
    SeedPlan,
    Shard,
    ShardResult,
    ShardWork,
    plan_shards,
)
from repro.exceptions import CheckpointError, ConfigurationError
from repro.montecarlo.experiment import Experiment
from repro.utils.seeding import spawn_rngs


def _noise_trial(params, rng):
    """Module-level trial so the multiprocess executor can pickle it."""
    return {
        "noise": float(rng.normal(loc=params.get("mu", 0.0))),
        "uniform": float(rng.random()),
    }


def _failing_trial(params, rng):
    """Module-level trial that fails deterministically per trial stream.

    Whether a trial fails depends only on its first uniform draw, so the test
    can predict exactly which shards die from the seed alone — no shared
    counters, which would not survive process boundaries.
    """
    value = float(rng.random())
    if value < float(params["threshold"]):
        raise ValueError("unlucky trial")
    return {"x": value}


@dataclass(frozen=True)
class _PidUnit:
    """Module-level unit that reports which process ran it."""

    index: int

    def run(self):
        return os.getpid()


@dataclass(frozen=True)
class _SlowUnit:
    """Module-level unit that takes a while, so later units stay queued."""

    index: int

    def run(self):
        time.sleep(0.05)
        return self.index


class _ReversedExecutor(SerialExecutor):
    """Runs units serially but yields their results last-first, like a pool
    whose final unit happens to finish before all the others."""

    def map(self, units, context):
        yield from reversed([run_unit(unit, context) for unit in units])


class TestShardPlanning:
    def test_plan_covers_budget_contiguously(self):
        shards = plan_shards(53, shard_size=7)
        assert shards[0].start == 0 and shards[-1].stop == 53
        for before, after in zip(shards, shards[1:]):
            assert after.start == before.stop
        assert sum(shard.size for shard in shards) == 53

    def test_default_plan_bounded(self):
        assert len(plan_shards(1000)) <= DEFAULT_MAX_SHARDS
        assert len(plan_shards(3)) == 3  # tiny budgets get one trial per shard

    def test_plan_is_independent_of_nothing_else(self):
        assert plan_shards(30) == plan_shards(30)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(0)
        with pytest.raises(ValueError):
            plan_shards(10, shard_size=0)
        with pytest.raises(ValueError):
            Shard(index=0, start=5, stop=5)

    def test_seed_plan_matches_sequential_spawn(self):
        plan = plan_shards(12, shard_size=5)
        seeds = SeedPlan(99, 12, len(plan))
        sequential = spawn_rngs(99, 12)
        streams = []
        for shard in plan:
            streams.extend(
                np.random.default_rng(child).random() for child in seeds.trial_seeds(shard)
            )
        assert streams == [rng.random() for rng in sequential]

    def test_fingerprint_mentions_entropy(self):
        plan = SeedPlan(1234, 4, 2)
        assert "1234" in plan.fingerprint()

    def test_child_reconstruction_matches_spawn(self):
        # the O(1) lazy derivation must equal SeedSequence.spawn exactly
        master = np.random.SeedSequence(77)
        plan = SeedPlan(master, 6, 2)
        spawned = master.spawn(6)
        for i in range(6):
            assert (
                np.random.default_rng(plan.child(i)).random()
                == np.random.default_rng(spawned[i]).random()
            )


class TestExecutors:
    def _works(self, budget=10, shard_size=3, seed=0, mu=1.0):
        experiment = Experiment(name="noise", trial=_noise_trial, parameters={"mu": mu})
        shards = plan_shards(budget, shard_size=shard_size)
        seeds = SeedPlan(seed, budget, len(shards))
        return [
            ShardWork(
                experiment=experiment,
                shard=shard,
                master_entropy=seeds.entropy,
                master_spawn_key=seeds.spawn_key,
            )
            for shard in shards
        ]

    def test_resolve_executor_defaults(self):
        assert isinstance(resolve_executor(None, None), SerialExecutor)
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        multiprocess = resolve_executor(None, 4)
        assert isinstance(multiprocess, MultiprocessExecutor)
        assert multiprocess.jobs == 4

    def test_resolve_executor_conflicts_and_validation(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(SerialExecutor(), 4)
        with pytest.raises(ConfigurationError):
            resolve_executor(None, 0)
        with pytest.raises(ConfigurationError):
            resolve_executor(None, -2)
        with pytest.raises(ConfigurationError):
            resolve_executor(None, True)  # bools are not worker counts
        with pytest.raises(ConfigurationError):
            resolve_executor(None, 2.5)
        # jobs matching the explicit executor is allowed
        executor = MultiprocessExecutor(2)
        assert resolve_executor(executor, 2) is executor

    def test_multiprocess_yields_completed_shards_before_failure(self):
        # exactly one trial (the smallest first draw) fails; every other
        # shard's finished work must still surface before the error propagates
        draws = [rng.random() for rng in spawn_rngs(0, 8)]
        threshold = min(draws) + 1e-12
        experiment = Experiment(
            name="maybe", trial=_failing_trial, parameters={"threshold": threshold}
        )
        shards = plan_shards(8, shard_size=2)
        bad = {
            shard.index
            for shard in shards
            if any(draws[i] < threshold for i in range(shard.start, shard.stop))
        }
        assert len(bad) == 1
        seeds = SeedPlan(0, 8, len(shards))
        works = [
            ShardWork(
                experiment=experiment,
                shard=shard,
                master_entropy=seeds.entropy,
                master_spawn_key=seeds.spawn_key,
            )
            for shard in shards
        ]
        survivors = []
        # one worker per shard: nothing is queued, so no shard gets cancelled
        with pytest.raises(ValueError, match="unlucky trial"):
            for result in MultiprocessExecutor(len(shards)).map(works, RunContext()):
                survivors.append(result)
        assert {result.index for result in survivors} == {
            shard.index for shard in shards
        } - bad

    def test_serial_and_multiprocess_agree(self):
        works = self._works()
        context = RunContext(telemetry=True)
        serial = sorted(SerialExecutor().map(works, context), key=lambda r: r.index)
        parallel = sorted(
            MultiprocessExecutor(3).map(works, context), key=lambda r: r.index
        )
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.telemetry_state["counters"] for r in serial] == [
            r.telemetry_state["counters"] for r in parallel
        ]

    def test_shard_result_payload_round_trip(self):
        works = self._works(budget=4, shard_size=4)
        result = works[0].run()
        clone = ShardResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert clone == result

    def test_spawned_workers_reproduce_the_serial_shards(self):
        """Spawned workers rebuild every trial stream from the master identity."""
        works = self._works()
        context = RunContext(telemetry=True)
        serial = sorted(SerialExecutor().map(works, context), key=lambda r: r.index)
        spawned = sorted(
            MultiprocessExecutor(2, start_method="spawn").map(works, context),
            key=lambda r: r.index,
        )
        assert [r.value for r in spawned] == [r.value for r in serial]
        assert [r.telemetry_state["counters"] for r in spawned] == [
            r.telemetry_state["counters"] for r in serial
        ]

    @pytest.mark.parametrize("jobs, units", [(1, 3), (4, 1)])
    def test_multiprocess_without_parallelism_runs_in_process(self, jobs, units):
        results = list(
            MultiprocessExecutor(jobs).map(
                [_PidUnit(i) for i in range(units)], RunContext()
            )
        )
        assert [result.index for result in results] == list(range(units))
        assert {result.value for result in results} == {os.getpid()}

    def test_multiprocess_runs_units_in_worker_processes(self):
        results = list(
            MultiprocessExecutor(2).map([_PidUnit(i) for i in range(4)], RunContext())
        )
        assert sorted(result.index for result in results) == [0, 1, 2, 3]
        assert os.getpid() not in {result.value for result in results}


class TestHeldPool:
    """Inside ``with executor:`` every map shares one pool; none outlives it."""

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class CountingPool(executors.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
        before = set(multiprocessing.active_children())
        yield started
        assert set(multiprocessing.active_children()) == before

    def test_maps_inside_a_block_share_one_pool(self, pools):
        executor = MultiprocessExecutor(2)
        units = [_PidUnit(i) for i in range(4)]
        with executor:
            first = {r.value for r in executor.map(units, RunContext())}
            second = {r.value for r in executor.map(units, RunContext())}
        # Both calls ran on the same two workers.
        assert len(first | second) <= 2 and os.getpid() not in first | second
        assert pools == [2]
        assert not multiprocessing.active_children()

    def test_blocks_nest_and_the_outermost_releases(self, pools):
        executor = MultiprocessExecutor(2)
        with executor:
            with executor:
                list(executor.map([_PidUnit(i) for i in range(3)], RunContext()))
            assert multiprocessing.active_children()
            list(executor.map([_PidUnit(i) for i in range(3)], RunContext()))
        assert pools == [2]
        assert not multiprocessing.active_children()

    def test_a_map_outside_a_block_holds_its_own_pool(self, pools):
        executor = MultiprocessExecutor(2)
        for _ in range(2):
            results = list(executor.map([_PidUnit(i) for i in range(3)], RunContext()))
            assert sorted(r.index for r in results) == [0, 1, 2]
            assert not multiprocessing.active_children()
        assert pools == [2, 2]

    def test_a_failure_in_a_held_pool_propagates_and_keeps_the_pool(self, pools):
        experiment = Experiment(
            name="maybe", trial=_failing_trial, parameters={"threshold": 2.0}
        )
        shards = plan_shards(16, shard_size=1)
        seeds = SeedPlan(0, 16, len(shards))
        works = [
            ShardWork(experiment, shard, seeds.entropy, seeds.spawn_key)
            for shard in shards
        ]
        executor = MultiprocessExecutor(2)
        with executor:
            with pytest.raises(ValueError, match="unlucky trial"):
                list(executor.map(works, RunContext()))
            # The pool serves the rest of the block after the failed call.
            done = list(executor.map([_PidUnit(0), _PidUnit(1)], RunContext()))
            assert sorted(r.index for r in done) == [0, 1]
        assert pools == [2]

    def test_an_abandoned_map_leaves_nothing_queued(self, pools):
        executor = MultiprocessExecutor(2)
        with executor:
            results = executor.map([_SlowUnit(i) for i in range(12)], RunContext())
            next(results)
            results.close()
            done = list(executor.map([_PidUnit(0), _PidUnit(1)], RunContext()))
            assert sorted(r.index for r in done) == [0, 1]
        assert pools == [2]

    def test_threads_sharing_an_executor(self, pools):
        # Spawned workers: forking while other threads run could deadlock.
        executor = MultiprocessExecutor(2, start_method="spawn")
        seen, errors = [], []

        def work(offset):
            try:
                with executor:
                    for _ in range(3):
                        units = [_PidUnit(offset + i) for i in range(3)]
                        done = executor.map(units, RunContext())
                        seen.append(sorted(r.index for r in done))
            except Exception as exc:  # reported below, in the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(10 * k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(seen) == sorted(
            [10 * k, 10 * k + 1, 10 * k + 2] for k in range(4) for _ in range(3)
        )
        # Blocks that overlap share a pool; each pool is shut down.
        assert 1 <= len(pools) <= 4
        assert not multiprocessing.active_children()

    def test_e1_quick_run_starts_one_pool(self, pools):
        # E1's points run several shards each, so every point maps over the
        # pool, and the run's points share the one pool.
        from repro.scenarios import get_scenario, run_scenario

        scenario = get_scenario("E1")
        serial = run_scenario(scenario, scale="quick", seed=5)
        parallel = run_scenario(scenario, scale="quick", seed=5, jobs=2)
        assert len(pools) == 1
        assert not multiprocessing.active_children()
        assert parallel.to_records() == serial.to_records()

    def test_e5_quick_run_needs_no_pool(self, pools):
        # A stacked suite runs each point as one shard, and a map of one
        # unit runs in process.
        from repro.scenarios import get_scenario, run_scenario

        scenario = get_scenario("E5")
        serial = run_scenario(scenario, scale="quick", seed=5)
        parallel = run_scenario(scenario, scale="quick", seed=5, jobs=2)
        assert pools == []
        assert parallel.to_records() == serial.to_records()


class TestShardWork:
    def test_run_returns_its_trials_in_order_and_no_telemetry_state(self):
        works = TestExecutors()._works(budget=10, shard_size=3, seed=5, mu=0.0)
        with telemetry.session() as rec:
            result = works[2].run()
        sequential = [_noise_trial({}, rng)["noise"] for rng in spawn_rngs(5, 10)]
        assert (result.index, result.start, result.stop, result.repetitions) == (
            2, 6, 9, 3
        )
        assert list(result.values["noise"]) == sequential[6:9]
        # The unit's events go to the ambient recorders; run_unit, not the
        # unit, decides whether they ship home as a state.
        assert result.telemetry_state is None
        assert rec.counters["engine.trials"] == 3

    def test_pickled_unit_size_does_not_grow_with_the_shard_or_budget(self):
        """Workers rebuild trial seeds from the master identity; none ship."""
        experiment = Experiment(name="noise", trial=_noise_trial)
        seeds = SeedPlan(0, 10**6, 10)
        small = ShardWork(experiment, Shard(0, 0, 2), seeds.entropy, seeds.spawn_key)
        large = ShardWork(
            experiment, Shard(9, 900_000, 10**6), seeds.entropy, seeds.spawn_key
        )
        assert abs(len(pickle.dumps(large)) - len(pickle.dumps(small))) <= 8

    def test_from_payload_drops_a_legacy_accumulators_entry(self):
        result = TestExecutors()._works(budget=4, shard_size=4)[0].run()
        legacy = dict(
            result.to_payload(), accumulators={"capacity": 1024, "metrics": {}}
        )
        clone = ShardResult.from_payload(legacy)
        assert clone == result
        assert "accumulators" not in clone.to_payload()


class TestRunUnit:
    """The one worker entry: context in, indexed value and telemetry out."""

    def _work(self):
        return TestExecutors()._works(budget=4, shard_size=4)[0]

    def test_snapshot_reads_the_ambient_settings(self):
        with telemetry.session():
            assert RunContext.snapshot() == RunContext(telemetry=True)
        assert RunContext.snapshot().telemetry is False

    def test_unit_without_telemetry_ships_no_state(self):
        class Probe:
            index = 3

            def run(self):
                return "done"

        result = run_unit(Probe(), RunContext())
        assert (result.index, result.value, result.telemetry_state) == (3, "done", None)

    def test_unit_on_another_thread_leaves_this_threads_events_alone(self):
        """A unit isolated on a job thread captures its own events only; what
        this thread records meanwhile reaches the session."""
        inside, recorded = threading.Event(), threading.Event()

        class Probe:
            index = 0

            def run(self):
                telemetry.counter("probe.unit")
                inside.set()
                recorded.wait(timeout=30)
                return "done"

        results = []
        context = RunContext(telemetry=True)
        with telemetry.session() as outer:
            thread = threading.Thread(
                target=lambda: results.append(run_unit(Probe(), context))
            )
            thread.start()
            assert inside.wait(timeout=30)
            for _ in range(100):
                telemetry.counter("probe.main")
            recorded.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert outer.counters == {"probe.main": 100}
        assert results[0].telemetry_state["counters"] == {"probe.unit": 1}

    def test_unit_telemetry_is_isolated_from_outer_recorders(self):
        work = self._work()
        with telemetry.session() as outer:
            result = run_unit(work, RunContext(telemetry=True))
        assert "engine.trials" not in outer.counters
        assert result.telemetry_state["counters"]["engine.trials"] == 4
        assert result.value == work.run()

    def test_merge_telemetry_folds_states_in_order_and_skips_none(self):
        state = run_unit(self._work(), RunContext(telemetry=True)).telemetry_state
        with telemetry.session() as rec:
            merge_telemetry([None, state, state])
        assert rec.counters["engine.trials"] == 8
        assert rec.counters["engine.shards"] == 2
        assert rec.timings["engine.shard_ms"].count == 2

    def test_executors_map_no_units_to_nothing(self):
        assert list(SerialExecutor().map([], RunContext())) == []
        assert list(MultiprocessExecutor(2).map([], RunContext())) == []

    def test_context_and_recorders_are_restored_when_the_unit_raises(self):
        class Failing:
            index = 0

            def run(self):
                telemetry.counter("probe.before_failure")
                raise RuntimeError("unit failed")

        with telemetry.session() as outer:
            with pytest.raises(RuntimeError, match="unit failed"):
                run_unit(Failing(), RunContext(telemetry=True))
            assert telemetry.active() == (outer,)
        assert "probe.before_failure" not in outer.counters


class TestCheckpointStore:
    def _fingerprint(self, **overrides):
        fingerprint = {
            "experiment": "noise",
            "budget": 10,
            "shard_size": 3,
            "num_shards": 4,
            "collect_values": True,
            "reservoir_capacity": 1024,
            "seed": "entropy=0;spawn_key=()",
        }
        fingerprint.update(overrides)
        return fingerprint

    def test_save_and_reload(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.initialize(self._fingerprint()) == {}
        works = TestExecutors()._works(budget=10, shard_size=3)
        result = works[1].run()
        store.save(result)
        reloaded = CheckpointStore(tmp_path / "ckpt").initialize(self._fingerprint())
        assert set(reloaded) == {1}
        assert reloaded[1] == result

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.initialize(self._fingerprint())
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path).initialize(self._fingerprint(budget=20))

    def test_corrupt_shard_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.initialize(self._fingerprint())
        (tmp_path / "shard-0000.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path).initialize(self._fingerprint())


class TestRunSharded:
    def test_progress_hook_sees_every_shard(self):
        experiment = Experiment(name="noise", trial=_noise_trial)
        calls: list[tuple[int, int, int]] = []
        result = run_sharded(
            experiment,
            budget=10,
            seed=0,
            shard_size=3,
            progress=lambda done, total, reps: calls.append((done, total, reps)),
        )
        assert result.repetitions == 10
        assert calls[-1] == (4, 4, 10)
        assert [done for done, _, _ in calls] == [1, 2, 3, 4]

    def test_values_are_in_trial_order(self):
        experiment = Experiment(name="noise", trial=_noise_trial)
        result = run_sharded(experiment, budget=9, seed=7, shard_size=2)
        sequential = [
            _noise_trial({}, rng)["noise"] for rng in spawn_rngs(7, 9)
        ]
        assert list(result.values["noise"]) == sequential

    def test_checkpoint_requires_explicit_seed(self, tmp_path):
        experiment = Experiment(name="noise", trial=_noise_trial)
        with pytest.raises(ConfigurationError, match="explicit master seed"):
            run_sharded(experiment, budget=4, seed=None, checkpoint_dir=tmp_path)

    def test_results_merge_in_shard_order_whatever_the_completion_order(self):
        experiment = Experiment(name="noise", trial=_noise_trial)
        with telemetry.session() as in_order:
            reference = run_sharded(experiment, budget=10, seed=3, shard_size=3)
        with telemetry.session() as last_first:
            reversed_run = run_sharded(
                experiment,
                budget=10,
                seed=3,
                shard_size=3,
                executor=_ReversedExecutor(),
            )
        assert reversed_run.values == reference.values
        assert last_first.counters == in_order.counters

    @pytest.mark.parametrize("recording", [False, True])
    def test_checkpointed_shards_carry_their_unit_telemetry(self, tmp_path, recording):
        experiment = Experiment(name="noise", trial=_noise_trial)
        with telemetry.session() if recording else nullcontext():
            run_sharded(
                experiment, budget=7, seed=1, shard_size=3, checkpoint_dir=tmp_path
            )
        payloads = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(tmp_path.glob("shard-*.json"))
        ]
        assert [payload["index"] for payload in payloads] == [0, 1, 2]
        assert all("accumulators" not in payload for payload in payloads)
        if recording:
            assert [
                payload["telemetry"]["counters"]["engine.trials"]
                for payload in payloads
            ] == [3, 3, 1]
        else:
            assert all(payload["telemetry"] is None for payload in payloads)

    def test_resumed_shards_contribute_their_recorded_telemetry(self, tmp_path):
        experiment = Experiment(name="noise", trial=_noise_trial)
        with telemetry.session() as first:
            run_sharded(
                experiment, budget=7, seed=1, shard_size=3, checkpoint_dir=tmp_path
            )
        (tmp_path / "shard-0001.json").unlink()
        with telemetry.session() as resumed:
            result = run_sharded(
                experiment, budget=7, seed=1, shard_size=3, checkpoint_dir=tmp_path
            )
        assert (result.shards_resumed, result.shards_executed) == (2, 1)
        assert resumed.counters["engine.trials"] == first.counters["engine.trials"] == 7
        assert resumed.counters["engine.shards"] == 3
        assert resumed.counters["engine.shards_completed"] == 1
        assert resumed.counters["engine.shards_resumed"] == 2
