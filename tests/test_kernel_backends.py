"""The pluggable sweep-kernel backend subsystem (:mod:`repro.core.kernels`).

Five concerns are pinned here:

* **registry semantics** — names, registration, strict vs ambient
  resolution, the environment variable, process defaults, scopes, and the
  graceful-fallback warning;
* **cross-backend parity** — every available backend bit-identical to the
  ``numpy`` reference on structured families at real sizes (the exhaustive
  small-``n`` oracle pinning lives in ``tests/test_oracle_crosscheck.py``);
* **engine thread-through** — multiprocess shards run on the backend the
  driver selected, results stay jobs-invariant under a non-default backend,
  and the merged telemetry proves which backend the workers used;
* **telemetry tagging** — every sweep record carries a
  ``kernel.<dir>.backend.<name>`` counter;
* **saturation exit points** — the numpy backend's settled-entry counter
  stops every width > 1 sweep at the same label group as the scalar loops'
  rescan, so ``groups_scanned`` / ``saturation_exits`` agree across backends.

Backends that cannot run in this environment (numba not installed) are
exercised wherever possible and skipped with the registry's own reason
string otherwise.
"""

from __future__ import annotations

import warnings
import zlib

import numpy as np
import pytest

from repro import telemetry
from repro.core import kernels
from repro.core.journeys import earliest_arrival_matrix, earliest_arrival_times
from repro.core.reverse_journeys import latest_departure_matrix, latest_departure_times
from repro.engine.executors import ShardTask, ShardWork, execute_shard
from repro.engine.sharding import SeedPlan, plan_shards
from repro.exceptions import ConfigurationError
from repro.analysis_api import NetworkAnalysis
from repro import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    normalized_urtn,
    star_graph,
    uniform_random_labels,
)
from repro.experiments.exp_temporal_diameter import trial_temporal_diameter
from repro.montecarlo.experiment import Experiment
from repro.montecarlo.runner import run_trials


@pytest.fixture(autouse=True)
def _clean_selection_state(monkeypatch):
    """Isolate each test from ambient backend selection state."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    previous = kernels.set_default_backend(None)
    try:
        yield
    finally:
        kernels.set_default_backend(previous)


def _available(name: str) -> bool:
    return kernels.backend_unavailable_reason(name) is None


# --------------------------------------------------------------------- #
# registry semantics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered_in_priority_order(self):
        names = kernels.backend_names()
        assert names == ("numba", "numpy", "python")

    def test_numpy_and_python_always_available(self):
        assert _available("numpy")
        assert _available("python")

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            kernels.get_backend("fortran")

    def test_builtin_backends_satisfy_protocol(self):
        for name in kernels.backend_names():
            assert isinstance(kernels.get_backend(name), kernels.SweepKernelBackend)

    def test_duplicate_registration_needs_replace(self):
        backend = kernels.get_backend("python")
        with pytest.raises(ConfigurationError, match="already registered"):
            kernels.register_backend(backend)
        kernels.register_backend(backend, replace=True)  # restores itself

    def test_auto_name_is_reserved(self):
        class Impostor:
            name = "auto"
            priority = 99

        with pytest.raises(ConfigurationError, match="invalid kernel backend name"):
            kernels.register_backend(Impostor())

    def test_auto_selection_never_picks_negative_priority(self):
        # python (priority < 0) is always available yet must never win auto.
        assert kernels.resolve_backend(None).name != "python"
        assert kernels.default_backend() != "python"

    def test_explicit_request_for_unusable_backend_raises(self):
        if kernels.backend_unavailable_reason("numba") is not None:
            with pytest.raises(ConfigurationError, match="not usable here"):
                kernels.resolve_backend("numba")

    def test_available_backends_subset_of_names(self):
        available = kernels.available_backends()
        assert set(available) <= set(kernels.backend_names())
        assert "numpy" in available


class TestSelection:
    def test_per_call_keyword_is_strict(self, clique64):
        with pytest.raises(ConfigurationError):
            earliest_arrival_matrix(clique64, backend="no-such-backend")

    def test_set_default_backend_round_trip(self):
        assert kernels.set_default_backend("python") is None
        try:
            assert kernels.default_backend() == "python"
        finally:
            assert kernels.set_default_backend(None) == "python"

    def test_set_default_backend_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            kernels.set_default_backend("no-such-backend")
        assert kernels.default_backend() != "no-such-backend"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        assert kernels.resolve_backend(None).name == "python"

    def test_env_var_fallback_warns_once(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "bogus-env-backend")
        with pytest.warns(RuntimeWarning, match="falling back to automatic"):
            first = kernels.resolve_backend(None)
        assert first.name in kernels.available_backends()
        # Second resolution: same fallback, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.resolve_backend(None).name == first.name

    def test_backend_scope_restores_previous_default(self):
        kernels.set_default_backend("numpy")
        with kernels.backend_scope("python"):
            assert kernels.default_backend() == "python"
        assert kernels.default_backend() == "numpy"

    def test_backend_scope_strict_raises(self):
        with pytest.raises(ConfigurationError):
            with kernels.backend_scope("no-such-backend"):
                pass  # pragma: no cover

    def test_backend_scope_nonstrict_degrades_to_auto(self):
        with pytest.warns(RuntimeWarning, match="falling back to automatic"):
            with kernels.backend_scope("bogus-worker-backend", strict=False):
                assert kernels.default_backend() in kernels.available_backends()


# --------------------------------------------------------------------- #
# cross-backend parity at real sizes
# --------------------------------------------------------------------- #
def _parity_instances(n: int):
    """Structured families × seeds at size ``n`` (hypercube needs 2^k)."""
    dimension = int(np.log2(n))
    assert 2**dimension == n
    instances = {}
    for seed in (0, 1):
        instances[f"complete-{n}-{seed}"] = normalized_urtn(
            complete_graph(n, directed=True), seed=seed
        )
        instances[f"er-{n}-{seed}"] = uniform_random_labels(
            erdos_renyi_graph(n, min(1.0, 8.0 / n), directed=True, seed=seed),
            lifetime=2 * n,
            labels_per_edge=2,
            seed=seed + 10,
        )
        instances[f"star-{n}-{seed}"] = normalized_urtn(star_graph(n - 1), seed=seed)
        instances[f"hypercube-{n}-{seed}"] = uniform_random_labels(
            hypercube_graph(dimension), lifetime=3 * dimension, seed=seed + 20
        )
    return instances


def _assert_backend_matches_reference(network, backend: str) -> None:
    np.testing.assert_array_equal(
        earliest_arrival_matrix(network, backend=backend),
        earliest_arrival_matrix(network, backend="numpy"),
    )
    np.testing.assert_array_equal(
        latest_departure_matrix(network, backend=backend),
        latest_departure_matrix(network, backend="numpy"),
    )
    probes = range(0, network.n, max(1, network.n // 4))
    deadline = max(1, network.lifetime // 2)
    for vertex in probes:
        np.testing.assert_array_equal(
            earliest_arrival_times(network, vertex, backend=backend),
            earliest_arrival_times(network, vertex, backend="numpy"),
        )
        np.testing.assert_array_equal(
            latest_departure_times(
                network, vertex, deadline=deadline, backend=backend
            ),
            latest_departure_times(
                network, vertex, deadline=deadline, backend="numpy"
            ),
        )


def _compiled_backend_params():
    reason = kernels.backend_unavailable_reason("numba")
    marks = (
        [pytest.mark.skip(reason=f"backend 'numba': {reason}")]
        if reason is not None
        else []
    )
    return [pytest.param("numba", marks=marks, id="numba")]


class TestBackendParity:
    """Every backend bit-identical to the numpy reference at n ∈ {64, 256}.

    The interpreted ``python`` backend runs the n=64 matrix (exact same loop
    bodies as the compiled backends, so n=256 adds only wall-clock, not
    coverage); compiled backends run both sizes.
    """

    @pytest.mark.parametrize(
        "instance_id", sorted(_parity_instances(64)), ids=str
    )
    def test_python_backend_n64(self, instance_id):
        network = _parity_instances(64)[instance_id]
        _assert_backend_matches_reference(network, "python")

    @pytest.mark.parametrize("backend", _compiled_backend_params())
    @pytest.mark.parametrize("n", [64, 256], ids=["n64", "n256"])
    def test_compiled_backends(self, backend, n):
        for network in _parity_instances(n).values():
            _assert_backend_matches_reference(network, backend)


# --------------------------------------------------------------------- #
# saturation exit points
# --------------------------------------------------------------------- #
def _exit_point_instances():
    """Small structured families × seeds, plus one single-label clique."""
    instances = {}
    for seed in range(3):
        instances[f"complete-12-{seed}"] = normalized_urtn(
            complete_graph(12, directed=True), seed=seed
        )
        instances[f"er-24-{seed}"] = uniform_random_labels(
            erdos_renyi_graph(24, 0.2, directed=True, seed=seed),
            lifetime=30,
            labels_per_edge=2,
            seed=seed + 10,
        )
        instances[f"star-16-{seed}"] = normalized_urtn(star_graph(15), seed=seed)
        instances[f"hypercube-16-{seed}"] = uniform_random_labels(
            hypercube_graph(4), lifetime=12, seed=seed + 20
        )
        instances[f"grid-5x5-{seed}"] = uniform_random_labels(
            grid_graph(5, 5), lifetime=8, seed=seed + 30
        )
    # One label value on every arc: the first improving group settles
    # every reachable entry, so the sweep saturates right there.
    instances["complete-8-single-label"] = uniform_random_labels(
        complete_graph(8, directed=True), lifetime=1, seed=0
    )
    return instances


def _exit_point(network, backend, direction, rows, time):
    """``(groups_scanned, saturation_exits)`` of one width > 1 sweep."""
    with telemetry.session() as recorder:
        if direction == "forward":
            earliest_arrival_matrix(network, rows, start_time=time, backend=backend)
        else:
            latest_departure_matrix(network, rows, deadline=time, backend=backend)
    counters = recorder.counters
    return (
        counters[f"kernel.{direction}.groups_scanned"],
        counters.get(f"kernel.{direction}.saturation_exits", 0),
    )


class TestSaturationExitPoints:
    """The numpy backend counts settled entries; the scalar loops rescan.

    Both must stop at the same label group, so the ``python`` backend (the
    loops' own scan, interpreted) is the reference for the numpy backend's
    ``groups_scanned`` and ``saturation_exits`` on every width > 1 sweep.
    """

    DRAWS = 20

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", sorted(_exit_point_instances()), ids=str)
    def test_numpy_exits_where_the_scalar_scan_does(self, instance_id, direction):
        network = _exit_point_instances()[instance_id]
        rng = np.random.default_rng(zlib.crc32(f"{instance_id}/{direction}".encode()))
        for _ in range(self.DRAWS):
            width = int(rng.integers(2, network.n + 1))
            rows = np.sort(rng.choice(network.n, size=width, replace=False))
            time = int(rng.integers(0, network.lifetime + 3))
            assert _exit_point(network, "numpy", direction, rows, time) == _exit_point(
                network, "python", direction, rows, time
            ), (rows.tolist(), time)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_grid_never_saturates(self, direction):
        network = _exit_point_instances()["grid-5x5-0"]
        time = 0 if direction == "forward" else network.lifetime
        groups = np.unique(network.time_arc_labels).size
        for backend in ("numpy", "python"):
            assert _exit_point(
                network, backend, direction, np.arange(network.n), time
            ) == (groups, 0)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_saturates_on_first_improving_group(self, direction):
        network = _exit_point_instances()["complete-8-single-label"]
        time = 0 if direction == "forward" else network.lifetime
        for backend in ("numpy", "python"):
            assert _exit_point(
                network, backend, direction, np.arange(network.n), time
            ) == (1, 1)


@pytest.fixture
def clique64():
    return normalized_urtn(complete_graph(64, directed=True), seed=0)


# --------------------------------------------------------------------- #
# telemetry tagging
# --------------------------------------------------------------------- #
class TestTelemetryBackendTag:
    def test_forward_and_reverse_records_carry_backend(self, clique64):
        with telemetry.session() as recorder:
            earliest_arrival_matrix(clique64, backend="numpy")
            earliest_arrival_times(clique64, 0, backend="python")
            latest_departure_matrix(clique64, backend="numpy")
            latest_departure_times(clique64, 0, backend="python")
        assert recorder.counters["kernel.forward.backend.numpy"] == 1
        assert recorder.counters["kernel.forward.backend.python"] == 1
        assert recorder.counters["kernel.reverse.backend.numpy"] == 1
        assert recorder.counters["kernel.reverse.backend.python"] == 1

    def test_ambient_selection_is_tagged_too(self, clique64):
        kernels.set_default_backend("python")
        with telemetry.session() as recorder:
            earliest_arrival_times(clique64, 0)
        assert recorder.counters["kernel.forward.backend.python"] == 1


# --------------------------------------------------------------------- #
# analysis handle pinning
# --------------------------------------------------------------------- #
class TestAnalysisHandleBackend:
    def test_unknown_backend_rejected_at_construction(self, clique64):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            NetworkAnalysis(clique64, kernel_backend="no-such-backend")

    def test_pinned_backend_matches_default(self, clique64):
        pinned = NetworkAnalysis(clique64, kernel_backend="python")
        reference = NetworkAnalysis(clique64)
        np.testing.assert_array_equal(
            pinned.arrival_matrix(), reference.arrival_matrix()
        )
        np.testing.assert_array_equal(
            pinned.departure_matrix(), reference.departure_matrix()
        )
        assert pinned.summary == reference.summary

    def test_pinned_backend_is_used_and_inherited(self, clique64):
        pinned = NetworkAnalysis(clique64, kernel_backend="python")
        with telemetry.session() as recorder:
            pinned.distance(0, 1)
        assert recorder.counters["kernel.forward.backend.python"] == 1
        child = pinned.restricted_to_max_label(clique64.lifetime // 2)
        with telemetry.session() as recorder:
            child.latest_departure(0, 1)
        assert recorder.counters["kernel.reverse.backend.python"] == 1


# --------------------------------------------------------------------- #
# engine thread-through
# --------------------------------------------------------------------- #
#: A real paper workload whose trials run forward sweeps (E1 temporal
#: diameter), so worker-side ``kernel.*`` telemetry proves which backend ran.
SWEEP_EXPERIMENT = Experiment(
    name="E1-temporal-diameter",
    trial=trial_temporal_diameter,
    parameters={"n": 16, "directed": True},
)


class TestEngineThreadThrough:
    def test_shard_task_ships_the_selected_backend(self):
        """execute_shard installs the task's backend; telemetry proves it ran."""
        shard = plan_shards(4)[0]
        seeds = SeedPlan(2014, 4, 1)
        work = ShardWork(
            task=ShardTask(
                experiment=SWEEP_EXPERIMENT,
                telemetry=True,
                kernel_backend="python",
            ),
            shard=shard,
            master_entropy=seeds.entropy,
            master_spawn_key=seeds.spawn_key,
            budget=4,
        )
        result = execute_shard(work)
        assert result.telemetry_state is not None
        counters = result.telemetry_state["counters"]
        assert counters["kernel.forward.backend.python"] > 0
        assert not any(
            name.startswith("kernel.forward.backend.")
            and not name.endswith(".python")
            for name in counters
        )

    def test_unusable_backend_in_worker_falls_back_not_dies(self):
        shard = plan_shards(2)[0]
        seeds = SeedPlan(7, 2, 1)
        work = ShardWork(
            task=ShardTask(
                experiment=SWEEP_EXPERIMENT, kernel_backend="bogus-shipped-backend"
            ),
            shard=shard,
            master_entropy=seeds.entropy,
            master_spawn_key=seeds.spawn_key,
            budget=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = execute_shard(work)
        assert result.repetitions == shard.stop - shard.start

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_jobs_invariant_and_workers_use_backend(self, jobs):
        """jobs ∈ {1, 2} bit-identical under a pinned non-default backend,
        and the merged telemetry shows the workers swept on it."""
        with kernels.backend_scope("python"):
            with telemetry.session() as recorder:
                result = run_trials(
                    SWEEP_EXPERIMENT, repetitions=8, seed=2014, jobs=jobs
                )
            assert recorder.counters["kernel.forward.backend.python"] > 0
        reference = run_trials(SWEEP_EXPERIMENT, repetitions=8, seed=2014, jobs=1)
        assert result.metrics == reference.metrics

    @pytest.mark.parametrize("backend", _compiled_backend_params())
    def test_jobs_parity_on_compiled_backend(self, backend):
        """ISSUE pin: jobs ∈ {1, 2} bit-identical under the numba backend."""
        with kernels.backend_scope(backend):
            serial = run_trials(SWEEP_EXPERIMENT, repetitions=8, seed=2014, jobs=1)
            fanned = run_trials(SWEEP_EXPERIMENT, repetitions=8, seed=2014, jobs=2)
        assert serial.metrics == fanned.metrics
        reference = run_trials(SWEEP_EXPERIMENT, repetitions=8, seed=2014, jobs=1)
        assert serial.metrics == reference.metrics
