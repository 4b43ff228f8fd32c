"""The shared fingerprint module: canonical JSON, digests, checkpoint parity.

The checkpoint fingerprint formats predate ``repro.utils.fingerprint`` — they
used to live inline in ``engine/driver.py`` and ``engine/sharding.py``.  The
parity tests here replicate that pre-refactor logic literally and assert the
factored-out helpers produce byte-identical output, so every checkpoint
directory written before the refactor still resumes after it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.temporal_graph import TemporalGraph
from repro.engine.driver import run_sharded
from repro.engine.sharding import SeedPlan
from repro.exceptions import ConfigurationError
from repro.graphs.generators import complete_graph, star_graph
from repro.montecarlo.experiment import Experiment
from repro.scenarios import Scenario, get_scenario, normalize_param_expr
from repro.utils.fingerprint import (
    canonical_json,
    checkpoint_fingerprint,
    fingerprint,
    graph_fingerprint,
    parameters_digest,
    seed_fingerprint,
)


class TestCanonicalJson:
    def test_key_order_invariance(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": None}) == '{"a":null,"b":[1,2]}'

    def test_tuples_serialise_as_lists(self):
        assert canonical_json((1, 2)) == "[1,2]"

    def test_numpy_scalars_coerce(self):
        assert canonical_json({"n": np.int64(4), "x": np.float64(0.5)}) == (
            '{"n":4,"x":0.5}'
        )

    def test_non_jsonable_raises(self):
        with pytest.raises(TypeError):
            canonical_json({"rng": np.random.default_rng(0)})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestFingerprintDigest:
    def test_stable_hex_digest(self):
        digest = fingerprint({"a": 1})
        assert digest == fingerprint({"a": 1})
        assert len(digest) == 32
        int(digest, 16)  # hex

    def test_structural_equality_is_identity(self):
        assert fingerprint({"b": (1, 2), "a": "x"}) == fingerprint(
            {"a": "x", "b": [1, 2]}
        )

    def test_different_payloads_differ(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})


class TestCheckpointParity:
    """The factored helpers must reproduce the pre-refactor formats exactly."""

    def test_parameters_digest_matches_legacy_format(self):
        parameters = {"n": 64, "p": 0.5, "label": "box"}
        # Pre-refactor: engine/driver.py::_parameters_digest, verbatim.
        legacy = repr(
            sorted((str(key), repr(value)) for key, value in parameters.items())
        )
        assert parameters_digest(parameters) == legacy

    def test_seed_fingerprint_matches_legacy_format(self):
        plan = SeedPlan(1234, budget=8, num_shards=2)
        # Pre-refactor: engine/sharding.py::SeedPlan.fingerprint, verbatim.
        legacy = f"entropy={plan.sequence.entropy!r};spawn_key={plan.spawn_key!r}"
        assert plan.fingerprint() == legacy
        assert seed_fingerprint(plan.sequence.entropy, plan.spawn_key) == legacy

    def test_checkpoint_meta_on_disk_is_byte_identical_to_legacy(self, tmp_path):
        """A full engine run writes the same ``meta.json`` bytes as before."""

        def trial(params, rng):
            return {"value": float(rng.random())}

        experiment = Experiment(
            name="parity", trial=trial, parameters={"n": 8, "mode": "quick"}
        )
        run_sharded(
            experiment,
            budget=6,
            seed=99,
            shard_size=3,
            checkpoint_dir=tmp_path,
        )
        written = (tmp_path / "meta.json").read_bytes()

        # The exact dict driver.run_sharded built before the refactor, with
        # the same key insertion order, serialised the same way
        # CheckpointStore always has.
        seeds = SeedPlan(99, 6, 2)
        legacy_meta = {
            "experiment": "parity",
            "parameters": repr(
                sorted(
                    (str(k), repr(v))
                    for k, v in {"n": 8, "mode": "quick"}.items()
                )
            ),
            "budget": 6,
            "shard_size": 3,
            "num_shards": 2,
            "collect_values": True,
            "reservoir_capacity": 1024,
            "seed": f"entropy={seeds.sequence.entropy!r};spawn_key={seeds.spawn_key!r}",
            "format_version": 1,
        }
        assert written == json.dumps(legacy_meta).encode("utf-8")

    def test_checkpoint_fingerprint_key_order(self):
        payload = checkpoint_fingerprint(
            experiment="e",
            parameters={},
            budget=1,
            shard_size=1,
            num_shards=1,
            seed="entropy=1;spawn_key=()",
        )
        assert list(payload) == [
            "experiment",
            "parameters",
            "budget",
            "shard_size",
            "num_shards",
            "collect_values",
            "reservoir_capacity",
            "seed",
        ]


class TestGraphFingerprint:
    def test_constructor_independence(self):
        """Mapping and label-matrix constructors fingerprint identically."""
        graph = complete_graph(6, directed=True)
        rng = np.random.default_rng(3)
        matrix = rng.integers(1, 7, size=(graph.m, 2))
        via_matrix = TemporalGraph.from_label_matrix(graph, matrix, lifetime=6)
        via_mapping = TemporalGraph(
            graph,
            {i: matrix[i].tolist() for i in range(graph.m)},
            lifetime=6,
        )
        assert graph_fingerprint(via_matrix) == graph_fingerprint(via_mapping)

    def test_label_change_changes_fingerprint(self):
        graph = star_graph(5)
        base = TemporalGraph(graph, {i: [1] for i in range(graph.m)}, lifetime=5)
        tweaked_labels = {i: [1] for i in range(graph.m)}
        tweaked_labels[0] = [2]
        tweaked = TemporalGraph(graph, tweaked_labels, lifetime=5)
        assert graph_fingerprint(base) != graph_fingerprint(tweaked)

    def test_lifetime_change_changes_fingerprint(self):
        graph = star_graph(5)
        labels = {i: [1] for i in range(graph.m)}
        assert graph_fingerprint(
            TemporalGraph(graph, labels, lifetime=5)
        ) != graph_fingerprint(TemporalGraph(graph, labels, lifetime=6))

    def test_deterministic_across_calls(self):
        graph = complete_graph(5, directed=True)
        network = TemporalGraph(graph, {i: [1, 3] for i in range(graph.m)})
        assert graph_fingerprint(network) == graph_fingerprint(network)


class TestNormalizeParamExpr:
    def test_whitespace_variants_collapse(self):
        assert (
            normalize_param_expr("multiplier*n")
            == normalize_param_expr("multiplier * n")
            == normalize_param_expr("  multiplier  *  n ")
            == "multiplier * n"
        )

    def test_numeric_literals_canonicalise(self):
        assert normalize_param_expr("04 * n") == "4 * n"
        assert normalize_param_expr("0.50 * n") == "0.5 * n"

    def test_non_strings_pass_through(self):
        assert normalize_param_expr(7) == 7
        assert normalize_param_expr(None) is None

    def test_malformed_raises(self):
        with pytest.raises(ConfigurationError):
            normalize_param_expr("a * * b")


class TestScenarioFingerprint:
    def test_round_trip_stable(self):
        for name in ("E1", "E5", "clique-temporal-centrality"):
            scenario = get_scenario(name)
            assert Scenario.from_json(scenario.to_json()).fingerprint() == (
                scenario.fingerprint()
            )

    def test_dict_key_order_invariance(self):
        scenario = get_scenario("hypercube-urtn-diameter")
        data = scenario.to_dict()
        reordered = {key: data[key] for key in reversed(list(data))}
        assert Scenario.from_dict(reordered).fingerprint() == scenario.fingerprint()

    def test_param_expression_formatting_invariance(self):
        base = get_scenario("E1")
        data = base.to_dict()
        lifetime = data["labels"]["lifetime"]
        assert isinstance(lifetime, str) and "*" not in lifetime
        # A spelled-out product with odd spacing evaluating to the same thing.
        data["labels"]["lifetime"] = f"1 *   {lifetime}"
        variant_same = Scenario.from_dict(data)
        base_payload = base.fingerprint_payload()
        variant_payload = variant_same.fingerprint_payload()
        assert variant_payload["labels"]["lifetime"] == f"1 * {lifetime}"
        # Whitespace alone never changes the digest:
        data["labels"]["lifetime"] = f"1*{lifetime}"
        assert Scenario.from_dict(data).fingerprint() == variant_same.fingerprint()
        del base_payload

    def test_cosmetic_fields_excluded(self):
        scenario = get_scenario("E7")
        data = scenario.to_dict()
        data["title"] = "a different title"
        data["description"] = "a different description"
        assert Scenario.from_dict(data).fingerprint() == scenario.fingerprint()

    def test_material_fields_included(self):
        scenario = get_scenario("E7")
        data = scenario.to_dict()
        data["default_seed"] = (data.get("default_seed") or 0) + 1
        assert Scenario.from_dict(data).fingerprint() != scenario.fingerprint()

    def test_distinct_scenarios_distinct_fingerprints(self):
        from repro.scenarios import iter_scenarios

        digests = [scenario.fingerprint() for scenario in iter_scenarios()]
        assert len(digests) == len(set(digests))
