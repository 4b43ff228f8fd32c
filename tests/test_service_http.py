"""End-to-end HTTP tests: stdlib urllib against a live ephemeral-port server.

This is the full serving loop the CI smoke job also exercises: submit a
scenario over the wire, poll the job, fetch the stored result, resubmit and
observe the store hit, query a cached handle — plus the error surface and
the ``repro-experiments serve`` CLI subcommand.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.service import serve

QUERY = {
    "op": "centrality",
    "measure": "harmonic",
    "graph": {"family": "clique", "params": {"n": 8}},
    "labels": {"model": "uniform", "lifetime": 16},
    "seed": 5,
}


def _call(base: str, method: str, path: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll_done(base: str, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, snapshot = _call(base, "GET", f"/jobs/{job_id}")
        assert status == 200
        if snapshot["state"] in ("done", "failed", "cancelled"):
            return snapshot
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture()
def server(tmp_path):
    with serve(data_dir=str(tmp_path / "data")) as running:
        yield running


class TestEndToEnd:
    def test_healthz(self, server):
        status, payload = _call(server.url, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema_version"] == 2

    def test_submit_poll_result_and_store_hit(self, server):
        """The CI smoke loop: run once, fetch results, resubmit = store hit."""
        base = server.url
        body = {"scenario": "clique-temporal-centrality", "scale": "quick"}

        status, job = _call(base, "POST", "/scenarios", body)
        assert status == 202
        assert job["state"] in ("queued", "running", "done")
        finished = _poll_done(base, job["id"])
        assert finished["state"] == "done" and not finished["from_store"]

        status, result = _call(base, "GET", f"/results/{job['fingerprint']}")
        assert status == 200
        assert result["status"] == "done"
        assert len(result["records"]) == 2  # quick scale: n in {16, 32}
        assert result["timings"]["run_s"] > 0

        status, again = _call(base, "POST", "/scenarios", body)
        assert status == 202
        assert again["state"] == "done"
        assert again["from_store"]
        assert again["fingerprint"] == job["fingerprint"]

        status, rerun = _call(base, "GET", f"/results/{again['fingerprint']}")
        assert json.dumps(rerun["records"], sort_keys=True) == json.dumps(
            result["records"], sort_keys=True
        )

    def test_inline_scenario_document(self, server):
        from repro.scenarios import get_scenario

        document = get_scenario("clique-temporal-centrality").to_dict()
        document["name"] = "inline-variant"
        status, job = _call(
            server.url, "POST", "/scenarios",
            {"scenario": document, "scale": "quick", "seed": 7},
        )
        assert status == 202
        assert _poll_done(server.url, job["id"])["state"] == "done"

    def test_query_and_handle_cache(self, server):
        base = server.url
        status, first = _call(base, "POST", "/query", QUERY)
        assert status == 200
        assert not first["cache_hit"]
        assert first["n"] == 8 and first["lifetime"] == 16
        assert len(first["result"]) == 8

        status, second = _call(base, "POST", "/query", QUERY)
        assert status == 200
        assert second["cache_hit"]
        assert second["graph_fingerprint"] == first["graph_fingerprint"]
        assert second["result"] == first["result"]

        status, reach = _call(
            base, "POST", "/query", dict(QUERY, op="reverse_reachable_set", target=3)
        )
        assert status == 200 and reach["cache_hit"]
        assert reach["result"] == sorted(reach["result"])

        status, row = _call(
            base, "POST", "/query", dict(QUERY, op="distances_from", source=0)
        )
        assert status == 200 and len(row["result"]) == 8 and row["result"][0] == 0

    def test_stats_reflect_traffic(self, server):
        base = server.url
        _call(base, "POST", "/query", QUERY)
        _call(base, "POST", "/query", QUERY)
        status, stats = _call(base, "GET", "/stats")
        assert status == 200
        assert stats["cache"]["hits"] >= 1 and stats["cache"]["misses"] >= 1
        assert stats["counters"]["service.requests.query"] == 2
        assert "runs" in stats["store"] and "done" in stats["jobs"]

    def test_cancel_route(self, server):
        base = server.url
        _call(
            base, "POST", "/scenarios",
            {"scenario": "clique-temporal-centrality", "scale": "quick"},
        )
        status, queued = _call(
            base, "POST", "/scenarios",
            {"scenario": "clique-temporal-centrality", "scale": "quick", "seed": 99},
        )
        status, cancelled = _call(base, "POST", f"/jobs/{queued['id']}/cancel")
        assert status == 200
        final = _poll_done(base, queued["id"])
        assert final["state"] in ("cancelled", "done")


class TestErrorSurface:
    def test_unknown_routes_are_404(self, server):
        assert _call(server.url, "GET", "/nope")[0] == 404
        assert _call(server.url, "POST", "/nope", {})[0] == 404

    def test_unknown_job_and_result_are_404(self, server):
        assert _call(server.url, "GET", "/jobs/job-9999")[0] == 404
        assert _call(server.url, "GET", "/results/deadbeef")[0] == 404

    def test_unknown_scenario_is_400(self, server):
        status, payload = _call(
            server.url, "POST", "/scenarios", {"scenario": "no-such-scenario"}
        )
        assert status == 400 and "no-such-scenario" in payload["error"]

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/scenarios",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_bad_query_op_is_400(self, server):
        status, payload = _call(
            server.url, "POST", "/query", dict(QUERY, op="no-such-op")
        )
        assert status == 400 and "no-such-op" in payload["error"]

    def test_missing_query_fields_are_400(self, server):
        body = dict(QUERY, op="latest_departure")  # source/target absent
        status, payload = _call(server.url, "POST", "/query", body)
        assert status == 400 and "source" in payload["error"]

    def test_unbuildable_query_spec_is_400_not_500(self, server):
        """Spec errors that only surface at build time (e.g. the required
        family param riding in the wrong place) map to 400."""
        body = dict(QUERY)
        body["graph"] = {"family": "clique"}  # n missing everywhere
        status, payload = _call(server.url, "POST", "/query", body)
        assert status == 400 and "invalid" in payload["error"]


class TestServeCLI:
    def test_serve_subcommand_end_to_end(self, tmp_path):
        """`repro-experiments serve` on an ephemeral port answers requests."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.registry",
                "serve", "--port", "0", "--data-dir", str(tmp_path / "data"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on http://"), line
            base = line.split()[2]
            status, health = _call(base, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, job = _call(
                base, "POST", "/scenarios",
                {"scenario": "clique-temporal-centrality", "scale": "quick"},
            )
            assert status == 202
            assert _poll_done(base, job["id"])["state"] == "done"
        finally:
            process.terminate()
            process.wait(timeout=30)

    def test_serve_rejects_unknown_kernel_backend(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.registry",
                "serve", "--port", "0", "--data-dir", str(tmp_path / "data"),
                "--kernel-backend", "no-such-backend",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert "no-such-backend" in result.stderr

