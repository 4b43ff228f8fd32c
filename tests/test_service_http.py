"""End-to-end HTTP tests: stdlib urllib against a live ephemeral-port server.

This is the full serving loop the CI smoke job also exercises: submit a
scenario over the wire, poll the job, fetch the stored result, resubmit and
observe the store hit, query a cached handle — plus the error surface, the
transport's accept threads (bursts, idle and kept-alive connections,
shutdown) and the ``repro-experiments serve`` CLI subcommand.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import serve
from repro.service.http_stdlib import ACCEPT_THREAD_NAME, ACCEPT_THREADS

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


def _accept_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == ACCEPT_THREAD_NAME]


def _idle_sockets(host: str, port: int, count: int) -> list[socket.socket]:
    """``count`` open connections that never send a byte."""
    return [socket.create_connection((host, port)) for _ in range(count)]


def _seed_query(seed: int) -> dict:
    return dict(QUERY, op="distances_from", source=0, seed=seed)


@pytest.fixture(autouse=True)
def no_accept_thread_outlives_the_test():
    yield
    assert _accept_threads() == []


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

    def test_healthz_reports_the_daemons_configuration(self, server):
        _, payload = _call(server.url, "GET", "/healthz")
        assert set(payload) == {
            "status", "schema_version", "uptime_s", "kernel_backend", "engine_jobs"
        }
        assert (payload["kernel_backend"], payload["engine_jobs"]) == ("numpy", None)

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


class TestHealthz:
    def test_a_poll_opens_no_database_connection(self, server, monkeypatch):
        store = server.app.store
        opened = []
        connect = store._connect

        def counting_connect():
            opened.append(1)
            return connect()

        monkeypatch.setattr(store, "_connect", counting_connect)
        for _ in range(3):
            status, payload = _call(server.url, "GET", "/healthz")
            assert status == 200 and payload["schema_version"] == 2
        assert opened == []
        assert store.schema_version() == 2 and opened == [1]


class TestTransport:
    def test_a_burst_of_32_queries_is_answered(self, server):
        """More simultaneous connections than socketserver's backlog of 5.

        Once the burst is over, every live accept thread waits in
        ``accept()``: a lost update of the idle count would break that.
        """
        seeds = [index % 8 for index in range(32)]
        barrier = threading.Barrier(len(seeds))

        def ask(seed):
            barrier.wait(timeout=30)
            return seed, _call(server.url, "POST", "/query", _seed_query(seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                answers = list(pool.map(ask, seeds))
        finally:
            sys.setswitchinterval(interval)
        assert [status for _, (status, _) in answers] == [200] * len(seeds)
        accept_loops = server._server
        deadline = time.monotonic() + 5
        while accept_loops._idle != len(accept_loops._threads):
            assert time.monotonic() < deadline, (accept_loops._idle, accept_loops._threads)
            time.sleep(0.01)
        assert len(accept_loops._threads) >= ACCEPT_THREADS
        by_seed: dict[int, set] = {}
        for seed, (_, payload) in answers:
            by_seed.setdefault(seed, set()).add(json.dumps(payload["result"]))
        assert sorted(by_seed) == list(range(8))
        assert all(len(results) == 1 for results in by_seed.values())

    def test_sequential_requests_start_no_thread(self, server, monkeypatch):
        for _ in range(3):
            assert _call(server.url, "POST", "/query", QUERY)[0] == 200
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for index in range(50):
            path, body = ("/query", QUERY) if index % 2 else ("/healthz", None)
            assert _call(server.url, "POST" if body else "GET", path, body)[0] == 200
        assert started == []
        assert len(_accept_threads()) == ACCEPT_THREADS

    def test_idle_connections_do_not_block_a_query(self, server):
        idle = _idle_sockets(server.host, server.port, ACCEPT_THREADS + 2)
        try:
            sent = time.perf_counter()
            status, _ = _call(server.url, "POST", "/query", QUERY)
            assert status == 200
            assert time.perf_counter() - sent < 1.0
        finally:
            for sock in idle:
                sock.close()

    def test_a_keep_alive_client_gets_several_answers_on_one_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            ports = []
            for seed in range(3):
                conn.request(
                    "POST", "/query", body=json.dumps(_seed_query(seed)),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200 and response.version == 11
                assert response.getheader("Connection") != "close"
                assert json.loads(response.read())["result"][0] == 0
                ports.append(conn.sock.getsockname()[1])
            assert len(set(ports)) == 1
        finally:
            conn.close()

    def test_stop_ends_idle_connections_and_frees_the_port(self, tmp_path):
        running = serve(data_dir=str(tmp_path / "data")).start()
        port = running.port
        assert _call(running.url, "GET", "/healthz")[0] == 200
        idle = _idle_sockets(running.host, running.port, ACCEPT_THREADS + 2)
        try:
            began = time.perf_counter()
            running.stop()
            assert time.perf_counter() - began < 5.0
            assert _accept_threads() == []
            running.stop()  # idempotent
        finally:
            for sock in idle:
                sock.close()
        again = serve(data_dir=str(tmp_path / "data"), port=port).start()
        try:
            assert again.port == port
            assert _call(again.url, "GET", "/healthz")[0] == 200
        finally:
            again.stop()


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

    @pytest.mark.parametrize("vertex", [-1, 99])
    @pytest.mark.parametrize(
        "op, field",
        [
            ("distances_from", "source"),
            ("distances_to", "target"),
            ("latest_departure", "source"),
            ("latest_departure", "target"),
            ("reverse_reachable_set", "target"),
        ],
    )
    def test_vertex_outside_the_network_is_400_not_500(self, server, op, field, vertex):
        body = dict(QUERY, op=op, source=0, target=0)  # the n = 8 clique
        body[field] = vertex
        status, payload = _call(server.url, "POST", "/query", body)
        assert status == 400 and f"field {field!r}" in payload["error"]
        assert "[0, 7]" in payload["error"]

    @pytest.mark.parametrize(
        "field, value",
        [("params", "abc"), ("graph", "clique"), ("labels", [1]), ("graph", {})],
    )
    def test_ill_typed_query_spec_is_400_not_500(self, server, field, value):
        status, payload = _call(server.url, "POST", "/query", dict(QUERY, **{field: value}))
        assert status == 400 and f"field {field!r}" in payload["error"]

    @pytest.mark.parametrize("key", ["name", "graph"])
    def test_malformed_scenario_document_is_400_not_500(self, server, key):
        from repro.scenarios import get_scenario

        document = {} if key == "name" else dict(get_scenario("E7").to_dict(), graph=3)
        status, payload = _call(server.url, "POST", "/scenarios", {"scenario": document})
        assert status == 400 and repr(key) in payload["error"]


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

    def test_serve_exits_zero_on_sigint_with_idle_connections(self, tmp_path):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.registry",
                "serve", "--port", "0", "--data-dir", str(tmp_path / "data"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        idle = []
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on http://"), line
            base = line.split()[2]
            host, port = base[len("http://") :].split(":")
            idle = _idle_sockets(host, int(port), ACCEPT_THREADS + 2)
            assert _call(base, "POST", "/query", QUERY)[0] == 200
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=10) == 0
        finally:
            for sock in idle:
                sock.close()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
            process.stdout.close()

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

