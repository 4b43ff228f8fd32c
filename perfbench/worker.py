"""One measured pass of one benchmark workload, in a fresh process.

Usage (``run.py`` starts it; the program under test must be importable, i.e.
``PYTHONPATH`` names the checkout's ``src``)::

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --work-dir DIR [--setup-only]

The worker sets its workload up, prints ``ready`` and flushes, runs one pass,
and prints one JSON line: the pass wall clock, the peak RSS of the process
doing the work, output digests, the outcome of the checks that need no stored
digest, the service's query latencies and counters (``service_mixed``), and
(``--trace 1``) the per-layer split.  An untraced pass runs under a
:class:`speed.SpeedClock`, which also reports the pass's time at the host's
quiet-phase speed (``norm_wall_s``).  The program runs unpatched unless the
pass is traced.  ``run.py`` times set-up from the process start to the
``ready`` line, so set-up includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

from speed import SpeedClock

HERE = Path(__file__).resolve().parent

#: reproduce: the paper's nine experiments at the default scale.
REPRODUCE_SCALE = "default"

#: blocked_grid: one sparse instance swept in tiles, forward then reverse.
GRID_ROWS = GRID_COLS = 100
GRID_LIFETIME = 64
GRID_LABEL_SEED = 42
GRID_TILE = 256

#: service_mixed: the request stream.
SERVICE_QUERIES = 1000
SERVICE_INSTANCES = 48
SERVICE_N = 256
SERVICE_JOB_EVERY = 150
SERVICE_JOB_SCENARIO = "er-fcase-reachability"
SERVICE_JOB_SCALE = "default"
SERVICE_POLL_S = 0.05
QUERY_OPS = (
    "distances_from",
    "distances_to",
    "latest_departure",
    "reverse_reachable_set",
    "centrality",
)
CENTRALITY_MEASURES = ("closeness", "harmonic", "influence", "reach")


def digest(payload: Any) -> str:
    """Short stable digest of a JSON-compatible value (floats kept exact)."""
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _json_default(value: Any) -> Any:
    if hasattr(value, "tolist"):
        return value.tolist()
    return repr(value)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready(setup: SpeedClock) -> None:
    """End set-up: tell ``run.py``, with the gauge's view of the set-up.

    ``run.py`` times set-up from the process start to this line; it takes
    the gauge runs out of that and scales the rest by the host's slowdown.
    """
    setup.stop()
    report = {"gauge_s": sum(setup.gauge_s), "slowdown": setup.slowdown}
    print("ready " + json.dumps(report), flush=True)


def pin_numpy_backend() -> str:
    from repro.core import kernels

    kernels.set_default_backend("numpy")
    return kernels.default_backend()


def install_tracer():
    """A tracer with every layer entry point of this process wrapped."""
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def span(tracer, name: str):
    """The benchmark's own span around a call into a layer (no-op untraced)."""
    return nullcontext() if tracer is None else tracer.span(name)


def pass_clock(trace: bool, gauge: str, timer: bool = True) -> SpeedClock | None:
    """The clock of an untraced pass; a traced pass runs without one, so that
    no gauge run lands inside a layer span."""
    return None if trace else SpeedClock(gauge, timer=timer)


def pass_times(clock: SpeedClock | None, wall: float) -> dict[str, float]:
    if clock is None:
        return {"wall_s": wall}
    return {"wall_s": clock.raw_s, "norm_wall_s": clock.norm_s, "slowdown": clock.slowdown}


# --------------------------------------------------------------------- #
# telemetry counts (read from the program's own counters, never its timers)
# --------------------------------------------------------------------- #
def telemetry_counts(counters: dict[str, int]) -> dict[str, float]:
    def total(suffix: str) -> int:
        return sum(
            counters.get(f"kernel.{direction}.{suffix}", 0)
            for direction in ("forward", "reverse")
        )

    sweeps = total("sweeps")
    hits = sum(v for k, v in counters.items() if k.startswith("analysis.cache_hit."))
    computes = sum(v for k, v in counters.items() if k.startswith("analysis.compute."))
    return {
        "kernel.sweeps": sweeps,
        "kernel.groups_scanned": total("groups_scanned"),
        "kernel.groups_per_sweep": total("groups_scanned") / sweeps if sweeps else 0.0,
        "kernel.saturation_rate": total("saturation_exits") / sweeps if sweeps else 0.0,
        "analysis.cache_hit_rate": hits / (hits + computes) if hits + computes else 0.0,
        "engine.trials": counters.get("engine.trials", 0),
        "engine.shards": counters.get("engine.shards", 0),
    }


def layer_split(tracer, wall_ms: float) -> dict[str, float]:
    """The per-layer self times of one traced pass, plus what no span saw."""
    layers = tracer.layer_self_ms()
    attributed = sum(layers.values())
    return {
        "labels.sample_ms": layers["labels"],
        "graph.build_ms": layers["graph"],
        "csr.build_ms": layers["csr"],
        "csr.builds": tracer.calls.get("csr.forward", 0) + tracer.calls.get("csr.reverse", 0),
        "kernel.forward.sweep_ms": tracer.self_ms("kernel.forward", "kernel.forward.entry"),
        "kernel.reverse.sweep_ms": tracer.self_ms("kernel.reverse", "kernel.reverse.entry"),
        "analysis.reduce_ms": layers["analysis"],
        "blocked.sweep_ms.forward": tracer.self_ms("blocked.sweep.forward"),
        "blocked.sweep_ms.reverse": tracer.self_ms("blocked.sweep.reverse"),
        "blocked.reduce_ms": tracer.self_ms("blocked.reduce"),
        "blocked.tiles": tracer.calls.get("blocked.reduce", 0),
        "scenario.metric_ms": tracer.self_ms("scenario.metric"),
        "scenario.trial_ms": tracer.self_ms("scenario.trial"),
        "direct.point_ms": layers["direct"],
        "engine.overhead_ms": layers["engine"],
        "service.app_ms": sum(
            ns for name, ns in tracer.self_ns.items() if name.startswith("service.app.")
        )
        / 1e6,
        "service.cache_ms": tracer.self_ms("service.cache"),
        "service.store_ms": tracer.self_ms("service.store"),
        "trace.wall_ms": wall_ms,
        "unattributed_ms": wall_ms - attributed,
    }


# --------------------------------------------------------------------- #
# reproduce
# --------------------------------------------------------------------- #
def reproduce(
    seed: int, trace: bool, work_dir: Path, setup_only: bool, setup: SpeedClock
) -> dict[str, Any]:
    backend = pin_numpy_backend()
    from repro import telemetry
    from repro.scenarios import experiment_scenarios, run_scenario

    scenarios = experiment_scenarios()
    ready(setup)
    if setup_only:
        return {}
    result: dict[str, Any] = {"backend": backend}
    tracer = install_tracer() if trace else None
    clock = pass_clock(trace, "interpreter")
    records: dict[str, Any] = {}
    scenario_s: dict[str, float] = {}
    with telemetry.session() if trace else clock as rec:
        start = time.perf_counter()
        for name, scenario in scenarios.items():
            scenario_start = time.perf_counter()
            with span(tracer, "engine.run_scenario"):
                run = run_scenario(
                    scenario, scale=REPRODUCE_SCALE, seed=scenario.default_seed + seed
                )
            records[name] = run.to_records()
            scenario_s[name] = time.perf_counter() - scenario_start
        wall = time.perf_counter() - start
    result.update(
        **pass_times(clock, wall),
        scenario_s=scenario_s,
        peak_rss_mib=peak_rss_mib(),
        digests={name: digest(rows) for name, rows in records.items()},
        checks={
            "attempted": len(records),
            "failed": sum(1 for rows in records.values() if not rows),
            "errors": [f"{name} produced no records" for name, rows in records.items() if not rows],
        },
    )
    if tracer is not None:
        layers = layer_split(tracer, wall * 1e3)
        layers.update(telemetry_counts(rec.counters))
        result["layers"] = layers
    return result


# --------------------------------------------------------------------- #
# blocked_grid
# --------------------------------------------------------------------- #
def blocked_grid(
    seed: int, trace: bool, work_dir: Path, setup_only: bool, setup: SpeedClock
) -> dict[str, Any]:
    backend = pin_numpy_backend()
    from repro import grid_graph, telemetry, uniform_random_labels
    from repro.core import blocked_sweeps

    network = uniform_random_labels(
        grid_graph(GRID_ROWS, GRID_COLS),
        lifetime=GRID_LIFETIME,
        labels_per_edge=1,
        seed=GRID_LABEL_SEED + seed,
    )
    ready(setup)
    if setup_only:
        return {}
    tracer = install_tracer() if trace else None
    clock = pass_clock(trace, "memory")
    sweeps = {}
    with telemetry.session() if trace else clock as rec:
        start = time.perf_counter()
        for direction in ("forward", "reverse"):
            with span(tracer, f"blocked.sweep.{direction}"):
                sweeps[direction] = blocked_sweeps.blocked_sweep_summary(
                    network, tile_size=GRID_TILE, direction=direction
                )
        wall = time.perf_counter() - start
    forward, reverse = sweeps["forward"], sweeps["reverse"]
    errors = []
    if forward.summary.reachable_fraction != reverse.summary.reachable_fraction:
        errors.append(
            "forward and reverse disagree on reachable_fraction: "
            f"{forward.summary.reachable_fraction} != {reverse.summary.reachable_fraction}"
        )
    result: dict[str, Any] = {
        "backend": backend,
        **pass_times(clock, wall),
        "peak_rss_mib": peak_rss_mib(),
        "digests": {
            f"{direction}.{part}": digest(value)
            for direction, sweep in sweeps.items()
            for part, value in (
                ("summary", repr(sweep.summary)),
                ("eccentricities", sweep.eccentricities),
                ("reach_counts", sweep.reach_counts),
            )
        },
        "checks": {"attempted": len(sweeps), "failed": len(errors), "errors": errors},
    }
    if tracer is not None:
        layers = layer_split(tracer, wall * 1e3)
        layers.update(telemetry_counts(rec.counters))
        layers["blocked.state_bytes"] = network.n * GRID_TILE * 8
        result["layers"] = layers
    return result


# --------------------------------------------------------------------- #
# service_mixed
# --------------------------------------------------------------------- #
def service_stream(seed: int) -> list[dict[str, Any]]:
    """The seeded request stream: queries over 48 cliques, and job submissions."""
    rng = random.Random(seed)
    instance_seeds = [seed * 1000 + k for k in range(SERVICE_INSTANCES)]
    stream: list[dict[str, Any]] = []
    job_seeds: list[int] = []
    for index in range(SERVICE_QUERIES):
        if index % SERVICE_JOB_EVERY == SERVICE_JOB_EVERY // 2:
            # Every third submission repeats the previous one: a store hit.
            if job_seeds and len(job_seeds) % 3 == 2:
                job_seed = job_seeds[-1]
            else:
                job_seed = 100_000 + seed * 100 + len(job_seeds)
            job_seeds.append(job_seed)
            stream.append(
                {
                    "kind": "job",
                    "body": {
                        "scenario": SERVICE_JOB_SCENARIO,
                        "scale": SERVICE_JOB_SCALE,
                        "seed": job_seed,
                    },
                }
            )
        op = rng.choice(QUERY_OPS)
        body: dict[str, Any] = {
            "op": op,
            "graph": {"family": "clique", "params": {"n": SERVICE_N, "directed": True}},
            "labels": {"model": "uniform", "lifetime": SERVICE_N},
            "seed": rng.choice(instance_seeds),
        }
        if op in ("distances_from", "latest_departure"):
            body["source"] = rng.randrange(SERVICE_N)
        if op in ("distances_to", "latest_departure", "reverse_reachable_set"):
            body["target"] = rng.randrange(SERVICE_N)
        if op == "centrality":
            body["measure"] = rng.choice(CENTRALITY_MEASURES)
        stream.append({"kind": "query", "body": body})
    return stream


class Client:
    """One connection per request, never two at once (a closed loop)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()


def start_daemon(trace_out: Path | None, data_dir: Path) -> tuple[subprocess.Popen, str, int]:
    serve = [
        "serve",
        "--port", "0",
        "--data-dir", str(data_dir),
        "--kernel-backend", "numpy",
    ]
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro.experiments.registry", *serve]
    else:
        cmd = [sys.executable, str(HERE / "daemon.py"), str(trace_out), *serve]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    line = proc.stdout.readline()
    if not line.startswith("serving on http://"):
        stop_daemon(proc)
        raise RuntimeError(f"service daemon did not start: {line!r}")
    host, port = line.split()[2][len("http://") :].split(":")
    return proc, host, int(port)


def daemon_peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def stop_daemon(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] if ordered else 0.0


def service_mixed(
    seed: int, trace: bool, work_dir: Path, setup_only: bool, setup: SpeedClock
) -> dict[str, Any]:
    stream = service_stream(seed)
    run_dir = work_dir / f"service-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    trace_out = run_dir / "trace.json" if trace else None
    run_dir.mkdir(parents=True)
    try:
        proc, host, port = start_daemon(trace_out, run_dir / "data")
        try:
            ready(setup)
            if setup_only:
                return {}
            # The client runs the gauge between requests, never while the
            # daemon is working on one.
            clock = pass_clock(trace, "interpreter", timer=False)
            result = _service_pass(Client(host, port), stream, clock)
            result["peak_rss_mib"] = daemon_peak_rss_mib(proc.pid)
        finally:
            stop_daemon(proc)
        if trace_out is not None:
            result["layers"] = _service_layers(result, json.loads(trace_out.read_text()))
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _service_pass(
    client: Client, stream: list[dict[str, Any]], clock: SpeedClock | None
) -> dict[str, Any]:
    errors: list[str] = []
    digests: dict[str, str] = {}
    seen: dict[str, str] = {}
    latencies: list[float] = []
    warm: list[float] = []
    cold: list[float] = []
    pending: dict[str, int] = {}  # job id -> stream index
    jobs: list[dict[str, Any]] = []
    last_poll = 0.0

    def poll(block: bool) -> None:
        deadline = time.monotonic() + 120
        while pending:
            for job_id, index in list(pending.items()):
                status, body = client.request("GET", f"/jobs/{job_id}")
                if status != 200:
                    errors.append(f"GET /jobs/{job_id}: HTTP {status}")
                    del pending[job_id]
                    continue
                if body["state"] in ("queued", "running"):
                    continue
                del pending[job_id]
                _finish_job(client, index, body, digests, jobs, errors)
            if not block or time.monotonic() > deadline:
                return
            time.sleep(SERVICE_POLL_S)

    with clock or nullcontext():
        start = time.perf_counter()
        for index, item in enumerate(stream):
            if clock is not None:
                clock.maybe_sample()
            if item["kind"] == "job":
                status, body = client.request("POST", "/scenarios", item["body"])
                if status != 202:
                    errors.append(f"request {index}: POST /scenarios HTTP {status}")
                elif body["state"] == "done":
                    _finish_job(client, index, body, digests, jobs, errors)
                else:
                    pending[body["id"]] = index
                continue
            sent = time.perf_counter()
            status, body = client.request("POST", "/query", item["body"])
            elapsed_ms = (time.perf_counter() - sent) * 1e3
            latencies.append(elapsed_ms)
            if status != 200:
                errors.append(f"request {index}: POST /query HTTP {status}: {body}")
                continue
            (warm if body["cache_hit"] else cold).append(elapsed_ms)
            answer = {k: body[k] for k in ("op", "graph_fingerprint", "n", "lifetime", "result")}
            digests[str(index)] = value = digest(answer)
            key = digest(item["body"])
            if seen.setdefault(key, value) != value:
                errors.append(f"request {index}: a repeated query changed its answer")
            if pending and time.monotonic() - last_poll >= SERVICE_POLL_S:
                last_poll = time.monotonic()
                poll(block=False)
        poll(block=True)
        wall = time.perf_counter() - start
    times = pass_times(clock, wall)
    if pending:
        errors.append(f"{len(pending)} jobs did not finish")
    status, stats = client.request("GET", "/stats")
    if status != 200:
        errors.append(f"GET /stats: HTTP {status}")
        stats = {"cache": {}, "counters": {}}
    status, health = client.request("GET", "/healthz")
    run_jobs = [job for job in jobs if not job["from_store"]]
    return {
        "backend": health.get("kernel_backend") if status == 200 else None,
        **times,
        "queries": len(latencies),
        "digests": digests,
        "checks": {"attempted": len(stream), "failed": len(errors), "errors": errors},
        "service": {
            "service.query_p50_ms": _median(latencies),
            "service.query_p99_ms": _percentile(latencies, 99.0),
            "service.warm_query_p50_ms": _median(warm),
            "service.cold_query_p50_ms": _median(cold),
            "service.queries_per_s": len(latencies) / times["wall_s"],
            "service.job_latency_s": _median(
                [job["finished_at"] - job["submitted_at"] for job in run_jobs]
            ),
            "service.job.queue_wait_ms": sum(
                job["started_at"] - job["submitted_at"] for job in run_jobs
            )
            * 1e3,
            "service.job.run_ms": sum(
                job["finished_at"] - job["started_at"] for job in run_jobs
            )
            * 1e3,
            "service.cache.hit_rate": stats["cache"].get("hit_rate", 0.0),
            "service.cache.evictions": stats["cache"].get("evictions", 0),
            "service.store.hits": stats["counters"].get("service.store.hit", 0),
            "service.query_total_ms": sum(latencies),
        },
    }


def _finish_job(
    client: Client,
    index: int,
    job: dict[str, Any],
    digests: dict[str, str],
    jobs: list[dict[str, Any]],
    errors: list[str],
) -> None:
    jobs.append(job)
    if job["state"] != "done":
        errors.append(f"request {index}: job {job['id']} ended {job['state']}: {job['error']}")
        return
    status, record = client.request("GET", f"/results/{job['fingerprint']}")
    if status != 200:
        errors.append(f"request {index}: GET /results HTTP {status}")
        return
    digests[str(index)] = digest(record["records"])


def _service_layers(result: dict[str, Any], dump: dict[str, Any]) -> dict[str, float]:
    from tracer import Tracer

    tracer = Tracer.from_state(dump["tracer"])
    service = result["service"]
    wall_ms = result["wall_s"] * 1e3
    transport_ms = service["service.query_total_ms"] - tracer.inclusive_ns.get(
        "service.app.query", 0
    ) / 1e6
    layers = layer_split(tracer, wall_ms)
    # The client's share of a query (connect, HTTP parsing, JSON) is time no
    # daemon span sees; count it as attributed to the transport.
    layers["unattributed_ms"] -= transport_ms
    layers.update(telemetry_counts(dump["counters"]))
    layers.update(
        {
            "service.transport_ms": transport_ms,
            "service.network_build_ms": tracer.edge_ms("service.app.query", "graph.")
            + tracer.edge_ms("service.app.query", "labels."),
            "service.handle_ms": tracer.edge_ms("service.app.query", "analysis."),
        }
    )
    return layers


WORKLOADS: dict[str, Callable[[int, bool, Path, bool, SpeedClock], dict[str, Any]]] = {
    "reproduce": reproduce,
    "blocked_grid": blocked_grid,
    "service_mixed": service_mixed,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    setup = SpeedClock("interpreter", timer=True)
    setup.start()
    result = WORKLOADS[args.workload](
        args.seed, bool(args.trace), args.work_dir, args.setup_only, setup
    )
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
