"""The repository's benchmark: three workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py suite [--runs 10] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

The first form measures one workload (``BENCHMARK.json`` lists them and the
metrics).  Each pass runs in a fresh worker process (``worker.py``); passes
repeat until ``--seconds`` have gone by, at least one.  ``--trace 0`` reports
the end-to-end metrics.  Their times are at the host's quiet-phase speed: a
gauge that belongs to the benchmark runs through set-up and pass, and the
host's slow phases are taken out by it (``speed.py``); the times as measured
are printed beside them.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer self times, the program's own telemetry counts and
the tracing overhead.  Outputs are checked against the digests committed in
``perfbench/digests/`` for seed 0; at any other seed the digests are written
to ``.perfbench-work/digests/`` so two commits can be compared.  The last
line printed is the JSON result.

``suite`` runs every workload ``--runs`` times at seeds 0, 1, ..., each run
``run_seconds`` long, and prints each metric by name with its unit, sample
count, median and spread; the runs are appended to a JSON-lines file that
``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench-work"
DIGEST_DIR = HERE / "digests"
#: Set-ups measured per run; passes supply some, set-up-only starts the rest.
SETUP_SAMPLES = 5
#: Wall-clock cap on one worker process.
PASS_TIMEOUT_S = 150
#: The program runs serially on the numpy kernel backend, whatever else is
#: installed: a numba install or a multi-threaded BLAS would change the
#: program under test, and BLAS threads contend for the box's cores.
PINNED_ENV = {
    "REPRO_KERNEL_BACKEND": "numpy",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # The daemon serves each connection on a new thread; uncapped, glibc's
    # per-thread malloc arenas make its peak RSS swing by a quarter between
    # identical runs.
    "MALLOC_ARENA_MAX": "2",
    "PYTHONHASHSEED": "0",
}
#: Per-layer metrics that are self times; with ``unattributed_ms`` they
#: partition a traced pass's wall clock.
SELF_TIME_METRICS = (
    "labels.sample_ms",
    "graph.build_ms",
    "csr.build_ms",
    "kernel.forward.sweep_ms",
    "kernel.reverse.sweep_ms",
    "analysis.reduce_ms",
    "blocked.sweep_ms.forward",
    "blocked.sweep_ms.reverse",
    "blocked.reduce_ms",
    "scenario.metric_ms",
    "scenario.trial_ms",
    "direct.point_ms",
    "engine.overhead_ms",
    "service.app_ms",
    "service.cache_ms",
    "service.store_ms",
    "service.transport_ms",
)


class BenchmarkError(RuntimeError):
    pass


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# one worker process
# --------------------------------------------------------------------- #
def run_worker(
    workload: str, seed: int, trace: bool, setup_only: bool = False
) -> tuple[dict[str, float], dict[str, Any] | None]:
    """Start one worker; return its set-up times and its result (None for set-up only).

    The set-up times are ``raw_s``, from the process start to its ``ready``
    line, and ``norm_s``: that time without the worker's gauge runs, at the
    host's quiet-phase speed as the worker's set-up gauge saw it.
    """
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--work-dir", str(WORK_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    WORK_DIR.mkdir(exist_ok=True)
    err_path = WORK_DIR / f"worker-{os.getpid()}.err"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        # A session of its own, so the worker's children (the service
        # daemon) can be stopped with it.
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=env, start_new_session=True
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PASS_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            setup_s = time.perf_counter() - start
            word, _, report = line.partition(" ")
            if word != "ready":
                raise BenchmarkError(f"{workload} worker did not get ready: {line!r}")
            gauge = json.loads(report)
            out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
    if proc.returncode != 0:
        tail = err_path.read_text()[-2000:]
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}:\n{tail}")
    err_path.unlink()
    setup = {"raw_s": setup_s, "norm_s": (setup_s - gauge["gauge_s"]) / gauge["slowdown"]}
    if setup_only:
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #
def check_outputs(workload: str, seed: int, passes: list[dict[str, Any]]):
    """Compare every pass's digests with the reference; return (attempted, failed, errors).

    The reference is the committed digest file when it was made at this
    seed, else the first pass (whose digests are then written out).  A digest
    key ``op.part`` belongs to operation ``op``; an operation fails once
    however many of its digests differ.
    """
    committed_path = DIGEST_DIR / f"{workload}.json"
    committed = json.loads(committed_path.read_text()) if committed_path.exists() else None
    if committed is not None and committed["seed"] == seed:
        reference, compared = committed["digests"], passes
    else:
        reference, compared = passes[0]["digests"], passes[1:]
        out = WORK_DIR / "digests" / f"{workload}-seed{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"seed": seed, "digests": reference}, indent=1, sort_keys=True))
    attempted = failed = 0
    errors: list[str] = []
    for result in passes:
        checks = result["checks"]
        attempted += checks["attempted"]
        failed += checks["failed"]
        errors.extend(checks["errors"])
    for result in compared:
        digests = result["digests"]
        bad_ops = {
            key.split(".", 1)[0]
            for key in set(reference) | set(digests)
            if reference.get(key) != digests.get(key)
        }
        failed += len(bad_ops)
        errors.extend(f"output {op} differs from the reference" for op in sorted(bad_ops)[:5])
    return attempted, min(failed, attempted), errors


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def end_to_end(passes: list[dict[str, Any]], setups: list[dict[str, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics; times are at the host's quiet-phase speed (``speed.py``)."""
    values = {
        "setup_s": statistics.median(setup["norm_s"] for setup in setups),
        "wall_s": statistics.median(result["norm_wall_s"] for result in passes),
        "peak_rss_mib": statistics.median(result["peak_rss_mib"] for result in passes),
    }
    counts = {
        "setup_s": f"{len(setups)} set-ups",
        "wall_s": f"{len(passes)} passes",
        "peak_rss_mib": f"{len(passes)} passes",
    }
    return values, counts


def per_layer(spec: dict[str, Any], untraced: dict, traced: dict) -> tuple[dict, dict]:
    layers = dict(traced["layers"])
    layers.update(untraced.get("service", {}))
    layers["trace.overhead_ms"] = (traced["wall_s"] - untraced["wall_s"]) * 1e3
    values = {metric["name"]: layers.get(metric["name"], 0.0) for metric in spec["per_layer"]}
    counts = {name: "1 traced pass" for name in values}
    counts.update({name: "untraced pass" for name in untraced.get("service", {}) if name in counts})
    if "queries" in untraced:
        queries = untraced["queries"]
        beyond = queries - math.ceil(0.99 * queries)
        counts["service.query_p50_ms"] = f"untraced pass, {queries} queries"
        counts["service.query_p99_ms"] = f"untraced pass, {queries} queries, {beyond} beyond p99"
    return values, counts


def self_time_report(metrics: dict[str, float], concurrent: bool) -> str:
    """The traced pass's self times, which with ``unattributed_ms`` make up its wall clock.

    ``unattributed_ms`` is the wall minus the self times: the time no span
    saw, such as the benchmark's own loop.  With ``concurrent`` threads the
    spans overlap in time, so the self times may exceed the wall and
    ``unattributed_ms`` go negative.
    """
    wall = metrics["trace.wall_ms"]
    parts = {name: metrics[name] for name in SELF_TIME_METRICS}
    unattributed = metrics["unattributed_ms"]
    lines = ["# self time per layer (traced pass)"]
    for name, ms in sorted(parts.items(), key=lambda item: -item[1]):
        if ms:
            lines.append(f"#   {name:28s} {ms:12.1f} ms {ms / wall:7.1%}")
    lines.append(f"#   {'unattributed_ms':28s} {unattributed:12.1f} ms {unattributed / wall:7.1%}")
    note = " (job and query threads overlap)" if concurrent else ""
    lines.append(
        f"#   sum {sum(parts.values()) + unattributed:.1f} ms = traced wall {wall:.1f} ms{note}; "
        f"tracing overhead {metrics['trace.overhead_ms']:+.1f} ms against the untraced pass"
    )
    return "\n".join(lines)


def machine_facts(seed: int, backend: str | None) -> dict[str, Any]:
    import platform

    facts: dict[str, Any] = {
        "nproc": len(os.sched_getaffinity(0)),
        "l3": None,
        "python": platform.python_version(),
        "numpy": None,
        "git_sha": None,
        "seed": seed,
        "kernel_backend": backend,
        "pinned_env": PINNED_ENV,
    }
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if (index / "level").read_text().strip() == "3":
            facts["l3"] = (index / "size").read_text().strip()
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        pass
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        facts["git_sha"] = sha.stdout.strip() or None
    return facts


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchmarkError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # One untimed start first: in a fresh checkout it compiles the program's
    # bytecode, a cost users pay once, not on every start.
    run_worker(workload, seed, False, setup_only=True)
    start = time.perf_counter()
    setups: list[dict[str, float]] = []
    passes: list[dict[str, Any]] = []
    for traced in (False, True) if trace else (False,):
        setup, result = run_worker(workload, seed, traced)
        setups.append(setup)
        passes.append(result)
    while not trace and time.perf_counter() - start < seconds:
        setup, result = run_worker(workload, seed, False)
        setups.append(setup)
        passes.append(result)
    attempted, failed, errors = check_outputs(workload, seed, passes)
    facts = machine_facts(seed, passes[0]["backend"])
    print("# machine " + json.dumps(facts, sort_keys=True))
    if trace:
        metrics, counts = per_layer(spec, passes[0], passes[1])
        print(self_time_report(metrics, workload == "service_mixed"))
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(workload, seed, False, setup_only=True)[0])
        metrics, counts = end_to_end(passes, setups)
    for error in errors[:20]:
        print(f"# error: {error}")
    scenario_s = passes[0].get("scenario_s", {})
    for name, seconds_taken in scenario_s.items():
        share = seconds_taken / sum(scenario_s.values())
        print(f"# {name} {seconds_taken:8.3f} s {share:6.1%} of the first pass")
    untraced = [result for result in passes if "norm_wall_s" in result]
    print(
        f"# as measured: wall {statistics.median(p['wall_s'] for p in untraced):.4f} s, "
        f"set-up {statistics.median(s['raw_s'] for s in setups):.4f} s; host slowdown "
        f"{statistics.median(p['slowdown'] for p in untraced):.3f}x in the untraced passes"
    )
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.4f} {units[name]:8s} ({counts[name]})")
    print(f"{'error_rate':28s} {failed / attempted:16.4f} {'ratio':8s} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


# --------------------------------------------------------------------- #
# suite and compare
# --------------------------------------------------------------------- #
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def load_runs(path: Path) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_values(records: list[dict[str, Any]], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]


def suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    out = args.out or WORK_DIR / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs: dict[str, list[dict[str, Any]]] = {workload: [] for workload in names}
    # Seed-major, round-robin over the workloads: the box slows down in
    # phases lasting minutes, and a slow phase should fall on every
    # workload's set rather than shift one of them.
    for seed in range(args.runs):
        for workload in names:
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            facts = next(
                (json.loads(l[len("# machine "):]) for l in lines if l.startswith("# machine ")),
                None,
            )
            record = {
                "workload": workload,
                "seed": seed,
                "trace": args.trace,
                "machine": facts,
                "result": json.loads(lines[-1]),
            }
            runs[workload].append(record)
            with open(out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
    status = 0
    for workload, records in runs.items():
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        print(f"\n== {workload}: {len(records)} runs, error_rate {failed / attempted:.4f} ({failed}/{attempted})")
        print(f"{'metric':28s} {'unit':8s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        for metric in metrics:
            values = metric_values(records, metric["name"])
            q1, median, q3 = quartiles(values)
            flag = ""
            if "bound" in metric and spread(values) > metric["bound"] / 3:
                flag = f"  spread over a third of the bound {metric['bound']}"
            print(
                f"{metric['name']:28s} {metric['unit']:8s} {len(values):3d} {median:14.4f} "
                f"{q1:14.4f} {q3:14.4f} {spread(values):8.2%}{flag}"
            )
        if failed:
            status = 1
    print(f"\nruns appended to {out}")
    return status


def compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        print(f"\n== {workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        print(
            f"{'metric':28s} {'base median':>12s} {'[q1, q3]':>24s} "
            f"{'new median':>12s} {'[q1, q3]':>24s} {'change':>8s}  verdict"
        )
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            a, b = metric_values(base[workload], name), metric_values(new[workload], name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if metric["better"] == "lower" else -change
            bound = metric.get("bound")
            if bound is None:
                verdict = "per-layer"
            elif max(spread(a), spread(b)) > bound and not _separated(a, b, metric["better"]):
                verdict = "unresolved"
            elif worse > bound:
                verdict = f"WORSE than the bound {bound}"
                regressions += 1
            else:
                verdict = "within bound"
            print(
                f"{name:28s} {qa[1]:12.4f} [{qa[0]:10.4f}, {qa[2]:10.4f}] "
                f"{qb[1]:12.4f} [{qb[0]:10.4f}, {qb[2]:10.4f}] {change:+8.2%}  {verdict}"
            )
    return 1 if regressions else 0


def _separated(base: list[float], new: list[float], better: str) -> bool:
    """Every new run reads better than every base run."""
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "suite":
        parser = argparse.ArgumentParser(prog="run.py suite")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--out", type=Path, default=None)
        return suite(parser.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
