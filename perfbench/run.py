"""The repository's benchmark: one command per workload.

    python3 perfbench/run.py --workload {table1,generated,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measuring process is a fresh
interpreter with ``PYTHONPATH=src`` and ``PYTHONHASHSEED=0`` (pinned, so
``bdd.peak_nodes`` and every other count repeats exactly).  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A wrong verdict or a failed
output check prints ``"correct": false`` and exits 1.  Details of the
run (host facts, every sample, the layer call tree) go to
``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 9
HASH_SEED = "0"
WORKLOADS = ("table1", "generated", "serve")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(command: List[str], root: str, timeout: float) -> str:
    """Run a child in its own process group; kill the whole group on
    timeout so a daemon it started cannot outlive it."""
    process = subprocess.Popen(command, cwd=root, env=child_env(root),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{command[1:3]} exceeded {timeout:.0f}s")
    if process.returncode != 0:
        raise BenchError(f"{command[1:3]} exited {process.returncode}:\n"
                         + err.decode(errors="replace")[-2000:])
    return out.decode()


def last_json(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def probe_inprocess(root: str, workload: str, seed: int,
                    scratch: str) -> float:
    """Seconds from spawning a fresh interpreter to its first input
    parsed and type-checked."""
    command = [sys.executable, os.path.join(HERE, "workload.py"), "probe",
               "--workload", workload, "--seed", str(seed),
               "--scratch", scratch]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=root, env=child_env(root),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        _, err = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError("set-up probe hung")
    if process.returncode != 0 or line.strip() != b"ready":
        raise BenchError("set-up probe failed:\n"
                         + err.decode(errors="replace")[-2000:])
    return elapsed


def setup_seconds(root: str, workload: str, seed: int,
                  scratch: str) -> List[float]:
    """One untimed warm-up (bytecode caches), then SETUP_PROBES timed
    set-ups, each scaled by the host speed measured just before and
    just after it."""
    values = []
    for attempt in range(SETUP_PROBES + 1):
        before = speed.burst()
        if workload == "serve":
            document = last_json(run_child(
                [sys.executable, os.path.join(HERE, "serve_load.py"),
                 "probe", "--seed", str(seed), "--scratch", scratch],
                root, 120))
            if document["exit_code"] != 0 or document["orphans"]:
                raise BenchError(f"daemon shutdown unclean: {document}")
            value = document["ready_seconds"]
        else:
            value = probe_inprocess(root, workload, seed, scratch)
        if attempt:
            values.append(value * (before + speed.burst()) / 2)
    return values


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def inprocess_metrics(document: dict, workload: str) -> Dict[str, object]:
    """End-to-end metrics of an in-process `measure` run.

    ``wall_s``/``cpu_s`` are one pass: the sum over the pass's inputs of
    each input's median time, every time scaled to the reference host
    speed (:mod:`speed`).  The verdict percentiles are taken over
    the same per-input medians (one latency per input, as in one pass),
    of every input on `table1` and of the cold submissions on
    `generated` (warm ones are cache replays, another population)."""
    by_input: Dict[str, List[dict]] = {}
    for sample in document["samples"]:
        by_input.setdefault(f"{sample['name']}/{sample['kind']}",
                            []).append(sample)
    walls = {key: statistics.median(s["wall"] * s["scale"] for s in group)
             for key, group in by_input.items()}
    cpu = sum(statistics.median(s["cpu"] * s["scale"] for s in group)
              for group in by_input.values())
    raw = sum(statistics.median(s["wall"] for s in group)
              for group in by_input.values())
    latencies = [wall for key, wall in walls.items()
                 if workload == "table1" or key.endswith("/cold")]
    return {"wall_s": sum(walls.values()), "cpu_s": cpu,
            "latencies": latencies, "unscaled_wall_s": raw,
            "peak_rss_mb": document["peak_rss_mb"]}


def serve_metrics(document: dict) -> Dict[str, object]:
    """End-to-end metrics of a `serve` `measure` run.

    ``wall_s`` is one pass with every client busy: the sum over the
    pass's requests of each one's median round trip, divided by the
    client count.  ``cpu_s`` is the CPU of every process (client,
    daemon, workers) per pass of completed work.  Every time is scaled
    to the reference host speed (:mod:`speed`)."""
    run = document["runs"][0]
    return {"wall_s": run["pass_seconds"], "cpu_s": run["cpu"] / run["passes"],
            "latencies": list(run["median_rtts"].values()),
            "unscaled_wall_s": run["unscaled_pass_seconds"],
            "peak_rss_mb": document["peak_rss_mb"]}


def serve_problems(document: dict) -> List[str]:
    problems = []
    for run in document["runs"]:
        problems += run["errors"]
        if run["exit_code"] != 0:
            problems.append(f"daemon exited {run['exit_code']} on SIGTERM")
        if run["orphans"]:
            problems.append(f"orphan workers {run['orphans']}")
        if not run["socket_removed"]:
            problems.append("daemon left its socket behind")
    return problems


def all_samples(document: dict) -> List[dict]:
    if "runs" in document:
        return [s for run in document["runs"] for s in run["samples"]]
    return document["samples"]


def per_layer_metrics(document: dict, workload: str) -> Dict[str, dict]:
    import layer_metrics
    if workload == "serve":
        before, traced, after = document["runs"]
        plain = before["samples"] + after["samples"]
        single = [s["rtt"] - s["engine_seconds"] for s in plain
                  if s["status"] == 200 and s["subgoals"] == 1]
        traced_wall = traced["window"]
        # Round trips overlap (two clients), so on serve the remainder
        # is the sum of round trips that no layer's self time claims.
        covered = sum(s["rtt"] for s in traced["samples"])
        extra = {
            "serve.overhead_p50_s": statistics.median(single),
            "serve.rejected": sum(1 for s in plain if s["status"] == 429),
            "parallel.respawns": before["respawns"] + after["respawns"],
            "parallel.quarantined": before["quarantined"]
            + after["quarantined"],
            "trace.overhead_s": traced_wall
            - (before["window"] + after["window"]) / 2,
        }
    else:
        traced = document
        traced_wall = covered = document["traced_wall"]
        extra = {"trace.overhead_s": traced_wall - document["plain_wall"]}
    attributed = sum(value for layer, value in traced["layer_seconds"].items()
                     if layer in layer_metrics.TIME_METRICS)
    extra["trace.wall_s"] = traced_wall
    extra["trace.unattributed_s"] = covered - attributed
    return layer_metrics.per_layer(traced["layer_seconds"], traced["counts"],
                                   extra)


def host_facts(workload: str) -> Dict[str, object]:
    import serve_load
    workers, clients = serve_load.workers_and_clients()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "hash_seed": HASH_SEED,
            "serve_workers": workers if workload == "serve" else None,
            "serve_clients": clients if workload == "serve" else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repository checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    tmp_root = os.path.join(root, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = os.path.relpath(tempfile.mkdtemp(dir=tmp_root), root)
    try:
        return bench(args, root, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(root, scratch), ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it


def bench(args, root: str, scratch: str) -> int:
    mode = "trace" if args.trace else "measure"
    if args.workload == "serve":
        command = [sys.executable, os.path.join(HERE, "serve_load.py"), mode]
    else:
        command = [sys.executable, os.path.join(HERE, "workload.py"), mode,
                   "--workload", args.workload]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--scratch", scratch]

    setups: List[float] = []
    if not args.trace:
        setups = setup_seconds(root, args.workload, args.seed, scratch)
    document = last_json(run_child(command, root, args.seconds + 140))

    samples = all_samples(document)
    wrong = [s["wrong"] for s in samples if s.get("wrong")]
    failed = sum(1 for s in samples if s["failed"])
    problems = wrong + (serve_problems(document)
                        if args.workload == "serve" else [])
    if args.trace and args.workload != "serve" and \
            not document["wrappers_removed"]:
        problems.append("layer wrappers still installed after the run")

    if args.trace:
        metrics = per_layer_metrics(document, args.workload)
        notes = {}
    else:
        measured = (serve_metrics(document) if args.workload == "serve"
                    else inprocess_metrics(document, args.workload))
        latencies = measured["latencies"]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(measured["wall_s"], "s"),
            "cpu_s": metric(measured["cpu_s"], "s"),
            "verdict_p50_s": metric(percentile(latencies, 50), "s"),
            "verdict_p90_s": metric(percentile(latencies, 90), "s"),
            "peak_rss_mb": metric(measured["peak_rss_mb"], "MB"),
        }
        p90 = metrics["verdict_p90_s"]["value"]
        notes = {"unscaled_wall_s": measured["unscaled_wall_s"],
                 "verdict_inputs": len(latencies),
                 "verdict_samples": len(samples),
                 "inputs_beyond_p90": sum(1 for v in latencies if v > p90),
                 "setup_samples": setups,
                 "failed_frac": failed / len(samples),
                 "wrong_verdicts": len(wrong)}

    host = host_facts(args.workload)
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "host": host, "notes": notes,
               "problems": problems, "metrics": metrics,
               "document": document}
    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"host {json.dumps(host)}")
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    for name, value in notes.items():
        print(f"# {name}: {value}")
    for problem in problems:
        print(f"# WRONG: {problem}")
    print(json.dumps({"correct": not problems, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
