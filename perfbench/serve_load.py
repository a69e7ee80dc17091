"""The `serve` workload: load on a live ``repro serve`` daemon.

Started by ``run.py`` as a fresh interpreter (hash seed pinned).  It
spawns ``python -m repro serve --unix-socket ... --workers W`` (cache
off), drives it through ``repro.serve.client.ServeClient`` with C
closed-loop client threads, checks every verdict, sends SIGTERM and
requires exit status 0 and no surviving worker.  W and C are 2, or
the CPU count when that is smaller.

Modes:

``probe``
    spawn a daemon, report seconds from spawn to ``/readyz`` 200, stop.
``measure``
    cycle the seeded request list for ``--seconds`` (the first full
    pass always completes).
``trace``
    one pass against a daemon started by ``serve_traced.py`` with the
    layer wrappers installed, between two passes against plain ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

#: Generated-corpus sources added to the bundled programs.
GENERATED_SOURCES = 30

#: Bundled programs left out: ``split`` alone takes several times the
#: rest of the corpus and would dominate every number.
EXCLUDED = ("split",)


def workers_and_clients() -> Tuple[int, int]:
    cpus = os.cpu_count() or 1
    return min(2, cpus), min(2, cpus)


def serve_inputs(seed: int) -> List[Tuple[str, Optional[str], Optional[str]]]:
    """(name, bundled program or None, source or None) in a seeded order.

    The requests are shuffled once with a fixed seed and the benchmark's
    seed rotates that cycle (and renames the generated sources), so
    every seed sends the same neighbours concurrently: a fresh shuffle
    per seed changed which heavy requests overlapped, and with it the
    tail latency, by more than any bound allows."""
    import corpus
    from repro.programs import ALL_PROGRAMS
    inputs: List[Tuple[str, Optional[str], Optional[str]]] = [
        (name, name, None) for name in sorted(ALL_PROGRAMS)
        if name not in EXCLUDED]
    inputs += [(name, None, source)
               for name, source in corpus.corpus(seed, GENERATED_SOURCES)]
    random.Random(corpus.CORPUS_SEED).shuffle(inputs)
    offset = random.Random(seed).randrange(len(inputs))
    return inputs[offset:] + inputs[:offset]


class Daemon:
    """One ``repro serve`` process on a unix socket."""

    spawned = 0

    def __init__(self, scratch: str, traced_dump: Optional[str] = None
                 ) -> None:
        from repro.serve.client import ServeClient
        workers, _ = workers_and_clients()
        Daemon.spawned += 1
        # Relative, so the path stays within the unix-socket length limit
        # wherever the checkout lives.
        self.socket = os.path.relpath(
            os.path.join(scratch, f"d{Daemon.spawned}.sock"))
        if traced_dump is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       traced_dump, "serve"]
        command += ["--unix-socket", self.socket, "--workers", str(workers)]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                        stderr=subprocess.PIPE)
        self.client = ServeClient(unix_socket=self.socket, timeout=120.0)
        self.ready_seconds = self._wait_ready()

    def _wait_ready(self) -> float:
        deadline = self.started + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited before ready: "
                                   + self.process.stderr.read().decode())
            try:
                status, _, _ = self.client.ready()
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        self.process.kill()
        self.process.wait()
        raise RuntimeError("daemon not ready within 60s")

    def stop(self) -> Dict[str, object]:
        """SIGTERM, wait, and report exit status and orphans."""
        _, _, stats = self.client.stats()
        pids = [worker["pid"] for worker in stats["pool"]["workers"]]
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stderr.close()
        orphans = []
        for pid in pids:
            try:
                os.kill(pid, 0)
                orphans.append(pid)
            except ProcessLookupError:
                pass
        return {"exit_code": code, "orphans": orphans,
                "socket_removed": not os.path.exists(self.socket),
                "respawns": stats["pool"]["restarts"],
                "quarantined": stats["pool"]["quarantined"]}


class Checker:
    """Known answers for bundled programs; engine-free checks for
    generated sources; the same verdict on every repeat."""

    def __init__(self, seed: int) -> None:
        import checks
        self.checks = checks
        self.seed = seed
        self.first: Dict[str, object] = {}
        self.sampled: Dict[str, Optional[str]] = {}

    def expected_verdict(self, program: Optional[str]) -> str:
        """The known answer of a bundled program; any verdict for a
        generated source."""
        if program is None:
            return "VERIFIED or FAILED"
        return self.checks.expected_verdict(program)

    def __call__(self, name: str, program: Optional[str],
                 source: Optional[str], report: dict) -> Optional[str]:
        outcome = report["outcome"]
        verdict = (outcome, [sub["outcome"] for sub in report["subgoals"]])
        first = self.first.setdefault(name, verdict)
        if verdict != first:
            return f"{name}: verdict {verdict} differs from earlier {first}"
        if program is not None:
            expected = self.expected_verdict(program)
            return None if outcome == expected else \
                f"{name}: {outcome}, expected {expected}"
        if outcome == "FAILED":
            for sub in report["subgoals"]:
                if sub["outcome"] == "FAILED" and not sub["counterexample"]:
                    return f"{name}: failed subgoal without counterexample"
            return None
        if name not in self.sampled:
            from repro import pascal
            typed = pascal.check_program(pascal.parse_program(source))
            self.sampled[name] = self.checks.sample_verified(
                typed, f"{self.seed}:{name}")
        return self.sampled[name]


def drive(daemon: Daemon, inputs, seconds: float,
          passes: Optional[int] = None) -> dict:
    """Closed-loop clients over the cyclic input list until the
    deadline (and at least one full pass), or exactly ``passes``."""
    _, clients = workers_and_clients()
    lock = threading.Lock()
    position = [0]
    samples: List[dict] = []
    errors: List[str] = []
    start = time.perf_counter()
    deadline = start + seconds

    def next_index() -> Optional[int]:
        with lock:
            index = position[0]
            if passes is not None:
                if index >= passes * len(inputs):
                    return None
            elif index >= len(inputs) and time.perf_counter() >= deadline:
                return None
            position[0] += 1
            return index

    def client_loop() -> None:
        try:
            while True:
                index = next_index()
                if index is None:
                    return
                name, program, source = inputs[index % len(inputs)]
                sent = time.perf_counter()
                status, _, body = daemon.client.verify(program=program,
                                                       source=source)
                rtt = time.perf_counter() - sent
                sample = {"name": name, "index": index % len(inputs),
                          "sent": sent - start, "rtt": rtt, "status": status,
                          "end": time.perf_counter() - start,
                          "failed": True, "wrong": None}
                if status == 200:
                    sample["outcome"] = body["outcome"]
                    sample["engine_seconds"] = body["seconds"]
                    sample["subgoals"] = len(body["subgoals"])
                    sample["failed"] = body["outcome"] not in ("VERIFIED",
                                                               "FAILED")
                    sample["report"] = body
                with lock:
                    samples.append(sample)
        except Exception as exc:  # noqa: BLE001 — reported, fails the run
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    # The host-speed kernel runs here while the clients wait on the
    # daemon (see :func:`scale_times`).
    kernel_times: List[float] = []
    kernel_samples = [speed.kernel() for _ in range(speed.MIN_SAMPLES)]
    while any(thread.is_alive() for thread in threads):
        time.sleep(speed.PERIOD)
        kernel_samples.append(speed.kernel())
        kernel_times.append(time.perf_counter() - start)
    for thread in threads:
        thread.join()
    window = max((sample["end"] for sample in samples), default=0.0)
    return {"samples": samples, "window": window, "errors": errors,
            "kernel_times": kernel_times, "kernel_samples": kernel_samples}


def scale_times(run: dict) -> None:
    """Give every sample the host-speed scale of its round trip: the
    kernel samples taken while it was in flight (:func:`speed.window`).
    The kernel's own CPU is taken out of the run's."""
    times, kernels = run.pop("kernel_times"), run.pop("kernel_samples")
    # The first MIN_SAMPLES kernels were taken before the clock started.
    offset = len(kernels) - len(times)
    for sample in run["samples"]:
        first = offset + bisect.bisect_left(times, sample["sent"])
        last = offset + bisect.bisect_right(times, sample["end"])
        sample["scale"] = speed.scale(speed.window(kernels[:last], first))
    run["cpu"] = (run["cpu"] - sum(kernels)) * speed.scale(kernels)


def check(run: dict, inputs, checker: Checker) -> None:
    for sample in run["samples"]:
        name, program, source = inputs[sample.pop("index")]
        if sample["failed"]:
            # No budget is set and the queue admits every client, so
            # every request must get a verdict.
            got = sample.get("outcome", f"HTTP {sample['status']}")
            sample["wrong"] = f"{name}: {got}, expected " \
                              f"{checker.expected_verdict(program)}"
        else:
            sample["wrong"] = checker(name, program, source, sample["report"])


def median_rtts(samples, scaled: bool = False) -> Dict[str, float]:
    by_name: Dict[str, List[float]] = {}
    for sample in samples:
        by_name.setdefault(sample["name"], []).append(
            sample["rtt"] * (sample["scale"] if scaled else 1.0))
    return {name: statistics.median(rtts) for name, rtts in by_name.items()}


def pass_equivalents(samples, inputs) -> float:
    """Completed work in passes, each request weighted by its input's
    median round trip: a partial last pass counts for what it did."""
    weight = median_rtts(samples)
    whole = sum(weight[name] for name, _, _ in inputs)
    return sum(weight[sample["name"]] for sample in samples) / whole


def _strip(sample: dict) -> dict:
    return {key: value for key, value in sample.items() if key != "report"}


def _one_daemon(scratch: str, inputs, checker: Checker, seconds: float,
                passes: Optional[int], dump: Optional[str] = None) -> dict:
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    daemon = Daemon(scratch, dump)
    try:
        run = drive(daemon, inputs, seconds, passes)
    finally:
        shutdown = daemon.stop()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(after.ru_utime + after.ru_stime - before.ru_utime
              - before.ru_stime for before, after in
              ((self_before, self_after),
               (children_before, children_after)))
    # Verdicts are checked once the CPU is counted, off the clock.
    check(run, inputs, checker)
    run.update(shutdown)
    run["cpu"] = cpu
    scale_times(run)
    run["ready_seconds"] = daemon.ready_seconds
    run["passes"] = pass_equivalents(run["samples"], inputs)
    # One pass with every client kept busy: the idle tail after the
    # deadline, while the last requests drain, is not the daemon's.
    _, clients = workers_and_clients()
    run["median_rtts"] = median_rtts(run["samples"], scaled=True)
    run["pass_seconds"] = sum(run["median_rtts"].values()) / clients
    run["unscaled_pass_seconds"] = \
        sum(median_rtts(run["samples"]).values()) / clients
    return run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    if args.mode == "probe":
        daemon = Daemon(args.scratch)
        shutdown = daemon.stop()
        print(json.dumps({"ready_seconds": daemon.ready_seconds,
                          **shutdown}))
        return 0
    inputs = serve_inputs(args.seed)
    checker = Checker(args.seed)
    if args.mode == "measure":
        run = _one_daemon(args.scratch, inputs, checker, args.seconds, None)
        run["samples"] = [_strip(sample) for sample in run["samples"]]
        document = {"runs": [run]}
    else:
        import layer_metrics
        # Untraced passes before and after the traced one, so that drift
        # in host speed cancels out of the tracing overhead.
        before = _one_daemon(args.scratch, inputs, checker, 0.0, 1)
        dump = tempfile.mkdtemp(prefix="layers-", dir=args.scratch)
        traced = _one_daemon(args.scratch, inputs, checker, 0.0, 1, dump)
        after = _one_daemon(args.scratch, inputs, checker, 0.0, 1)
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for entry in sorted(os.listdir(dump)):
            if entry.endswith(".json"):
                with open(os.path.join(dump, entry), encoding="utf-8") as f:
                    totals = json.load(f)
                for layer, value in totals["seconds"].items():
                    seconds[layer] = seconds.get(layer, 0.0) + value
                for layer, value in totals["calls"].items():
                    calls[layer] = calls.get(layer, 0) + value
        reports = [sample["report"] for sample in traced["samples"]
                   if "report" in sample]
        traced["counts"] = layer_metrics.counts_from_reports(reports)
        traced["layer_seconds"] = seconds
        traced["layer_calls"] = calls
        for run in (before, traced, after):
            run["samples"] = [_strip(sample) for sample in run["samples"]]
        document = {"runs": [before, traced, after]}
    document["inputs_per_pass"] = len(inputs)
    document["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss for who in
        (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
