"""Self-tests of the benchmark (not part of the repository's test suite).

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

import importlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import checks
import corpus
import layer_metrics
import layers
import serve_load
import speed
import workload
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.robust import faults
from repro.verify.engine import Verifier

from conftest import BENCH, ROOT

END_TO_END = ["setup_s", "wall_s", "cpu_s", "verdict_p50_s", "verdict_p90_s",
              "peak_rss_mb"]

#: Layers no in-process workload reaches: ``decide_index`` is the
#: parallel/serve worker entry point.
SERVE_ONLY = {"verify.decide"}

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bindings():
    found = []
    for _, module_name, path in layers.WRAPPED:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        found.append(owner.__dict__[name] if isinstance(owner, type)
                     else getattr(owner, name))
    return found


def _small_generated():
    """Six corpus programs, cold then warm: FAILED and VERIFIED ones,
    cache stores and cache hits."""
    programs = corpus.corpus(1, 6)
    return ([(name, source, "cold") for name, source in programs]
            + [(name, source, "warm") for name, source in programs])


def test_benchmark_json_matches_what_the_benchmark_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == \
        ["table1", "generated", "serve"]
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    setup = spec["end_to_end"][0]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [e["name"] for e in spec["workloads"] + spec["end_to_end"]
             + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 64 * 1024


def test_every_layer_is_reached_and_the_wrappers_are_removed(tmp_path):
    originals = _bindings()
    runner = workload.Runner("generated", 1, str(tmp_path))
    try:
        document = workload.trace(runner, _small_generated())
    finally:
        runner.close()
    assert document["wrappers_removed"]
    assert all(now is before for now, before in zip(_bindings(), originals))
    reached = set(document["layer_calls"])
    assert set(layers.LAYERS) - SERVE_ONLY <= reached
    counts = document["counts"]
    assert counts["counterexamples"] > 0
    assert counts["cache_hits"] > 0 and counts["cache_misses"] > 0
    assert not [s["wrong"] for s in document["samples"] if s["wrong"]]
    metrics = layer_metrics.per_layer(document["layer_seconds"], counts, {})
    for name in ("counterexample.decode_s", "counterexample.simulate_s",
                 "cache.lookup_s", "cache.store_s", "analysis.slice_s",
                 "mso.compile_self_s", "automata.minimize_s"):
        assert metrics[name]["value"] > 0, name
    # Self times add up to the traced wall time: what no layer claims is
    # the harness root, a small remainder.
    attributed = sum(value for layer, value in document["layer_seconds"].items()
                     if layer in layer_metrics.TIME_METRICS)
    assert 0 <= document["traced_wall"] - attributed \
        < 0.1 * document["traced_wall"]


def test_table1_checks_columns_and_verdicts(tmp_path):
    runner = workload.Runner("table1", 1, str(tmp_path))
    sample = runner.submit("reverse", ALL_PROGRAMS["reverse"], None, None)
    assert sample["outcome"] == "VERIFIED" and sample["wrong"] is None
    runner.reference["reverse"]["max_states"] += 1
    sample = runner.submit("reverse", ALL_PROGRAMS["reverse"], None, None)
    assert "columns" in sample["wrong"]


def test_an_input_without_a_verdict_is_wrong(tmp_path):
    runner = workload.Runner("table1", 1, str(tmp_path))
    with faults.injected("verify.decide:error"):
        sample = runner.submit("reverse", ALL_PROGRAMS["reverse"], None, None)
    assert sample["failed"]
    assert sample["wrong"] == "reverse: ERROR, expected VERIFIED"

    run = {"samples": [
        {"name": "swap", "index": 0, "status": 429, "failed": True},
        {"name": "gen000", "index": 1, "status": 200, "failed": True,
         "outcome": "TIMEOUT"}]}
    inputs = [("swap", "swap", None), ("gen000", None, "program x;")]
    serve_load.check(run, inputs, serve_load.Checker(1))
    assert [s["wrong"] for s in run["samples"]] == [
        "swap: HTTP 429, expected FAILED",
        "gen000: TIMEOUT, expected VERIFIED or FAILED"]


def test_engine_free_checks():
    swap = check_program(parse_program(ALL_PROGRAMS["swap"]))
    result = Verifier(swap).verify()
    assert result.outcome.value == "FAILED"
    assert checks.replay_failed(swap, result) is None
    # swap dereferences nil on singleton lists; sampling finds it.
    assert checks.sample_verified(swap, "x") is not None
    searchwf = check_program(parse_program(ALL_PROGRAMS["searchwf"]))
    assert checks.sample_verified(searchwf, "x") is None


def test_corpus_is_seeded_and_renames_only():
    assert corpus.corpus(3, 10) == corpus.corpus(3, 10)
    one, two = corpus.corpus(1, 30), corpus.corpus(2, 30)
    assert one != two
    for (_, left), (_, right) in zip(one, two):
        assert len(left.split()) == len(right.split())


def test_serve_daemon_exits_cleanly_and_layers_reach_workers(tmp_path):
    scratch = os.path.relpath(str(tmp_path))
    daemon = serve_load.Daemon(scratch)
    status, _, body = daemon.client.verify(program="swap")
    shutdown = daemon.stop()
    assert status == 200 and body["outcome"] == "FAILED"
    assert shutdown["exit_code"] == 0
    assert shutdown["orphans"] == []
    assert shutdown["socket_removed"]

    dump = tmp_path / "layers"
    dump.mkdir()
    daemon = serve_load.Daemon(scratch, str(dump))
    status, _, _ = daemon.client.verify(program="searchwf")
    shutdown = daemon.stop()
    assert status == 200 and shutdown["exit_code"] == 0
    assert shutdown["orphans"] == []
    reached = set()
    for entry in os.listdir(dump):
        with open(dump / entry, encoding="utf-8") as handle:
            reached |= set(json.load(handle)["calls"])
    assert {"pascal.parse", "verify.split", "verify.decide",
            "mso.compile", "automata.product"} <= reached


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_generated_mix_is_balanced_and_checked(tmp_path):
    runner = workload.Runner("generated", 1, str(tmp_path))
    samples = [runner.submit(name, source, "cold", None)
               for name, source in corpus.corpus(1, workload.GENERATED_PROGRAMS)]
    assert not [s["wrong"] for s in samples if s["wrong"]]
    outcomes = [s["outcome"] for s in samples]
    for verdict in ("VERIFIED", "FAILED"):
        assert outcomes.count(verdict) >= len(outcomes) / 4, outcomes


def test_speed_sampler_pauses_are_taken_out(tmp_path):
    sampler = speed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        started = time.perf_counter()
        while time.perf_counter() - started < 0.5:
            pass
        elapsed = time.perf_counter() - started
        paused_wall, paused_cpu, scale = sampler.since(mark)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(sampler.samples) > speed.MIN_SAMPLES + 3
    assert 0 < paused_cpu <= paused_wall < 0.5 * elapsed
    assert 0.2 < scale < 5

    runner = workload.Runner("table1", 1, str(tmp_path))
    document = workload.measure(runner, [("reverse", ALL_PROGRAMS["reverse"],
                                          None)], 0.0)
    [sample] = document["samples"]
    assert sample["wrong"] is None and 0.2 < sample["scale"] < 5


def test_serve_round_trips_take_the_scale_of_their_flight():
    fast, slow = speed.REFERENCE, 2 * speed.REFERENCE
    run = {"cpu": 10.0,
           "kernel_times": [tick / 10 for tick in range(1, 21)],
           "kernel_samples": [fast] * speed.MIN_SAMPLES + [fast] * 10
           + [slow] * 10,
           "samples": [{"sent": 0.0, "end": 0.95},
                       {"sent": 1.05, "end": 2.0}]}
    kernels = sum(run["kernel_samples"])
    serve_load.scale_times(run)
    assert [s["scale"] for s in run["samples"]] == [1.0, 0.5]
    assert run["cpu"] == (10.0 - kernels) * speed.scale(
        [fast] * (speed.MIN_SAMPLES + 10) + [slow] * 10)
    assert "kernel_times" not in run and "kernel_samples" not in run
