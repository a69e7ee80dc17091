"""The `table1` and `generated` workloads, run in-process.

Started by ``run.py`` as a fresh interpreter (hash seed pinned), it
drives the engine only through public entry points
(``repro.pascal.parse_program``/``check_program`` and ``Verifier``) and
prints one JSON document on its last stdout line.

Modes:

``probe``
    import ``repro`` and parse/type-check the first input, then print
    ``ready`` — the parent times this as the set-up.
``measure``
    run the workload's inputs round-robin for ``--seconds`` (the first
    full pass always completes) and report per-input wall/CPU samples.
``trace``
    one untraced pass and one with the :mod:`layers` wrappers
    installed, interleaved; report the per-layer totals of the traced
    pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

#: Programs per `generated` corpus (each is submitted twice per pass).
GENERATED_PROGRAMS = 30


def table1_inputs(seed: int) -> List[Tuple[str, str, Optional[str]]]:
    """The six Table 1 programs in a seeded order, cache off."""
    from repro.programs import TABLE_PROGRAMS
    names = sorted(TABLE_PROGRAMS)
    random.Random(seed).shuffle(names)
    return [(name, TABLE_PROGRAMS[name], None) for name in names]


def generated_inputs(seed: int) -> List[Tuple[str, str, Optional[str]]]:
    """Every corpus program twice, in a seeded order: its first
    submission is ``cold`` (writes the cache), its second ``warm``."""
    import corpus
    programs = corpus.corpus(seed, GENERATED_PROGRAMS)
    order = list(range(len(programs))) * 2
    random.Random(seed ^ 0x5EED).shuffle(order)
    seen = set()
    inputs = []
    for index in order:
        name, source = programs[index]
        kind = "warm" if index in seen else "cold"
        seen.add(index)
        inputs.append((name, source, kind))
    return inputs


INPUTS = {"table1": table1_inputs, "generated": generated_inputs}


class Runner:
    """Runs inputs and checks every verdict."""

    def __init__(self, workload: str, seed: int, scratch: str) -> None:
        import checks
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.reference = checks.load_reference()["table1"]
        self.checked: Dict[str, str] = {}
        self.cold_verdicts: Dict[Tuple[Optional[str], str], object] = {}
        self.cache_dirs: List[str] = []

    def new_cache(self) -> Optional[str]:
        """An empty verdict cache for a `generated` pass (None — cache
        off — on `table1`)."""
        if self.workload != "generated":
            return None
        self.cache_dirs.append(
            tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        return self.cache_dirs[-1]

    def close(self) -> None:
        for path in self.cache_dirs:
            shutil.rmtree(path, ignore_errors=True)

    def submit(self, name: str, source: str, kind: Optional[str],
               cache_dir: Optional[str], tracer=None, sampler=None) -> dict:
        from repro import pascal
        from repro.verify.engine import Verifier
        mark = sampler.mark() if sampler is not None else None
        start_cpu = time.process_time()
        start = time.perf_counter()
        if tracer is not None:
            with tracer.root():
                program = pascal.check_program(pascal.parse_program(source))
                result = Verifier(program, cache_dir=cache_dir).verify()
        else:
            program = pascal.check_program(pascal.parse_program(source))
            result = Verifier(program, cache_dir=cache_dir).verify()
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        scale = None
        if sampler is not None:
            paused_wall, paused_cpu, scale = sampler.since(mark)
            wall -= paused_wall
            cpu -= paused_cpu
        outcome = result.outcome.value
        sample = {"name": name, "kind": kind, "wall": wall, "cpu": cpu,
                  "scale": scale,
                  "outcome": outcome, "subgoals": len(result.results),
                  "failed": outcome not in ("VERIFIED", "FAILED")}
        if sample["failed"]:
            # No budget is set, so every input must get a verdict.
            sample["wrong"] = f"{name}: {outcome}, expected " \
                              f"{self.expected_verdict(name)}"
        else:
            sample["wrong"] = self.check(name, kind, cache_dir, program,
                                         result)
        sample["result"] = result
        return sample

    def expected_verdict(self, name: str) -> str:
        if self.workload == "table1":
            return self.checks.expected_verdict(name)
        return "VERIFIED or FAILED"

    def check(self, name: str, kind: Optional[str], cache_dir: Optional[str],
              program, result) -> Optional[str]:
        """None when the verdict passes every output check."""
        outcome = result.outcome.value
        if self.workload == "table1":
            if outcome != self.expected_verdict(name):
                return f"{name}: {outcome}, expected " \
                       f"{self.expected_verdict(name)}"
            columns = self.checks.table_columns(result.to_dict())
            if columns != self.reference[name]:
                return f"{name}: columns {columns} differ from the " \
                       f"reference {self.reference[name]}"
            return None
        verdict = (outcome, [item.outcome.value for item in result.results])
        if kind == "warm":
            cold = self.cold_verdicts.get((cache_dir, name))
            if verdict != cold:
                return f"{name}: warm verdict {verdict} differs from " \
                       f"cold {cold}"
            return None
        self.cold_verdicts[(cache_dir, name)] = verdict
        key = f"{name}:{outcome}"
        if key not in self.checked:
            if outcome == "FAILED":
                why = self.checks.replay_failed(program, result)
            else:
                why = self.checks.sample_verified(program,
                                                  f"{self.seed}:{name}")
            self.checked[key] = why or ""
        return f"{name}: {self.checked[key]}" if self.checked[key] else None


def _strip(sample: dict) -> dict:
    return {key: value for key, value in sample.items() if key != "result"}


def measure(runner: Runner, inputs, seconds: float) -> dict:
    """Each sample's wall and CPU seconds exclude the :mod:`speed`
    kernel's pauses and carry the host-speed scale of their interval."""
    from speed import Sampler
    sampler = Sampler()
    sampler.start()
    try:
        return _measure(runner, inputs, seconds, sampler)
    finally:
        sampler.stop()


def _measure(runner: Runner, inputs, seconds: float, sampler) -> dict:
    deadline = time.perf_counter() + seconds
    samples = []
    passes = 0
    while True:
        cache_dir = runner.new_cache()
        for position, (name, source, kind) in enumerate(inputs):
            if passes and time.perf_counter() >= deadline:
                return {"samples": samples, "passes": passes
                        + position / len(inputs)}
            samples.append(_strip(runner.submit(name, source, kind,
                                                cache_dir, sampler=sampler)))
        passes += 1
        if time.perf_counter() >= deadline:
            return {"samples": samples, "passes": passes}


def report_counts(samples) -> dict:
    """Per-layer counts of one pass, over the subgoals actually decided
    (cache replays carry the stats of the run that stored them)."""
    import layer_metrics
    reports = [sample["result"].to_dict() for sample in samples]
    return layer_metrics.counts_from_reports(reports)


def trace(runner: Runner, inputs) -> dict:
    """One untraced and one traced pass, interleaved input by input
    (alternating which goes first) so that drift in host speed hits
    both alike; each pass has its own verdict cache.  One untimed
    submission of the shortest input first pays the process's one-time
    costs."""
    from layers import LayerTracer
    name, source, kind = min(inputs, key=lambda item: len(item[1]))
    runner.submit(name, source, kind, runner.new_cache())
    tracer = LayerTracer(rooted=True)
    plain_cache, traced_cache = runner.new_cache(), runner.new_cache()
    plain, traced = [], []
    for position, (name, source, kind) in enumerate(inputs):
        if position % 2:
            plain.append(runner.submit(name, source, kind, plain_cache))
        tracer.install()
        try:
            traced.append(runner.submit(name, source, kind, traced_cache,
                                        tracer))
        finally:
            tracer.remove()
        if not position % 2:
            plain.append(runner.submit(name, source, kind, plain_cache))
    seconds, calls = tracer.self_times()
    return {"samples": [_strip(s) for s in plain + traced],
            "plain_wall": sum(s["wall"] for s in plain),
            "traced_wall": sum(s["wall"] for s in traced),
            "layer_seconds": seconds, "layer_calls": calls,
            "layer_edges": tracer.edges(),
            "counts": report_counts(traced),
            "wrappers_removed": not tracer.installed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "measure", "trace"))
    parser.add_argument("--workload", choices=sorted(INPUTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    inputs = INPUTS[args.workload](args.seed)
    if args.mode == "probe":
        from repro import pascal
        pascal.check_program(pascal.parse_program(inputs[0][1]))
        print("ready", flush=True)
        return 0
    runner = Runner(args.workload, args.seed, args.scratch)
    try:
        if args.mode == "measure":
            document = measure(runner, inputs, args.seconds)
        else:
            document = trace(runner, inputs)
    finally:
        runner.close()
    document["inputs_per_pass"] = len(inputs)
    document["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
