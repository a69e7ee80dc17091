"""Output checks that do not trust the MTBDD engine.

* Bundled programs have known answers (paper §5/§6): every one
  verifies except ``fumble`` and ``swap``.
* Table 1 programs must reproduce the paper's Formula/States/Nodes
  columns exactly as this repository computes them
  (``reference.json``).
* A generated program has no independent oracle, so two engine-free
  checks stand in for one.  A FAILED verdict's counterexample store
  must satisfy the subgoal's assumptions and then fail concretely
  when its statements run through :class:`repro.exec.Interpreter`
  and its checks through :mod:`repro.storelogic.eval`.  A VERIFIED
  program must survive sampled well-formed stores that satisfy its
  precondition, the way ``tests/test_soundness_sampling.py`` samples
  the bundled corpus.
"""

from __future__ import annotations

import json
import os
import random
from typing import List, Optional

from repro.errors import ExecutionError
from repro.exec.interpreter import Interpreter, OutOfMemory
from repro.storelogic import check_formula, parse_formula
from repro.storelogic.eval import eval_formula
from repro.stores.model import NIL_ID, Store

#: Bundled programs whose verdict is FAILED; all others verify.
FAULTY = {"fumble", "swap"}

#: Candidate stores drawn per VERIFIED generated program.
SAMPLES = 60

#: Longest list per data variable, and most garbage cells, in a
#: sampled store.
MAX_LEN = 4
MAX_GARBAGE = 3

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference() -> dict:
    with open(os.path.join(_HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


def expected_verdict(name: str) -> str:
    return "FAILED" if name in FAULTY else "VERIFIED"


def table_columns(report: dict) -> dict:
    """The paper's columns of one run report."""
    return {"formula_size": report["formula_size"],
            "max_states": report["max_states"],
            "max_nodes": report["max_nodes"]}


def _annotation(program, annotation):
    if annotation is None:
        return None
    return check_formula(parse_formula(annotation.text), program.schema)


def random_store(schema, rng: random.Random) -> Store:
    """A random well-formed store over ``schema``."""
    store = Store(schema)
    cells: List[int] = [NIL_ID]
    for name in schema.data_vars:
        record = schema.records[schema.var_type(name)]
        variants = [variant for variant, info in record.variants.items()
                    if info is not None] or list(record.variants)
        length = rng.randint(0, MAX_LEN)
        cells.extend(store.make_list(
            name, [rng.choice(variants) for _ in range(length)]))
    for name in schema.pointer_vars:
        store.set_var(name, rng.choice(cells))
    for _ in range(rng.randint(0, MAX_GARBAGE)):
        store.add_garbage()
    return store


def sample_verified(program, seed: str) -> Optional[str]:
    """None if no sampled store breaks the VERIFIED program, else why."""
    pre = _annotation(program, program.pre)
    post = _annotation(program, program.post)
    interpreter = Interpreter(program)
    rng = random.Random(seed)
    for _ in range(SAMPLES):
        store = random_store(program.schema, rng)
        if pre is not None and not eval_formula(pre, store):
            continue
        try:
            interpreter.run(store)
        except OutOfMemory:
            continue
        except ExecutionError as exc:
            return f"runtime error on a sampled store: {exc}"
        if not store.is_well_formed():
            return "sampled run ended ill-formed"
        if post is not None and not eval_formula(post, store):
            return "sampled run violated the postcondition"
    return None


def replay_failed(program, result) -> Optional[str]:
    """None if every counterexample of the FAILED result fails
    concretely, else why not."""
    interpreter = Interpreter(program)
    witnessed = 0
    for subgoal_result in result.results:
        example = subgoal_result.counterexample
        if example is None:
            continue
        subgoal = subgoal_result.subgoal
        store = example.store.clone()
        if not store.is_well_formed():
            return f"{subgoal.description}: counterexample ill-formed"
        for item in subgoal.assume:
            if item.concrete is not None and not item.concrete(store):
                return (f"{subgoal.description}: counterexample violates "
                        f"assumption {item.name}")
        try:
            interpreter.run_statements(store, subgoal.statements)
        except OutOfMemory:
            return f"{subgoal.description}: replay ran out of memory"
        except ExecutionError:
            witnessed += 1
            continue
        if store.is_well_formed() and all(
                item.concrete is None or item.concrete(store)
                for item in subgoal.check):
            return f"{subgoal.description}: counterexample replays fine"
        witnessed += 1
    return None if witnessed else "FAILED without a counterexample"
