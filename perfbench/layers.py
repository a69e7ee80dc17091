"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` replaces public functions of each layer with
wrappers that record a span (layer, start, end, parent) around every
call.  Spans are kept in memory and written out when the run ends; a
layer's self time is its spans' durations minus the time their child
spans cover.  Nothing under ``src/`` is modified; :meth:`LayerTracer.remove`
puts every original binding back.

The engine imports several layer functions into its own namespace
(``repro.verify.engine.exec_statements`` and friends), so a wrapper
replaces the binding the caller actually looks up, not the defining
module's.  The MTBDD kernel (``Mtbdd.apply2``/``map_leaves``/``node``)
is never wrapped: it is recursive and hot, and a wrapper would mostly
measure itself; its counters come from the run report's ``stats``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped binding.  The
#: attribute path is ``name`` for a module-level function and
#: ``Class.method`` for a method.
WRAPPED: List[Tuple[str, str, str]] = [
    ("pascal.parse", "repro.pascal", "parse_program"),
    ("pascal.check", "repro.pascal", "check_program"),
    ("pascal.parse", "repro.serve.daemon", "parse_program"),
    ("pascal.check", "repro.serve.daemon", "check_program"),
    ("verify.run", "repro.verify.engine", "Verifier.verify"),
    ("verify.decide", "repro.verify.engine", "Verifier.decide_index"),
    ("verify.split", "repro.verify.engine", "Verifier.collect_subgoals"),
    ("analysis.slice", "repro.verify.engine", "slice_statements"),
    ("analysis.coi", "repro.verify.engine", "cone_of_influence"),
    ("analysis.order", "repro.verify.engine", "choose_order"),
    ("analysis.fingerprint", "repro.verify.engine", "subgoal_fingerprint"),
    ("symbolic.exec", "repro.verify.engine", "exec_statements"),
    ("symbolic.exec", "repro.verify.engine", "eval_guard"),
    ("symbolic.wf", "repro.verify.engine", "wf_string"),
    ("symbolic.wf", "repro.verify.engine", "wf_graph"),
    ("storelogic.translate", "repro.verify.engine", "translate_formula"),
    ("mso.compile", "repro.mso.compile", "Compiler.compile"),
    ("mso.stats_record", "repro.mso.compile", "CompilationStats.record"),
    ("automata.product", "repro.automata.symbolic", "SymbolicDfa.product"),
    ("automata.project_determinize", "repro.automata.symbolic",
     "SymbolicDfa.project"),
    ("automata.project_determinize", "repro.automata.symbolic",
     "SymbolicNfa.determinize"),
    ("automata.minimize", "repro.automata.symbolic", "SymbolicDfa.minimize"),
    ("automata.shortest", "repro.automata.symbolic",
     "SymbolicDfa.shortest_accepted"),
    ("counterexample.decode", "repro.verify.engine", "decode_store"),
    ("counterexample.simulate", "repro.exec.interpreter",
     "Interpreter.run_statements"),
    ("cache.lookup", "repro.verify.cache", "VerdictCache.lookup"),
    ("cache.store", "repro.verify.cache", "VerdictCache.store"),
]

LAYERS = sorted({layer for layer, _, _ in WRAPPED})

#: One recorded span: (id, parent id or -1, layer, start, end).
Span = Tuple[int, int, str, float, float]


class LayerTracer:
    """Installs the wrappers and keeps the spans they record.

    With ``rooted`` set, wrapped calls are recorded only inside a
    :meth:`root` block, so the benchmark's own output checks (which
    call the interpreter too) stay out of the layer totals.  Each
    thread keeps its own span stack.  Self time is accumulated as
    spans close; with ``keep_spans`` every span is also kept, and with
    ``dump_dir`` the running totals are written to
    ``<dump_dir>/layers-<pid>.json`` whenever a top-level span closes
    (how forked ``repro serve`` workers hand their totals back).
    """

    def __init__(self, rooted: bool = True, keep_spans: bool = True,
                 dump_dir: Optional[str] = None) -> None:
        self.rooted = rooted
        self.keep_spans = keep_spans
        self.dump_dir = dump_dir
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []
        self._reset_state()

    def _reset_state(self) -> None:
        self.spans: List[Span] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._dump_lock = threading.Lock()
        self._next_id = 0
        self._pid = os.getpid()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path in WRAPPED:
            module = importlib.import_module(module_name)
            owner: object = module
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[list]:
        if os.getpid() != self._pid:
            # A forked worker inherits its parent's totals (and maybe a
            # held lock); it starts afresh.
            self._reset_state()
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, stack: List[list]) -> list:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, parent, 0.0]
        stack.append(frame)
        return frame

    def _close(self, stack: List[list], frame: list, layer: str,
               start: float) -> None:
        end = time.perf_counter()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.seconds[layer] += duration - frame[2]
            self.calls[layer] += 1
            if self.keep_spans:
                self.spans.append((frame[0], frame[1], layer, start, end))
        if not stack and self.dump_dir is not None:
            self.dump()

    def _wrap(self, layer: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if tracer.rooted and not stack:
                return original(*args, **kwargs)
            frame = tracer._open(stack)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(stack, frame, layer, start)

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """Record the block as a root span named ``bench``."""
        stack = self._stack()
        frame = self._open(stack)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, frame, "bench", start)

    # -- results --------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-layer self seconds and call counts so far (root spans
        included under their own name)."""
        with self._lock:
            return dict(self.seconds), dict(self.calls)

    def edges(self) -> Dict[str, float]:
        """Seconds spent in each ``parent>child`` layer pair, from the
        kept spans: the call tree in aggregate."""
        with self._lock:
            spans = list(self.spans)
        layer_of = {span[0]: span[2] for span in spans}
        edges: Dict[str, float] = defaultdict(float)
        for _, parent, layer, start, end in spans:
            edges[f"{layer_of.get(parent, '-')}>{layer}"] += end - start
        return dict(edges)

    def dump(self) -> None:
        # Serialised, so that a stale snapshot never replaces a newer one.
        with self._dump_lock:
            seconds, calls = self.self_times()
            path = os.path.join(self.dump_dir, f"layers-{os.getpid()}.json")
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump({"seconds": seconds, "calls": calls}, handle)
            os.replace(path + ".tmp", path)

