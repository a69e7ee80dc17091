"""The per-layer metrics of a traced run, and how they are computed.

Times are self seconds per pass, from :mod:`layers` spans.  Counts
come from the run reports (``VerificationResult.to_dict()`` in-process,
the ``/v1/verify`` response body on `serve`), summed over the subgoals
actually decided in the pass; a subgoal answered from the verdict
cache carries the statistics of the run that stored it and is not
counted again.  ``README.md`` lists which end-to-end metric each one
should move, and on which workload.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Tuple

#: Layer span name -> per-layer time metric.
TIME_METRICS: Dict[str, str] = {
    "pascal.parse": "pascal.parse_s",
    "pascal.check": "pascal.check_s",
    "verify.split": "verify.split_s",
    "verify.run": "verify.engine_self_s",
    "verify.decide": "verify.engine_self_s",
    "analysis.slice": "analysis.slice_s",
    "analysis.coi": "analysis.coi_s",
    "analysis.order": "analysis.order_s",
    "analysis.fingerprint": "analysis.fingerprint_s",
    "symbolic.exec": "symbolic.exec_s",
    "symbolic.wf": "symbolic.wf_s",
    "storelogic.translate": "storelogic.translate_s",
    "mso.compile": "mso.compile_self_s",
    "mso.stats_record": "mso.stats_record_s",
    "automata.product": "automata.product_s",
    "automata.project_determinize": "automata.project_determinize_s",
    "automata.minimize": "automata.minimize_s",
    "automata.shortest": "automata.shortest_s",
    "counterexample.decode": "counterexample.decode_s",
    "counterexample.simulate": "counterexample.simulate_s",
    "cache.lookup": "cache.lookup_s",
    "cache.store": "cache.store_s",
}

#: Every per-layer metric, in report order: (name, unit), as declared
#: in ``BENCHMARK.json``.
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json"),
        encoding="utf-8") as _spec:
    PER_LAYER: List[Tuple[str, str]] = [
        (entry["name"], entry["unit"])
        for entry in json.load(_spec)["per_layer"]]

_SUMMED = ("products", "projections", "minimizations", "compiled_nodes",
           "formula_memo_hits", "bdd_apply_hits", "bdd_apply_misses",
           "bdd_map_hits", "bdd_map_misses", "bdd_restrict_hits",
           "bdd_restrict_misses")
_MAXED = ("max_states", "max_nodes", "unique_table_size", "peak_nodes")


def counts_from_reports(reports: Iterable[dict]) -> Dict[str, float]:
    """Report-derived counts of one pass (see the module docstring)."""
    total: Dict[str, float] = {key: 0 for key in _SUMMED + _MAXED}
    extra = {"subgoals": 0, "statements_before": 0, "statements_after": 0,
             "tracks_before": 0, "tracks_after": 0, "formula_size": 0,
             "counterexamples": 0, "cache_hits": 0, "cache_misses": 0}
    for report in reports:
        for subgoal in report.get("subgoals", []):
            cache = subgoal.get("cache")
            if cache is not None:
                extra["cache_hits" if cache["hit"] else "cache_misses"] += 1
                if cache["hit"]:
                    continue
            extra["subgoals"] += 1
            for key in ("statements_before", "statements_after",
                        "tracks_before", "tracks_after", "formula_size"):
                extra[key] += subgoal.get(key) or 0
            if subgoal.get("counterexample") is not None:
                extra["counterexamples"] += 1
            stats = subgoal.get("stats") or {}
            for key in _SUMMED:
                total[key] += stats.get(key, 0)
            for key in _MAXED:
                total[key] = max(total[key], stats.get(key, 0))
    total.update(extra)
    return total


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(layer_seconds: Dict[str, float], counts: Dict[str, float],
              extra: Dict[str, float]) -> Dict[str, dict]:
    """Every :data:`PER_LAYER` metric as ``{"value", "unit"}``."""
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for layer, seconds in layer_seconds.items():
        if layer in TIME_METRICS:
            values[TIME_METRICS[layer]] += seconds
    values.update({
        "verify.subgoals": counts["subgoals"],
        "analysis.statements_before": counts["statements_before"],
        "analysis.statements_after": counts["statements_after"],
        "analysis.tracks_before": counts["tracks_before"],
        "analysis.tracks_after": counts["tracks_after"],
        "mso.formula_size": counts["formula_size"],
        "mso.products": counts["products"],
        "mso.projections": counts["projections"],
        "mso.minimizations": counts["minimizations"],
        "mso.memo_hit_ratio": _ratio(counts["formula_memo_hits"],
                                     counts["compiled_nodes"]),
        "automata.max_states": counts["max_states"],
        "automata.max_nodes": counts["max_nodes"],
        "bdd.apply_misses": counts["bdd_apply_misses"],
        "bdd.apply_hit_ratio": _ratio(counts["bdd_apply_hits"],
                                      counts["bdd_apply_misses"]),
        "bdd.map_misses": counts["bdd_map_misses"],
        "bdd.map_hit_ratio": _ratio(counts["bdd_map_hits"],
                                    counts["bdd_map_misses"]),
        "bdd.restrict_misses": counts["bdd_restrict_misses"],
        "bdd.unique_table_size": counts["unique_table_size"],
        "bdd.peak_nodes": counts["peak_nodes"],
        "counterexample.count": counts["counterexamples"],
        "cache.hits": counts["cache_hits"],
        "cache.misses": counts["cache_misses"],
        "cache.hit_ratio": _ratio(counts["cache_hits"],
                                  counts["cache_misses"]),
    })
    values.update(extra)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
