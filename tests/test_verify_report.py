"""Tests for the reporters (repro.verify.report) and the extended
compilation statistics: table rows, the full-program report, the
``--profile`` timing tree, the ``--json`` export, and
``CompilationStats.record``/``merge``/``capture_manager``.
"""

import json

import pytest

from repro.bdd.mtbdd import Mtbdd
from repro.mso.compile import CompilationStats
from repro.obs.trace import Tracer
from repro.verify import verify_source
from repro.verify.report import (TABLE_HEADER, format_json,
                                 format_result, format_span,
                                 format_table, format_table_row,
                                 format_timing_tree)

from util import wrap_program


def verify_body(body, pre="", post="", **kwargs):
    return verify_source(wrap_program(body, pre=pre, post=post), **kwargs)


@pytest.fixture(scope="module")
def traced_result():
    """One small traced verification shared by the formatting tests."""
    return verify_body("  p := x", post="p = x", tracer=Tracer())


@pytest.fixture(scope="module")
def untraced_result():
    return verify_body("  p := x", post="p = x")


class TestTable:
    def test_row_aligns_with_header(self, untraced_result):
        row = format_table_row(untraced_result)
        assert "yes" in row
        assert row.startswith("t ")  # wrap_program's default name
        header_valid = TABLE_HEADER.index("Valid")
        assert row.index("yes") == header_valid

    def test_failing_row_says_no(self):
        result = verify_body("  p := x", post="p = nil")
        assert not result.valid
        assert format_table_row(result).rstrip().endswith("NO")

    def test_degraded_row_names_outcome(self):
        result = verify_body("  p := x", post="p = x", timeout=0.0)
        row = format_table_row(result)
        assert row.rstrip().endswith("TIMEOUT")

    def test_format_table_has_header_rule_rows(self, untraced_result):
        table = format_table([untraced_result, untraced_result])
        lines = table.splitlines()
        assert lines[0] == TABLE_HEADER
        assert set(lines[1]) == {"-"}
        assert len(lines) == 4


class TestFormatResult:
    def test_verified_report(self, untraced_result):
        text = format_result(untraced_result)
        assert "VERIFIED" in text
        assert "postcondition" in text
        assert "[ok ]" in text

    def test_failed_report_includes_counterexample(self):
        result = verify_body("  p := x", post="p = nil")
        text = format_result(result)
        assert "FAILED" in text
        assert "[FAIL]" in text
        assert "counterexample:" in text


class TestTimingTree:
    def test_untraced_subgoals_print_hint(self, untraced_result):
        tree = format_timing_tree(untraced_result)
        assert "timing (1 subgoals" in tree
        assert "--profile" in tree

    def test_traced_tree_lists_phases(self, traced_result):
        tree = format_timing_tree(traced_result)
        for phase in ("exec.symbolic", "translate", "compile",
                      "universality"):
            assert phase in tree, tree
        # Box-drawing connectors, and ms-formatted durations.
        assert "├─ " in tree and "└─ " in tree
        assert "ms" in tree

    def test_tree_total_matches_subgoal_seconds(self, traced_result):
        (subgoal,) = traced_result.results
        assert subgoal.span is not None
        assert subgoal.seconds == subgoal.span.seconds

    def test_format_span_renders_attributes(self, traced_result):
        (subgoal,) = traced_result.results
        lines = format_span(subgoal.span)
        assert lines[0].startswith("subgoal")
        compile_lines = [line for line in lines if "compile" in line]
        assert any("states=" in line for line in compile_lines)


class TestJsonExport:
    def test_round_trip_schema(self, traced_result):
        document = json.loads(format_json(traced_result))
        assert document["schema_version"] == 2
        assert document["program"] == "t"
        assert document["valid"] is True
        assert document["outcome"] == "VERIFIED"
        assert document["interrupted"] is False
        assert document["budget"] is None
        assert document["seconds"] == pytest.approx(
            traced_result.seconds)
        (subgoal,) = document["subgoals"]
        assert subgoal["description"] == "postcondition"
        assert subgoal["counterexample"] is None
        span = subgoal["span"]
        assert span["name"] == "subgoal"
        child_names = [child["name"] for child in span["children"]]
        assert child_names == ["exec.symbolic", "translate", "compile",
                               "universality"]

    def test_stats_include_bdd_cache_counters(self, traced_result):
        document = json.loads(format_json(traced_result))
        stats = document["stats"]
        for key in ("bdd_apply_hits", "bdd_apply_misses",
                    "bdd_map_hits", "bdd_map_misses",
                    "bdd_restrict_hits", "bdd_restrict_misses",
                    "unique_table_size", "peak_nodes",
                    "formula_memo_hits"):
            assert key in stats
        assert stats["bdd_apply_misses"] > 0
        assert stats["peak_nodes"] > 0
        assert stats["max_states"] > 0

    def test_untraced_subgoal_has_null_span(self, untraced_result):
        document = json.loads(format_json(untraced_result))
        assert document["subgoals"][0]["span"] is None

    def test_failed_run_exports_counterexample(self):
        result = verify_body("  p := x", post="p = nil")
        document = json.loads(format_json(result))
        assert document["valid"] is False
        counterexample = document["subgoals"][0]["counterexample"]
        assert counterexample is not None
        assert counterexample["description"]


class _FakeDfa:
    """Just enough surface for CompilationStats.record."""

    def __init__(self, states, nodes):
        self.num_states = states
        self._nodes = nodes

    def bdd_node_count(self):
        return self._nodes


class TestCompilationStats:
    def test_record_tracks_maxima(self):
        stats = CompilationStats()
        stats.record(_FakeDfa(5, 40))
        stats.record(_FakeDfa(3, 90))
        assert stats.max_states == 5
        assert stats.max_nodes == 90

    def test_capture_manager_copies_counters_idempotently(self):
        mgr = Mtbdd()
        f = mgr.node(0, mgr.leaf(0), mgr.leaf(1))
        memo = {}
        mgr.apply2(min, f, f, memo)
        mgr.apply2(min, f, f, memo)
        stats = CompilationStats()
        stats.capture_manager(mgr)
        once = (stats.bdd_apply_hits, stats.bdd_apply_misses,
                stats.unique_table_size, stats.peak_nodes)
        stats.capture_manager(mgr)
        assert (stats.bdd_apply_hits, stats.bdd_apply_misses,
                stats.unique_table_size, stats.peak_nodes) == once
        assert stats.bdd_apply_hits > 0
        assert stats.bdd_apply_misses > 0
        assert stats.peak_nodes == len(mgr)

    def test_merge_sums_counters_and_maxes_marks(self):
        left = CompilationStats(
            max_states=10, max_nodes=100, products=2, projections=1,
            minimizations=3, compiled_nodes=7, formula_memo_hits=4,
            bdd_apply_hits=20, bdd_apply_misses=30, bdd_map_hits=1,
            bdd_map_misses=2, bdd_restrict_hits=3,
            bdd_restrict_misses=4, unique_table_size=50,
            peak_nodes=60)
        right = CompilationStats(
            max_states=8, max_nodes=200, products=1, projections=2,
            minimizations=1, compiled_nodes=5, formula_memo_hits=6,
            bdd_apply_hits=5, bdd_apply_misses=5, bdd_map_hits=5,
            bdd_map_misses=5, bdd_restrict_hits=5,
            bdd_restrict_misses=5, unique_table_size=40,
            peak_nodes=90)
        left.merge(right)
        # High-water marks take the maximum...
        assert left.max_states == 10
        assert left.max_nodes == 200
        assert left.unique_table_size == 50
        assert left.peak_nodes == 90
        # ...counters are summed.
        assert left.products == 3
        assert left.projections == 3
        assert left.minimizations == 4
        assert left.compiled_nodes == 12
        assert left.formula_memo_hits == 10
        assert left.bdd_apply_hits == 25
        assert left.bdd_apply_misses == 35
        assert left.bdd_map_hits == 6
        assert left.bdd_restrict_misses == 9

    def test_to_dict_covers_every_field(self):
        stats = CompilationStats()
        document = stats.to_dict()
        assert set(document) == set(
            CompilationStats.__dataclass_fields__)

    def test_aggregate_stats_sums_across_subgoals(self):
        result = verify_body(
            "  while x <> nil do x := x^.next", post="x = nil")
        assert len(result.results) >= 2
        merged = result.aggregate_stats()
        assert merged.bdd_apply_misses == sum(
            r.stats.bdd_apply_misses for r in result.results)
        assert merged.max_states == max(
            r.stats.max_states for r in result.results)
