"""Tests for resource budgets (repro.robust.budget) and their
integration with the verification engine: cooperative cancellation,
structured TIMEOUT/BUDGET_EXCEEDED outcomes, the degradation ladder,
and verdict preservation under generous limits."""

import pytest

from repro.bdd import Mtbdd
from repro.robust.budget import (Budget, BudgetExceeded, NULL_BUDGET,
                                 activate, check_nodes, check_states,
                                 current_budget, tick)
from repro.verify import Outcome, verify_source

from util import wrap_program


def verify_body(body, pre="", post="", **kwargs):
    return verify_source(wrap_program(body, pre=pre, post=post), **kwargs)


class TestBudgetUnit:
    def test_null_budget_is_default_and_inactive(self):
        assert current_budget() is NULL_BUDGET
        assert NULL_BUDGET.active is False
        # All checks are no-ops on the null budget.
        tick("anywhere")
        check_nodes("anywhere", 10**12)
        check_states("anywhere", 10**12)

    def test_activate_restores_previous(self):
        budget = Budget(max_steps=100)
        with activate(budget):
            assert current_budget() is budget
        assert current_budget() is NULL_BUDGET

    def test_max_steps_trips_with_site(self):
        budget = Budget(max_steps=5)
        with activate(budget):
            with pytest.raises(BudgetExceeded) as info:
                for _ in range(10):
                    tick("test.site")
        assert info.value.limit == "steps"
        assert info.value.site == "test.site"
        assert budget.tripped is info.value

    def test_deadline_trips_on_check_time(self):
        budget = Budget(timeout=0.0)
        with pytest.raises(BudgetExceeded) as info:
            budget.check_time("phase.boundary")
        assert info.value.limit == "deadline"

    def test_node_and_state_caps(self):
        budget = Budget(max_bdd_nodes=10, max_states=20)
        budget.check_nodes("bdd.node", 10)  # at the cap: fine
        with pytest.raises(BudgetExceeded) as info:
            budget.check_nodes("bdd.node", 11)
        assert info.value.limit == "bdd_nodes"
        assert info.value.cap == 10
        with pytest.raises(BudgetExceeded):
            budget.check_states("automata.product", 21)

    def test_snapshot_and_limits_are_json_ready(self):
        import json
        budget = Budget(timeout=60, max_steps=3)
        with activate(budget):
            tick("a")
            tick("a")
        snapshot = budget.snapshot()
        assert snapshot["steps"] == 2
        assert snapshot["tripped"] is None
        json.dumps(snapshot)
        json.dumps(budget.limits())

    def test_message_names_limit_site_and_values(self):
        exc = BudgetExceeded("bdd_nodes", "bdd.node", 2049, 2048)
        assert "bdd_nodes" in str(exc)
        assert "bdd.node" in str(exc)
        assert "2049" in str(exc)


class CountingMemo(dict):
    """A memo table that counts the lookups answered from it."""

    hits = 0

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is not None:
            self.hits += 1
        return found


def _wide_diagram(mgr, levels, salt):
    """A diagram over ``levels`` tracks with 2**levels distinct leaves,
    so every operation on it misses once per node."""
    def go(depth, index):
        if depth == levels:
            return mgr.leaf((salt, index))
        return mgr.node(depth, go(depth + 1, 2 * index),
                        go(depth + 1, 2 * index + 1))

    return go(0, 0)


class TestKernelCancellation:
    """Budget checks fire inside one large kernel operation, and the
    manager's counters match the memo's activity when they do."""

    LEVELS = 11  # 4095 nodes per operand, 2048 of them leaves

    def operands(self):
        mgr = Mtbdd()
        return (mgr, _wide_diagram(mgr, self.LEVELS, "f"),
                _wide_diagram(mgr, self.LEVELS, "g"))

    def test_step_fuel_trips_inside_apply2(self):
        mgr, f, g = self.operands()
        memo = CountingMemo()
        budget = Budget(max_steps=500)
        with activate(budget), pytest.raises(BudgetExceeded) as info:
            mgr.apply2(lambda a, b: (a, b), f, g, memo)
        assert (info.value.limit, info.value.site) == ("steps", "bdd.apply")
        assert budget.steps == 501
        assert 0 < mgr.apply_misses == len(memo) < 500
        assert mgr.apply_hits == memo.hits

    def test_step_fuel_trips_inside_map_many(self):
        mgr, f, g = self.operands()
        memo = CountingMemo()
        with activate(Budget(max_steps=6000)), \
                pytest.raises(BudgetExceeded) as info:
            mgr.map_many(lambda value: value[1] % 7, [f, f, g], memo)
        assert (info.value.limit, info.value.site) == ("steps", "bdd.map")
        # The fuel runs out in the third root: the first root's 4095
        # nodes were all rewritten and the second root was a hit.
        assert 4095 < mgr.map_misses == len(memo) < 6000
        assert mgr.map_hits == memo.hits == 1

    def test_step_fuel_trips_inside_signatures(self):
        labels = {(salt, index): index % 7 for salt in "fg"
                  for index in range(2 ** self.LEVELS)}
        # The same walk through map_many, to read its memo activity.
        mgr, f, g = self.operands()
        memo = CountingMemo()
        with activate(Budget(max_steps=6000)), \
                pytest.raises(BudgetExceeded):
            mgr.map_many(labels.__getitem__, [f, f, g], memo)
        mgr, f, g = self.operands()
        size = len(mgr)
        with activate(Budget(max_steps=6000)), \
                pytest.raises(BudgetExceeded) as info:
            mgr.signatures(labels, [f, f, g])
        assert (info.value.limit, info.value.site) == ("steps", "bdd.map")
        assert len(mgr) == size
        assert 4095 < mgr.map_misses == len(memo) < 6000
        assert mgr.map_hits == memo.hits == 1

    def test_past_deadline_trips_before_the_operation_ends(self):
        mgr, f, g = self.operands()
        full = {}
        mgr.apply2(lambda a, b: (a, b), f, g, full)
        mgr, f, g = self.operands()
        memo = CountingMemo()
        with activate(Budget(timeout=0.0)), \
                pytest.raises(BudgetExceeded) as info:
            mgr.apply2(lambda a, b: (a, b), f, g, memo)
        # Whichever in-operation check reads the clock first trips it:
        # a step tick or a node-cap check.
        assert info.value.limit == "deadline"
        assert info.value.site in ("bdd.apply", "bdd.node")
        assert mgr.apply_misses == len(memo) < len(full)
        assert mgr.apply_hits == memo.hits

    def test_node_cap_trips_at_bdd_node(self):
        mgr, f, g = self.operands()
        memo = CountingMemo()
        cap = len(mgr) + 100
        with activate(Budget(max_bdd_nodes=cap)), \
                pytest.raises(BudgetExceeded) as info:
            mgr.apply2(lambda a, b: (a, b), f, g, memo)
        assert (info.value.limit, info.value.site) == \
            ("bdd_nodes", "bdd.node")
        assert cap < info.value.value <= cap + 1 + 0x3FF
        assert mgr.apply_misses == len(memo)
        assert mgr.apply_hits == memo.hits


class TestEngineBudgets:
    def test_zero_timeout_every_subgoal_times_out(self):
        result = verify_body(
            "  while x <> nil do x := x^.next", post="x = nil",
            timeout=0.0)
        assert result.results
        assert not result.valid
        assert result.outcome is Outcome.TIMEOUT
        for subgoal in result.results:
            assert subgoal.outcome is Outcome.TIMEOUT
            assert subgoal.error
            # A passed deadline skips the pointless retry.
            assert subgoal.attempts == 1

    def test_state_cap_budget_exceeded_after_retry(self):
        result = verify_body("  p := x", post="p = x", max_states=2)
        (subgoal,) = result.results
        assert subgoal.outcome is Outcome.BUDGET_EXCEEDED
        assert subgoal.attempts == 2
        assert subgoal.budget["tripped"]["limit"] == "automaton_states"
        assert result.outcome is Outcome.BUDGET_EXCEEDED

    def test_node_cap_trips_in_bdd_layer(self):
        result = verify_body(
            "  while x <> nil do x := x^.next", post="x = nil",
            max_bdd_nodes=16)
        assert result.outcome is Outcome.BUDGET_EXCEEDED
        tripped = result.results[0].budget["tripped"]
        assert tripped["limit"] == "bdd_nodes"

    def test_max_steps_is_deterministic(self):
        first = verify_body("  p := x", post="p = x", max_steps=50)
        second = verify_body("  p := x", post="p = x", max_steps=50)
        assert first.results[0].budget["steps"] == \
            second.results[0].budget["steps"]
        assert first.outcome is second.outcome is \
            Outcome.BUDGET_EXCEEDED

    def test_generous_budget_matches_unbudgeted_verdict(self):
        source = wrap_program("  p := x", post="p = x")
        plain = verify_source(source)
        budgeted = verify_source(source, timeout=600,
                                 max_bdd_nodes=10**8, max_states=10**6)
        assert plain.valid and budgeted.valid
        assert plain.to_dict()["stats"] == budgeted.to_dict()["stats"]
        assert [r.valid for r in plain.results] == \
            [r.valid for r in budgeted.results]
        assert budgeted.budget["timeout"] == 600

    def test_budget_deactivated_after_run(self):
        verify_body("  p := x", post="p = x", timeout=600)
        assert current_budget() is NULL_BUDGET

    def test_schema_v2_document(self):
        result = verify_body("  p := x", post="p = x", max_states=2)
        document = result.to_dict()
        assert document["schema_version"] == 2
        assert document["outcome"] == "BUDGET_EXCEEDED"
        assert document["budget"]["max_states"] == 2
        subgoal = document["subgoals"][0]
        assert subgoal["outcome"] == "BUDGET_EXCEEDED"
        assert subgoal["attempts"] == 2
        assert subgoal["error"]

    def test_retry_can_be_disabled(self):
        result = verify_body("  p := x", post="p = x", max_states=2,
                             retry_alternate=False)
        assert result.results[0].attempts == 1


class TestExceptionPickling:
    """Every exception the engine may raise must survive the worker
    process boundary: the parallel executor ships failures back to
    the parent by pickling them, so a round trip has to preserve
    type, message, and structured fields exactly."""

    @staticmethod
    def round_trip(exc):
        import pickle
        return pickle.loads(pickle.dumps(exc))

    def test_budget_exceeded_round_trips(self):
        original = BudgetExceeded("bdd_nodes", "bdd.node", 2049, 2048)
        clone = self.round_trip(original)
        assert type(clone) is BudgetExceeded
        assert str(clone) == str(original)
        assert (clone.limit, clone.site, clone.value, clone.cap) == \
            ("bdd_nodes", "bdd.node", 2049, 2048)

    def test_verification_error_round_trips_without_double_prefix(self):
        from repro.errors import VerificationError
        original = VerificationError("subgoal exploded", line=3,
                                     column=7)
        clone = self.round_trip(original)
        assert type(clone) is VerificationError
        assert str(clone) == str(original)
        assert (clone.line, clone.column) == (3, 7)
        # Reconstruction must not re-apply the position prefix.
        assert str(clone) == "3:7: subgoal exploded"

    def test_parse_error_round_trips(self):
        from repro.errors import ParseError
        original = ParseError("unexpected token", line=1, column=2)
        clone = self.round_trip(original)
        assert type(clone) is ParseError
        assert str(clone) == str(original)

    def test_injected_fault_exceptions_round_trip(self):
        from repro.robust import faults
        for kind in faults.FAULT_KINDS:
            if kind == "interrupt":
                continue  # KeyboardInterrupt never crosses the wire
            if kind in faults.CRASH_KINDS:
                continue  # exit/kill terminate the process outright —
                # there is no exception to ship across the wire
            try:
                faults.parse_plan(f"mso.compile:{kind}").fire(
                    "mso.compile")
            except Exception as exc:
                clone = self.round_trip(exc)
                assert type(clone) is type(exc)
                assert str(clone) == str(exc)
            else:  # pragma: no cover - every kind must raise
                raise AssertionError(f"fault kind {kind} did not fire")


class TestOutcomeAggregation:
    def test_failed_dominates_degraded(self):
        from repro.verify.engine import _OUTCOME_SEVERITY
        assert _OUTCOME_SEVERITY[Outcome.FAILED] > \
            _OUTCOME_SEVERITY[Outcome.ERROR] > \
            _OUTCOME_SEVERITY[Outcome.BUDGET_EXCEEDED] > \
            _OUTCOME_SEVERITY[Outcome.TIMEOUT] > \
            _OUTCOME_SEVERITY[Outcome.VERIFIED]

    def test_decided_property(self):
        assert Outcome.VERIFIED.decided
        assert Outcome.FAILED.decided
        assert not Outcome.TIMEOUT.decided
        assert not Outcome.BUDGET_EXCEEDED.decided
        assert not Outcome.ERROR.decided
