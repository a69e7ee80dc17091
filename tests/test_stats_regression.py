"""Regression bounds on verification statistics.

The §6-style statistics (largest automaton, BDD nodes, subgoal count)
are deterministic for a fixed implementation; these tests pin them
inside generous brackets so an accidental regression in minimisation,
formula sharing, or the restriction technique shows up as a test
failure rather than a silent 100x slowdown.
"""

import pytest

from repro.programs import REVERSE, SEARCH, TRIPLE
from repro.verify import verify_source

pytestmark = pytest.mark.slow

#: name -> (source, max states bracket, max nodes bracket, subgoals)
BRACKETS = {
    "reverse": (REVERSE, (50, 1_000), (100, 5_000), 3),
    "search": (SEARCH, (50, 1_000), (100, 5_000), 3),
    "triple": (TRIPLE, (100, 3_000), (500, 15_000), 1),
}

#: name -> the paper's Table 1 columns (Formula, States, Nodes) exactly
#: as this implementation computes them.  Any change to state
#: numbering, minimisation or formula sharing moves these.
EXACT = {
    "reverse": (1438, 157, 424),
    "search": (1961, 144, 421),
}


@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_statistics_within_brackets(name):
    source, states_bracket, nodes_bracket, subgoals = BRACKETS[name]
    result = verify_source(source, simulate=False)
    assert result.valid
    assert len(result.results) == subgoals
    low, high = states_bracket
    assert low <= result.max_states <= high, (
        f"{name}: {result.max_states} states left the expected "
        f"bracket {states_bracket} — did minimisation or the "
        f"first-order restriction regress?")
    low, high = nodes_bracket
    assert low <= result.max_nodes <= high, (
        f"{name}: {result.max_nodes} BDD nodes left the expected "
        f"bracket {nodes_bracket}")
    if name in EXACT:
        assert (result.formula_size, result.max_states,
                result.max_nodes) == EXACT[name]


def test_statistics_are_deterministic():
    """Two runs of the same verification produce identical counts
    (the whole pipeline is deterministic, BFS tie-breaks included)."""
    first = verify_source(REVERSE, simulate=False)
    second = verify_source(REVERSE, simulate=False)
    assert first.max_states == second.max_states
    assert first.max_nodes == second.max_nodes
    assert first.formula_size == second.formula_size


def test_formula_sharing_keeps_sizes_linear():
    """The transduction shares subformulas: reverse's whole
    verification formula stays in the low thousands of nodes."""
    result = verify_source(REVERSE, simulate=False)
    assert result.formula_size < 5_000
