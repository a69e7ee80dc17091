"""Differential tests: the MTBDD kernel against the test-only reference.

``reference_kernel`` keeps the tuple-store kernel with manager-global
memo tables, and the product/projection/minimisation code written on
it.  The production kernel must compute the same functions with the
same node counts, and the automaton operations built on it must number
states exactly as the reference did: same state count, initial state,
accepting set and explicit transition table.  State numbering is what
the paper's States column, the Nodes column and counterexample words
depend on.
"""

import itertools

from hypothesis import given, settings, strategies as st

from reference_kernel import RefDfa, RefMtbdd
from repro.automata.symbolic import SymbolicDfa
from repro.bdd import Mtbdd

MAX_LEVELS = 6
ALL_ASSIGNMENTS = [dict(enumerate(bits)) for bits in
                   itertools.product([False, True], repeat=MAX_LEVELS)]

#: Leaf operators, each with a distinct reference op key.
BINARY_OPS = {
    "pair": lambda a, b: (a, b),
    "sum": lambda a, b: a + b,
    "max": max,
}
UNARY_OPS = {
    "double": lambda v: 2 * v,
    "parity": lambda v: v % 2,
    "box": lambda v: (v,),
}


@st.composite
def diagrams(draw):
    """A random function over up to six (non-contiguous) levels, as
    (levels, value table)."""
    width = draw(st.integers(min_value=0, max_value=MAX_LEVELS))
    levels = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=MAX_LEVELS - 1),
        min_size=width, max_size=width, unique=True)))
    table = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=2 ** len(levels),
                          max_size=2 ** len(levels)))
    return levels, table


def build(mgr, spec):
    """Shannon-expand a (levels, table) spec bottom-up with ``node``."""
    levels, table = spec

    def go(depth, offset, width):
        if depth == len(levels):
            return mgr.leaf(table[offset])
        half = width // 2
        return mgr.node(levels[depth], go(depth + 1, offset, half),
                        go(depth + 1, offset + half, half))

    return go(0, 0, 2 ** len(levels))


def function(mgr, f):
    return [mgr.evaluate(f, assignment) for assignment in ALL_ASSIGNMENTS]


@settings(max_examples=120, deadline=None)
@given(diagrams(), diagrams(), st.sampled_from(sorted(BINARY_OPS)))
def test_apply2_matches_reference(left, right, name):
    mgr, ref = Mtbdd(), RefMtbdd()
    op = BINARY_OPS[name]
    h = mgr.apply2(op, build(mgr, left), build(mgr, right))
    expected = ref.apply2(name, op, build(ref, left), build(ref, right))
    assert function(mgr, h) == function(ref, expected)
    assert mgr.count_nodes([h]) == ref.node_count([expected])


@settings(max_examples=120, deadline=None)
@given(st.lists(diagrams(), min_size=1, max_size=4),
       st.sampled_from(sorted(UNARY_OPS)))
def test_map_many_matches_reference(specs, name):
    mgr, ref = Mtbdd(), RefMtbdd()
    op = UNARY_OPS[name]
    images = mgr.map_many(op, [build(mgr, spec) for spec in specs])
    expected = [ref.map_leaves(name, op, build(ref, spec))
                for spec in specs]
    for image, reference in zip(images, expected):
        assert function(mgr, image) == function(ref, reference)
        assert mgr.count_nodes([image]) == ref.node_count([reference])
    assert mgr.count_nodes(images) == ref.node_count(expected)
    # Calls sharing one memo give the same diagrams as one batch.
    memo = {}
    assert [mgr.map_leaves(op, build(mgr, spec), memo)
            for spec in specs] == images


@settings(max_examples=120, deadline=None)
@given(diagrams(), st.dictionaries(
    st.integers(min_value=0, max_value=MAX_LEVELS - 1), st.booleans(),
    max_size=MAX_LEVELS))
def test_restrict_matches_reference(spec, assignment):
    mgr, ref = Mtbdd(), RefMtbdd()
    r = mgr.restrict(build(mgr, spec), assignment)
    expected = ref.restrict(build(ref, spec), assignment)
    assert function(mgr, r) == function(ref, expected)
    assert mgr.count_nodes([r]) == ref.node_count([expected])


# ----------------------------------------------------------------------
# Automaton operations
# ----------------------------------------------------------------------

DFA_TRACKS = 3
DFA_SYMBOLS = [dict(enumerate(bits)) for bits in
               itertools.product([False, True], repeat=DFA_TRACKS)]


@st.composite
def dfas(draw):
    """A random complete DFA over three tracks: (accepting, tables),
    one target table over the 8 symbols per state."""
    size = draw(st.integers(min_value=1, max_value=5))
    tables = [draw(st.lists(st.integers(min_value=0, max_value=size - 1),
                            min_size=2 ** DFA_TRACKS,
                            max_size=2 ** DFA_TRACKS))
              for _ in range(size)]
    accepting = draw(st.frozensets(st.integers(min_value=0,
                                               max_value=size - 1)))
    return accepting, tables


def both(spec, mgr, ref):
    accepting, tables = spec
    levels = list(range(DFA_TRACKS))
    new = SymbolicDfa(mgr, len(tables), 0, accepting,
                      [build(mgr, (levels, table)) for table in tables])
    old = RefDfa(ref, len(tables), 0, accepting,
                 [build(ref, (levels, table)) for table in tables])
    return new, old


def explicit(dfa):
    """(states, initial, accepting, target of every state/symbol)."""
    table = [[dfa.mgr.evaluate(root, symbol) for symbol in DFA_SYMBOLS]
             for root in dfa.delta]
    return dfa.num_states, dfa.initial, dfa.accepting, table


ACCEPTS = [lambda a, b: a and b, lambda a, b: a or b,
           lambda a, b: a and not b]


@settings(max_examples=100, deadline=None)
@given(dfas(), dfas(), st.sampled_from(range(len(ACCEPTS))))
def test_product_numbers_states_like_reference(left, right, which):
    mgr, ref = Mtbdd(), RefMtbdd()
    new_left, old_left = both(left, mgr, ref)
    new_right, old_right = both(right, mgr, ref)
    accept = ACCEPTS[which]
    assert explicit(new_left.product(new_right, accept)) == \
        explicit(old_left.product(old_right, accept))


@settings(max_examples=100, deadline=None)
@given(dfas(), st.integers(min_value=0, max_value=DFA_TRACKS - 1))
def test_project_determinize_numbers_states_like_reference(spec, track):
    mgr, ref = Mtbdd(), RefMtbdd()
    new, old = both(spec, mgr, ref)
    assert explicit(new.project(track).determinize()) == \
        explicit(old.project(track).determinize())


@settings(max_examples=100, deadline=None)
@given(dfas())
def test_minimize_numbers_states_like_reference(spec):
    mgr, ref = Mtbdd(), RefMtbdd()
    new, old = both(spec, mgr, ref)
    assert explicit(new.minimize()) == explicit(old.minimize())
