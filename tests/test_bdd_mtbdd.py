"""Unit and property tests for the MTBDD package."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import Mtbdd


@pytest.fixture
def mgr():
    return Mtbdd()


class TestBasics:
    def test_leaf_hash_consing(self, mgr):
        assert mgr.leaf("a") == mgr.leaf("a")
        assert mgr.leaf("a") != mgr.leaf("b")

    def test_leaf_value(self, mgr):
        assert mgr.leaf_value(mgr.leaf(42)) == 42

    def test_leaf_value_rejects_internal(self, mgr):
        node = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        with pytest.raises(ValueError):
            mgr.leaf_value(node)

    def test_redundant_node_collapses(self, mgr):
        leaf = mgr.leaf("x")
        assert mgr.node(0, leaf, leaf) == leaf

    def test_evaluate(self, mgr):
        f = mgr.node(0, mgr.leaf("lo"), mgr.leaf("hi"))
        assert mgr.evaluate(f, {0: True}) == "hi"
        assert mgr.evaluate(f, {0: False}) == "lo"
        assert mgr.evaluate(f, {}) == "lo"

    def test_is_leaf(self, mgr):
        assert mgr.is_leaf(mgr.leaf(0))
        assert not mgr.is_leaf(mgr.node(1, mgr.leaf(0), mgr.leaf(1)))

    def test_low_high_level(self, mgr):
        lo, hi = mgr.leaf("a"), mgr.leaf("b")
        f = mgr.node(5, lo, hi)
        assert mgr.level(f) == 5
        assert mgr.low(f) == lo
        assert mgr.high(f) == hi


class TestCombinators:
    def test_apply2_pairs(self, mgr):
        f = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        g = mgr.node(1, mgr.leaf(10), mgr.leaf(20))
        h = mgr.apply2(lambda a, b: (a, b), f, g)
        assert mgr.evaluate(h, {0: True, 1: False}) == (2, 10)
        assert mgr.evaluate(h, {0: False, 1: True}) == (1, 20)

    def test_apply2_collapses_equal_results(self, mgr):
        f = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        g = mgr.node(0, mgr.leaf(2), mgr.leaf(1))
        total = mgr.apply2(lambda a, b: a + b, f, g)
        assert mgr.is_leaf(total)
        assert mgr.leaf_value(total) == 3

    def test_map_leaves(self, mgr):
        f = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        g = mgr.map_leaves(lambda v: v * 2, f)
        assert mgr.evaluate(g, {0: True}) == 4

    def test_restrict(self, mgr):
        f = mgr.node(0, mgr.node(1, mgr.leaf("a"), mgr.leaf("b")),
                     mgr.leaf("c"))
        r = mgr.restrict(f, {0: False})
        assert mgr.evaluate(r, {1: True}) == "b"
        assert mgr.restrict(f, {}) == f

    def test_leaves(self, mgr):
        f = mgr.node(0, mgr.node(1, mgr.leaf("a"), mgr.leaf("b")),
                     mgr.leaf("a"))
        assert mgr.leaves(f) == frozenset({"a", "b"})

    def test_support(self, mgr):
        f = mgr.node(0, mgr.node(2, mgr.leaf(1), mgr.leaf(2)), mgr.leaf(3))
        assert mgr.support(f) == frozenset({0, 2})
        assert mgr.support(mgr.leaf(9)) == frozenset()

    def test_node_count(self, mgr):
        inner = mgr.node(1, mgr.leaf(1), mgr.leaf(2))
        f = mgr.node(0, inner, mgr.leaf(3))
        assert mgr.count_nodes([f]) == 2
        assert mgr.count_nodes([mgr.leaf(1)]) == 0

    def test_paths_cover_every_assignment(self, mgr):
        f = mgr.node(0, mgr.node(1, mgr.leaf("a"), mgr.leaf("b")),
                     mgr.leaf("c"))
        paths = list(mgr.paths(f))
        assert len(paths) == 3
        for assignment, value in paths:
            assert mgr.evaluate(f, assignment) == value

    def test_find_leaf(self, mgr):
        f = mgr.node(0, mgr.leaf("a"), mgr.leaf("b"))
        hit = mgr.find_leaf(f, lambda v: v == "b")
        assert hit == {0: True}
        assert mgr.find_leaf(f, lambda v: v == "z") is None


# ----------------------------------------------------------------------
# Property-based: MTBDDs as functions
# ----------------------------------------------------------------------

NUM_TRACKS = 3


def _tables():
    """A random function {0,1}^3 -> small int, as a lookup table."""
    return st.lists(st.integers(min_value=0, max_value=4),
                    min_size=2 ** NUM_TRACKS, max_size=2 ** NUM_TRACKS)


def _index(bits):
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


def _from_table(mgr, table):
    from repro.automata.symbolic import delta_from_function
    return delta_from_function(
        mgr, range(NUM_TRACKS),
        lambda a: table[_index([a[t] for t in range(NUM_TRACKS)])])


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_table_roundtrip(table):
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    for bits in itertools.product([False, True], repeat=NUM_TRACKS):
        env = dict(enumerate(bits))
        assert mgr.evaluate(f, env) == table[_index(bits)]


@settings(max_examples=80, deadline=None)
@given(_tables(), _tables())
def test_apply2_pointwise(left, right):
    mgr = Mtbdd()
    f = _from_table(mgr, left)
    g = _from_table(mgr, right)
    h = mgr.apply2(lambda a, b: a + b, f, g)
    for bits in itertools.product([False, True], repeat=NUM_TRACKS):
        env = dict(enumerate(bits))
        index = _index(bits)
        assert mgr.evaluate(h, env) == left[index] + right[index]


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_leaves_is_range(table):
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    assert mgr.leaves(f) == frozenset(table)


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_canonical_form(table):
    """Two constructions of the same function yield the same node."""
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    g = _from_table(mgr, list(table))
    assert f == g
