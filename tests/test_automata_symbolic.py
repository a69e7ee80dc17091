"""Tests for the MTBDD-backed symbolic automata.

The oracle is the explicit-alphabet DFA layer: a symbolic automaton
over k tracks is compared against an explicit automaton over the
alphabet {0,1}^k on all short words.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_kernel import determinize_both
from repro.automata.explicit import Dfa
from repro.automata.symbolic import (SymbolicDfa, SymbolicNfa,
                                     delta_from_function)
from repro.bdd import Mtbdd

NUM_TRACKS = 2
SYMBOLS = [dict(zip(range(NUM_TRACKS), bits))
           for bits in itertools.product([False, True],
                                         repeat=NUM_TRACKS)]


def _assert_determinize_like_reference(tables, initial, accepting):
    """Determinise the NFA given by per-state target-set tables over
    SYMBOLS, with bitmask leaves here and frozenset leaves in the
    reference kernel; the explicit DFA tables must agree."""
    new, old = determinize_both(tables, initial, accepting, SYMBOLS)
    assert new == old
    return new


def _random_symbolic(rng, num_states, mgr=None):
    """A random complete symbolic DFA over NUM_TRACKS tracks."""
    mgr = mgr if mgr is not None else Mtbdd()
    table = {}
    for state in range(num_states):
        for index, _symbol in enumerate(SYMBOLS):
            table[(state, index)] = rng.randrange(num_states)
    delta = [
        delta_from_function(
            mgr, range(NUM_TRACKS),
            lambda a, s=state: table[
                (s, _symbol_index(a))])
        for state in range(num_states)]
    accepting = frozenset(
        state for state in range(num_states) if rng.random() < 0.4)
    return SymbolicDfa(mgr, num_states, 0, accepting, delta), table


def _symbol_index(assignment):
    value = 0
    for track in range(NUM_TRACKS):
        value = (value << 1) | int(assignment[track])
    return value


def _to_explicit(sym, table, num_states, accepting):
    alphabet = frozenset(range(len(SYMBOLS)))
    delta = [{index: table[(state, index)] for index in alphabet}
             for state in range(num_states)]
    return Dfa(num_states=num_states, alphabet=alphabet, initial=0,
               accepting=set(accepting), delta=delta)


def _words(max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(len(SYMBOLS)), repeat=length)


def _sym_word(word):
    return [SYMBOLS[index] for index in word]


class TestAgainstExplicitOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_acceptance_matches(self, seed):
        rng = random.Random(seed)
        sym, table = _random_symbolic(rng, 5)
        exp = _to_explicit(sym, table, 5, sym.accepting)
        for word in _words(4):
            assert sym.accepts(_sym_word(word)) == exp.accepts(word)

    @pytest.mark.parametrize("seed", range(8))
    def test_product_matches(self, seed):
        rng = random.Random(seed)
        mgr = Mtbdd()
        sym1, t1 = _random_symbolic(rng, 4, mgr)
        sym2, t2 = _random_symbolic(rng, 3, mgr)
        exp1 = _to_explicit(sym1, t1, 4, sym1.accepting)
        exp2 = _to_explicit(sym2, t2, 3, sym2.accepting)
        for name in ("intersect", "union", "difference"):
            sprod = getattr(sym1, name)(sym2)
            eprod = getattr(exp1, name)(exp2)
            for word in _words(3):
                assert sprod.accepts(_sym_word(word)) == \
                    eprod.accepts(word), (name, word)

    @pytest.mark.parametrize("seed", range(8))
    def test_minimize_preserves_and_shrinks(self, seed):
        rng = random.Random(seed)
        sym, _ = _random_symbolic(rng, 6)
        mini = sym.minimize()
        assert mini.num_states <= sym.num_states
        for word in _words(4):
            assert sym.accepts(_sym_word(word)) == \
                mini.accepts(_sym_word(word))
        assert mini.equivalent(sym)

    @pytest.mark.parametrize("seed", range(8))
    def test_minimize_agrees_with_hopcroft(self, seed):
        rng = random.Random(seed)
        sym, table = _random_symbolic(rng, 6)
        exp = _to_explicit(sym, table, 6, sym.accepting)
        assert sym.minimize().num_states == exp.minimize().num_states

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_is_existential(self, seed):
        rng = random.Random(seed)
        sym, _ = _random_symbolic(rng, 4)
        projected = sym.project(0).determinize()
        for word in _words(3):
            expected = any(
                sym.accepts([{**SYMBOLS[i], 0: choice}
                             for i, choice in zip(word, choices)])
                for choices in itertools.product([False, True],
                                                 repeat=len(word)))
            assert projected.accepts(_sym_word(word)) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_shortest_accepted(self, seed):
        rng = random.Random(seed)
        sym, table = _random_symbolic(rng, 5)
        exp = _to_explicit(sym, table, 5, sym.accepting)
        shortest = sym.shortest_accepted()
        oracle = exp.shortest_word()
        if oracle is None:
            assert shortest is None
        else:
            assert shortest is not None
            assert len(shortest) == len(oracle)
            assert sym.accepts(shortest)


class TestStructure:
    def test_complement_is_involution(self):
        rng = random.Random(0)
        sym, _ = _random_symbolic(rng, 4)
        assert sym.complement().complement().accepting == sym.accepting

    def test_universal_and_empty(self):
        mgr = Mtbdd()
        loop = mgr.leaf(0)
        everything = SymbolicDfa(mgr, 1, 0, frozenset([0]), [loop])
        nothing = SymbolicDfa(mgr, 1, 0, frozenset(), [loop])
        assert everything.is_universal()
        assert not everything.is_empty()
        assert nothing.is_empty()
        assert not nothing.is_universal()
        assert everything.includes(nothing)
        assert not nothing.includes(everything)

    def test_trim_drops_unreachable(self):
        mgr = Mtbdd()
        # state 1 unreachable
        delta = [mgr.leaf(0), mgr.leaf(0)]
        dfa = SymbolicDfa(mgr, 2, 0, frozenset([0]), delta)
        trimmed = dfa.trim()
        assert trimmed.num_states == 1

    def test_product_requires_shared_manager(self):
        a, _ = _random_symbolic(random.Random(1), 2)
        b, _ = _random_symbolic(random.Random(2), 2)
        with pytest.raises(ValueError):
            a.intersect(b)

    def test_bdd_node_count_positive(self):
        sym, _ = _random_symbolic(random.Random(3), 4)
        assert sym.bdd_node_count() >= 0
        assert sym.tracks() <= frozenset(range(NUM_TRACKS))

    def test_step(self):
        mgr = Mtbdd()
        d0 = delta_from_function(mgr, [0], lambda a: 1 if a[0] else 0)
        dfa = SymbolicDfa(mgr, 2, 0, frozenset([1]), [d0, mgr.leaf(1)])
        assert dfa.step(0, {0: True}) == 1
        assert dfa.step(0, {0: False}) == 0

    def test_determinize_empty_initial(self):
        mgr = Mtbdd()
        nfa = SymbolicNfa(mgr, 1, frozenset(), frozenset([0]),
                          [mgr.leaf(0)])
        dfa = nfa.determinize()
        assert dfa.is_empty()

    def test_determinize_reaches_empty_set_partway(self):
        # 0 -t0-> {1}, else {0}; 1 -> {} on every symbol.  The subset
        # {1} is the second state found, and its diagram leads to the
        # empty set, the third.
        tables = [
            [frozenset([1]) if bits[0] else frozenset([0])
             for bits in itertools.product([False, True], repeat=2)],
            [frozenset()] * 4,
        ]
        table = _assert_determinize_like_reference(
            tables, frozenset([0]), frozenset([1]))
        assert table == (3, 0, frozenset([1]),
                         [[0, 0, 1, 1], [2, 2, 2, 2], [2, 2, 2, 2]])

    def test_determinize_masks_wider_than_a_machine_word(self):
        # 140 states, so subsets span three 64-bit words; every target
        # set is a union of a few fixed sets, which keeps the DFA small.
        rng = random.Random(5)
        family = [frozenset([0, 63, 64]), frozenset([65, 127, 128]),
                  frozenset([1, 139]), frozenset(), frozenset([100])]
        tables = [[rng.choice(family) for _ in range(4)]
                  for _ in range(140)]
        table = _assert_determinize_like_reference(
            tables, frozenset([0, 139]), frozenset([64, 139]))
        assert 4 < table[0] <= 2 ** len(family)
