"""Test-only reference: the tuple-store MTBDD kernel and the automaton
operations written on it.

This is the recursive kernel the engine ran on before the flat node
store and operation-scoped memos: one list of ``(level, lo, hi)``
tuples, one ``node()`` call per node, and manager-global memo tables
keyed by an op key.  Products built a pair-leaf diagram and renamed
it; projections lifted both cofactors to singleton sets and unioned
them.  ``test_kernel_reference.py`` checks that the production kernel
computes the same functions with the same node counts, and that the
automaton operations number states exactly as these did.

Budgets, tracing and fault injection are left out; nothing else is
changed.
"""

from __future__ import annotations

import itertools
from typing import (Callable, Dict, FrozenSet, Hashable, List, Set,
                    Tuple)

LEAF_LEVEL = 1 << 60


class RefMtbdd:
    """The tuple-store kernel with manager-global memo tables."""

    def __init__(self) -> None:
        self._nodes: List[Tuple[int, object, object]] = []
        self._unique: Dict[Tuple[int, object, object], int] = {}
        self._leaf_index: Dict[Hashable, int] = {}
        self._apply_memo: Dict[Tuple[object, int, int], int] = {}
        self._map_memo: Dict[Tuple[object, int], int] = {}
        self._restrict_memo: Dict[
            Tuple[int, Tuple[Tuple[int, bool], ...]], int] = {}

    def leaf(self, value: Hashable) -> int:
        found = self._leaf_index.get(value)
        if found is not None:
            return found
        index = len(self._nodes)
        self._nodes.append((LEAF_LEVEL, value, None))
        self._leaf_index[value] = index
        return index

    def node(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        index = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = index
        return index

    def is_leaf(self, f: int) -> bool:
        return self._nodes[f][0] == LEAF_LEVEL

    def leaf_value(self, f: int) -> Hashable:
        level, value, _ = self._nodes[f]
        if level != LEAF_LEVEL:
            raise ValueError(f"node {f} is not a leaf")
        return value

    def apply2(self, op_key: Hashable,
               op: Callable[[Hashable, Hashable], Hashable],
               f: int, g: int) -> int:
        key = (op_key, f, g)
        cached = self._apply_memo.get(key)
        if cached is not None:
            return cached
        level_f, level_g = self._nodes[f][0], self._nodes[g][0]
        if level_f == LEAF_LEVEL and level_g == LEAF_LEVEL:
            result = self.leaf(op(self.leaf_value(f), self.leaf_value(g)))
        else:
            top = min(level_f, level_g)
            f_lo, f_hi = (f, f) if level_f != top else \
                (self._nodes[f][1], self._nodes[f][2])
            g_lo, g_hi = (g, g) if level_g != top else \
                (self._nodes[g][1], self._nodes[g][2])
            result = self.node(
                top,
                self.apply2(op_key, op, f_lo, g_lo),
                self.apply2(op_key, op, f_hi, g_hi))
        self._apply_memo[key] = result
        return result

    def map_leaves(self, op_key: Hashable,
                   op: Callable[[Hashable], Hashable], f: int) -> int:
        key = (op_key, f)
        cached = self._map_memo.get(key)
        if cached is not None:
            return cached
        level, lo, hi = self._nodes[f]
        if level == LEAF_LEVEL:
            result = self.leaf(op(lo))
        else:
            mapped_lo = self.map_leaves(op_key, op, lo)
            mapped_hi = self.map_leaves(op_key, op, hi)
            result = self.node(level, mapped_lo, mapped_hi)
        self._map_memo[key] = result
        return result

    def restrict(self, f: int, assignment: Dict[int, bool]) -> int:
        frozen = tuple(sorted(assignment.items()))
        if not frozen:
            return f
        return self._restrict(f, frozen, assignment)

    def _restrict(self, f: int, frozen: Tuple[Tuple[int, bool], ...],
                  assignment: Dict[int, bool]) -> int:
        level, lo, hi = self._nodes[f]
        if level == LEAF_LEVEL:
            return f
        key = (f, frozen)
        cached = self._restrict_memo.get(key)
        if cached is not None:
            return cached
        if level in assignment:
            branch: int = hi if assignment[level] else lo
            result = self._restrict(branch, frozen, assignment)
        else:
            result = self.node(level,
                               self._restrict(lo, frozen, assignment),
                               self._restrict(hi, frozen, assignment))
        self._restrict_memo[key] = result
        return result

    def evaluate(self, f: int, assignment: Dict[int, bool]) -> Hashable:
        while not self.is_leaf(f):
            level, lo, hi = self._nodes[f]
            f = hi if assignment.get(level, False) else lo
        return self.leaf_value(f)

    def leaves(self, f: int) -> frozenset:
        seen: set = set()
        values: set = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            level, lo, hi = self._nodes[g]
            if level == LEAF_LEVEL:
                values.add(lo)
            else:
                stack.append(lo)
                stack.append(hi)
        return frozenset(values)

    def node_count(self, roots) -> int:
        """Distinct decision nodes under ``roots`` (the old
        ``SymbolicDfa.bdd_node_count`` walk)."""
        seen: Set[int] = set()
        count = 0
        stack = list(roots)
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            if not self.is_leaf(f):
                count += 1
                stack.append(self._nodes[f][1])
                stack.append(self._nodes[f][2])
        return count


_unique_counter = itertools.count()


def _fresh_key(tag: str) -> Tuple[str, int]:
    return (tag, next(_unique_counter))


class RefDfa:
    """The old ``SymbolicDfa`` operations over :class:`RefMtbdd`."""

    def __init__(self, mgr: RefMtbdd, num_states: int, initial: int,
                 accepting: FrozenSet[int], delta: List[int]) -> None:
        self.mgr = mgr
        self.num_states = num_states
        self.initial = initial
        self.accepting = accepting
        self.delta = delta

    def product(self, other: "RefDfa",
                accept: Callable[[bool, bool], bool]) -> "RefDfa":
        mgr = self.mgr
        pair_key = _fresh_key("pair")
        index: Dict[Tuple[int, int], int] = {}
        delta: List[int] = []
        accepting: Set[int] = set()
        order: List[Tuple[int, int]] = []

        def state_of(pair):
            found = index.get(pair)
            if found is None:
                found = len(index)
                index[pair] = found
                order.append(pair)
            return found

        start = state_of((self.initial, other.initial))
        cursor = 0
        rename_key = _fresh_key("pair-rename")
        while cursor < len(order):
            left, right = order[cursor]
            pair_delta = mgr.apply2(pair_key, lambda a, b: (a, b),
                                    self.delta[left], other.delta[right])
            delta.append(mgr.map_leaves(rename_key, state_of, pair_delta))
            if accept(left in self.accepting, right in other.accepting):
                accepting.add(cursor)
            cursor += 1
        return RefDfa(mgr, len(order), start, frozenset(accepting), delta)

    def project(self, track: int) -> "RefNfa":
        mgr = self.mgr
        lift_key = _fresh_key("lift")
        union_key = _fresh_key("setunion")
        delta: List[int] = []
        for q in range(self.num_states):
            lo = mgr.restrict(self.delta[q], {track: False})
            hi = mgr.restrict(self.delta[q], {track: True})
            lo_set = mgr.map_leaves(lift_key, lambda s: frozenset([s]), lo)
            hi_set = mgr.map_leaves(lift_key, lambda s: frozenset([s]), hi)
            delta.append(mgr.apply2(union_key, lambda a, b: a | b,
                                    lo_set, hi_set))
        return RefNfa(mgr, self.num_states, frozenset([self.initial]),
                      self.accepting, delta)

    def trim(self) -> "RefDfa":
        reachable: Set[int] = {self.initial}
        stack = [self.initial]
        while stack:
            q = stack.pop()
            for target in self.mgr.leaves(self.delta[q]):
                if target not in reachable:
                    reachable.add(target)
                    stack.append(target)
        if len(reachable) == self.num_states:
            return self
        remap = {old: new for new, old in enumerate(sorted(reachable))}
        rename_key = _fresh_key("trim")
        delta = [self.mgr.map_leaves(rename_key, lambda s: remap[s],
                                     self.delta[old])
                 for old in sorted(reachable)]
        return RefDfa(self.mgr, len(reachable), remap[self.initial],
                      frozenset(remap[q] for q in self.accepting
                                if q in remap), delta)

    def minimize(self) -> "RefDfa":
        dfa = self.trim()
        mgr = dfa.mgr
        block = [1 if q in dfa.accepting else 0
                 for q in range(dfa.num_states)]
        num_blocks = len(set(block))
        while True:
            sig_key = _fresh_key("moore")
            signatures = [
                (block[q], mgr.map_leaves(sig_key, lambda s: block[s],
                                          dfa.delta[q]))
                for q in range(dfa.num_states)]
            renumber: Dict[Tuple[int, int], int] = {}
            new_block = []
            for sig in signatures:
                if sig not in renumber:
                    renumber[sig] = len(renumber)
                new_block.append(renumber[sig])
            stable = len(renumber) == num_blocks
            block = new_block
            num_blocks = len(renumber)
            if stable:
                break
        representative: Dict[int, int] = {}
        for q in range(dfa.num_states):
            representative.setdefault(block[q], q)
        rename_key = _fresh_key("moore-rename")
        delta = [mgr.map_leaves(rename_key, lambda s: block[s],
                                dfa.delta[representative[b]])
                 for b in range(num_blocks)]
        return RefDfa(mgr, num_blocks, block[dfa.initial],
                      frozenset(block[q] for q in dfa.accepting), delta)


class RefNfa:
    """The old ``SymbolicNfa.determinize`` over :class:`RefMtbdd`."""

    def __init__(self, mgr: RefMtbdd, num_states: int,
                 initial: FrozenSet[int], accepting: FrozenSet[int],
                 delta: List[int]) -> None:
        self.mgr = mgr
        self.num_states = num_states
        self.initial = initial
        self.accepting = accepting
        self.delta = delta

    def determinize(self) -> RefDfa:
        mgr = self.mgr
        union_key = _fresh_key("det-union")
        rename_key = _fresh_key("det-rename")
        empty = mgr.leaf(frozenset())
        index: Dict[FrozenSet[int], int] = {}
        order: List[FrozenSet[int]] = []

        def state_of(subset):
            found = index.get(subset)
            if found is None:
                found = len(index)
                index[subset] = found
                order.append(subset)
            return found

        state_of(self.initial)
        delta: List[int] = []
        accepting: Set[int] = set()
        cursor = 0
        while cursor < len(order):
            subset = order[cursor]
            combined = empty
            for q in subset:
                combined = mgr.apply2(union_key, lambda a, b: a | b,
                                      combined, self.delta[q])
            delta.append(mgr.map_leaves(rename_key, state_of, combined))
            if subset & self.accepting:
                accepting.add(cursor)
            cursor += 1
        return RefDfa(mgr, len(order), 0, frozenset(accepting), delta)
