"""Symbolic automata with MTBDD-encoded transition functions.

This is the Mona-style engine the paper's implementation rests on
(§6): a deterministic automaton over an alphabet of *bit vectors*.
Each bit position is a **track** (one per logical variable of an M2L
formula), and each state stores its entire transition function as one
multi-terminal BDD whose leaves are target states.  Operations that
would be exponential in the number of tracks on an explicit alphabet —
products, projections, minimisation — run directly on the shared
diagrams.

The alphabet is implicit: a symbol is any assignment of booleans to
tracks, and transition MTBDDs are total, so automata are always
complete.  Tracks that a transition does not test are don't-cares.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Hashable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.bdd.mtbdd import Mtbdd
from repro.obs import trace as obs_trace
from repro.robust import faults
from repro.robust.budget import check_states as _budget_check_states
from repro.robust.budget import tick as _budget_tick

Assignment = Mapping[int, bool]


def subset_union(left: FrozenSet[int],
                 right: FrozenSet[int]) -> FrozenSet[int]:
    """Leaf operator of subset construction: union two state sets."""
    return left | right


def pair_subset(left: int, right: int) -> FrozenSet[int]:
    """Leaf operator of projection: the set of the two cofactors'
    target states."""
    return frozenset((left, right))


def delta_from_function(mgr: Mtbdd, tracks: Sequence[int],
                        fn: Callable[[Dict[int, bool]], Hashable]) -> int:
    """Build an MTBDD over ``tracks`` from an explicit function.

    ``fn`` receives a total assignment of the given tracks and returns
    the leaf value.  Intended for the small hand-written base automata
    of the M2L compiler, where ``len(tracks)`` is at most three.
    Duplicate tracks are allowed (an atom may mention one variable
    twice) and collapse to a single decision.
    """
    ordered = sorted(set(tracks))

    def build(index: int, acc: Dict[int, bool]) -> int:
        if index == len(ordered):
            return mgr.leaf(fn(dict(acc)))
        track = ordered[index]
        acc[track] = False
        lo = build(index + 1, acc)
        acc[track] = True
        hi = build(index + 1, acc)
        del acc[track]
        return mgr.node(track, lo, hi)

    return build(0, {})


@dataclass
class SymbolicDfa:
    """A complete DFA over bit-vector symbols.

    Attributes:
        mgr: the MTBDD manager owning all transition diagrams.
        num_states: states are ``0 .. num_states-1``.
        initial: the start state.
        accepting: the set of accepting states.
        delta: ``delta[q]`` is an MTBDD with integer (state) leaves.
    """

    mgr: Mtbdd
    num_states: int
    initial: int
    accepting: FrozenSet[int]
    delta: List[int]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self, state: int, symbol: Assignment) -> int:
        """The successor of ``state`` under one symbol."""
        result = self.mgr.evaluate(self.delta[state], dict(symbol))
        return result  # type: ignore[return-value]

    def accepts(self, word: Sequence[Assignment]) -> bool:
        """Membership of a word of track assignments."""
        state = self.initial
        for symbol in word:
            state = self.step(state, symbol)
        return state in self.accepting

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def complement(self) -> "SymbolicDfa":
        """Language complement (automaton is complete by construction)."""
        return SymbolicDfa(
            mgr=self.mgr, num_states=self.num_states, initial=self.initial,
            accepting=frozenset(range(self.num_states)) - self.accepting,
            delta=self.delta)

    def product(self, other: "SymbolicDfa",
                accept: Callable[[bool, bool], bool]) -> "SymbolicDfa":
        """Reachable synchronous product.

        ``accept`` combines the two acceptance flags; use ``and`` for
        intersection, ``or`` for union, ``lambda a, b: a and not b``
        for difference.
        """
        if other.mgr is not self.mgr:
            raise ValueError("product requires a shared MTBDD manager")
        faults.fire("automata.product")
        with obs_trace.span("automata.product", detail=True) as sp:
            mgr = self.mgr
            index: Dict[Tuple[int, int], int] = {}
            delta: List[int] = []
            accepting: Set[int] = set()
            order: List[Tuple[int, int]] = []

            def state_of(left: Hashable, right: Hashable) -> int:
                pair = (left, right)
                found = index.get(pair)  # type: ignore[arg-type]
                if found is None:
                    found = len(index)
                    index[pair] = found  # type: ignore[index]
                    order.append(pair)  # type: ignore[arg-type]
                return found

            start = state_of(self.initial, other.initial)
            memo: Dict[Tuple[int, int], int] = {}
            cursor = 0
            while cursor < len(order):
                _budget_tick("automata.product")
                _budget_check_states("automata.product", len(order))
                left, right = order[cursor]
                delta.append(mgr.apply2(state_of, self.delta[left],
                                        other.delta[right], memo))
                if accept(left in self.accepting,
                          right in other.accepting):
                    accepting.add(cursor)
                cursor += 1
            result = SymbolicDfa(mgr=mgr, num_states=len(order),
                                 initial=start,
                                 accepting=frozenset(accepting),
                                 delta=delta)
            if sp:
                sp.annotate(left_states=self.num_states,
                            right_states=other.num_states,
                            states=result.num_states,
                            nodes=result.bdd_node_count())
            return result

    def intersect(self, other: "SymbolicDfa") -> "SymbolicDfa":
        """Language intersection."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other: "SymbolicDfa") -> "SymbolicDfa":
        """Language union."""
        return self.product(other, lambda a, b: a or b)

    def difference(self, other: "SymbolicDfa") -> "SymbolicDfa":
        """Language difference ``L(self) \\ L(other)``."""
        return self.product(other, lambda a, b: a and not b)

    # ------------------------------------------------------------------
    # Projection (existential quantification of one track)
    # ------------------------------------------------------------------

    def project(self, track: int) -> "SymbolicNfa":
        """Erase ``track``: each symbol may take either value for it.

        The result is nondeterministic; determinise to get back a DFA.
        This implements existential quantification in M2L.
        """
        with obs_trace.span("automata.project", detail=True,
                            track=track, states=self.num_states):
            mgr = self.mgr
            fixed_lo: Dict[int, int] = {}
            fixed_hi: Dict[int, int] = {}
            memo: Dict[Tuple[int, int], int] = {}
            delta: List[int] = []
            for root in self.delta:
                delta.append(mgr.apply2(
                    pair_subset,
                    mgr.restrict(root, {track: False}, fixed_lo),
                    mgr.restrict(root, {track: True}, fixed_hi), memo))
            return SymbolicNfa(mgr=mgr, num_states=self.num_states,
                               initial=frozenset([self.initial]),
                               accepting=self.accepting, delta=delta)

    # ------------------------------------------------------------------
    # Minimisation
    # ------------------------------------------------------------------

    def trim(self) -> "SymbolicDfa":
        """Restrict to states reachable from the initial state."""
        reachable: Set[int] = {self.initial}
        stack = [self.initial]
        seen: Set[int] = set()
        while stack:
            q = stack.pop()
            for target in self.mgr.leaves(self.delta[q], seen):
                if target not in reachable:
                    reachable.add(target)  # type: ignore[arg-type]
                    stack.append(target)  # type: ignore[arg-type]
        if len(reachable) == self.num_states:
            return self
        kept = sorted(reachable)
        remap = {old: new for new, old in enumerate(kept)}
        delta = self.mgr.map_many(remap.__getitem__,
                                  [self.delta[old] for old in kept])
        return SymbolicDfa(
            mgr=self.mgr, num_states=len(reachable),
            initial=remap[self.initial],
            accepting=frozenset(remap[q] for q in self.accepting
                                if q in remap),
            delta=delta)

    def minimize(self) -> "SymbolicDfa":
        """Moore partition refinement with hash-consed signatures.

        Two states are merged when they are acceptance-equivalent and
        their transition MTBDDs, with leaves rewritten to current block
        numbers, are the *same diagram* — an O(1) comparison thanks to
        hash-consing.
        """
        faults.fire("automata.minimize")
        with obs_trace.span("automata.minimize", detail=True) as sp:
            result = self._minimize()
            if sp:
                sp.annotate(states_before=self.num_states,
                            states=result.num_states,
                            nodes=result.bdd_node_count())
            return result

    def _minimize(self) -> "SymbolicDfa":
        dfa = self.trim()
        mgr = dfa.mgr
        block = [1 if q in dfa.accepting else 0
                 for q in range(dfa.num_states)]
        num_blocks = len(set(block))
        while True:
            _budget_tick("automata.minimize")
            signatures = zip(block, mgr.map_many(block.__getitem__,
                                                 dfa.delta))
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
        # Canonical numbering: block of the initial state first is not
        # required; keep discovery order of blocks.
        representative: Dict[int, int] = {}
        for q in range(dfa.num_states):
            representative.setdefault(block[q], q)
        delta = mgr.map_many(block.__getitem__,
                             [dfa.delta[representative[b]]
                              for b in range(num_blocks)])
        accepting = frozenset(block[q] for q in dfa.accepting)
        return SymbolicDfa(mgr=mgr, num_states=num_blocks,
                           initial=block[dfa.initial],
                           accepting=accepting, delta=delta)

    # ------------------------------------------------------------------
    # Decision queries
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the accepted language is empty."""
        return self.shortest_accepted() is None

    def is_universal(self) -> bool:
        """True iff every word (over all assignments) is accepted."""
        return self.complement().is_empty()

    def shortest_accepted(self) -> Optional[List[Dict[int, bool]]]:
        """A shortest accepted word, or None when the language is empty.

        Each symbol in the result is a partial assignment; tracks absent
        from it are don't-cares (callers may fix them to False).
        """
        if self.initial in self.accepting:
            return []
        parent: Dict[int, Tuple[int, Dict[int, bool]]] = {}
        seen = {self.initial}
        queue = deque([self.initial])
        while queue:
            _budget_tick("automata.universality")
            state = queue.popleft()
            for assignment, target in self.mgr.paths(self.delta[state]):
                if target in seen:
                    continue
                seen.add(target)  # type: ignore[arg-type]
                parent[target] = (state, assignment)  # type: ignore[index]
                if target in self.accepting:
                    word: List[Dict[int, bool]] = []
                    cursor = target
                    while cursor != self.initial:
                        prev, via = parent[cursor]  # type: ignore[index]
                        word.append(via)
                        cursor = prev
                    word.reverse()
                    return word
                queue.append(target)  # type: ignore[arg-type]
        return None

    def includes(self, other: "SymbolicDfa") -> bool:
        """True iff ``L(other) ⊆ L(self)``."""
        return other.difference(self).is_empty()

    def equivalent(self, other: "SymbolicDfa") -> bool:
        """Language equality."""
        return self.includes(other) and other.includes(self)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def bdd_node_count(self) -> int:
        """Distinct decision nodes shared across all transition MTBDDs.

        This is the paper's "Nodes" column for a single automaton.
        """
        return self.mgr.count_nodes(self.delta)

    def tracks(self) -> FrozenSet[int]:
        """All tracks any transition tests."""
        result: Set[int] = set()
        for root in self.delta:
            result |= self.mgr.support(root)
        return frozenset(result)


@dataclass
class SymbolicNfa:
    """A nondeterministic symbolic automaton.

    ``delta[q]`` is an MTBDD whose leaves are frozensets of target
    states.  Produced by :meth:`SymbolicDfa.project`; consumed by
    :meth:`determinize`.
    """

    mgr: Mtbdd
    num_states: int
    initial: FrozenSet[int]
    accepting: FrozenSet[int]
    delta: List[int]

    def determinize(self) -> SymbolicDfa:
        """Subset construction directly on the shared diagrams."""
        faults.fire("automata.determinize")
        with obs_trace.span("automata.determinize", detail=True) as sp:
            result = self._determinize()
            if sp:
                sp.annotate(nfa_states=self.num_states,
                            states=result.num_states,
                            nodes=result.bdd_node_count())
            return result

    def _determinize(self) -> SymbolicDfa:
        mgr = self.mgr
        union_memo: Dict[Tuple[int, int], int] = {}
        rename_memo: Dict[int, int] = {}
        empty = mgr.leaf(frozenset())
        index: Dict[FrozenSet[int], int] = {}
        order: List[FrozenSet[int]] = []

        def state_of(subset: Hashable) -> int:
            found = index.get(subset)  # type: ignore[arg-type]
            if found is None:
                found = len(index)
                index[subset] = found  # type: ignore[index]
                order.append(subset)  # type: ignore[arg-type]
            return found

        state_of(self.initial)
        delta: List[int] = []
        accepting: Set[int] = set()
        cursor = 0
        while cursor < len(order):
            _budget_tick("automata.determinize")
            _budget_check_states("automata.determinize", len(order))
            subset = order[cursor]
            combined = empty
            for q in subset:
                combined = mgr.apply2(subset_union, combined, self.delta[q],
                                      union_memo)
            delta.append(mgr.map_leaves(state_of, combined, rename_memo))
            if subset & self.accepting:
                accepting.add(cursor)
            cursor += 1
        return SymbolicDfa(mgr=mgr, num_states=len(order), initial=0,
                           accepting=frozenset(accepting), delta=delta)
