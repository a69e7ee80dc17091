"""Bottom-up tree automata with MTBDD-encoded transitions.

The tree analogue of :mod:`repro.automata.symbolic`: a deterministic
bottom-up automaton assigns a state to every subtree — ``empty`` for
the absent subtree — via ``delta[(left_state, right_state)]``, an
MTBDD over the node's track bits whose leaves are target states; the
tree is accepted when the root's state is accepting.

Operations mirror the string engine: pairwise products, complement
(automata are complete), track projection to a nondeterministic
automaton, subset-construction determinisation, Moore minimisation
with hash-consed signatures, emptiness, and smallest accepted tree.
As the paper observed in its §7 experiments, everything is one
quadratic factor heavier than on strings — transitions take *two*
predecessor states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Hashable, List, Optional,
                    Set, Tuple)

from repro.bdd.mtbdd import Mtbdd
from repro.automata.symbolic import (mask_members, pair_subset,
                                     state_mask, union_fold)
from repro.treemso.trees import Tree


@dataclass
class TreeDfa:
    """A complete deterministic bottom-up tree automaton."""

    mgr: Mtbdd
    num_states: int
    #: the state of the absent subtree
    empty: int
    accepting: FrozenSet[int]
    #: ``delta[(ql, qr)]`` — MTBDD with integer state leaves
    delta: Dict[Tuple[int, int], int]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def value(self, tree: Optional[Tree]) -> int:
        """The state reached at (the root of) a subtree."""
        if tree is None:
            return self.empty
        left = self.value(tree.left)
        right = self.value(tree.right)
        result = self.mgr.evaluate(self.delta[(left, right)],
                                   tree.bits)
        return result  # type: ignore[return-value]

    def accepts(self, tree: Optional[Tree]) -> bool:
        """Membership (None is the empty tree)."""
        return self.value(tree) in self.accepting

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def complement(self) -> "TreeDfa":
        """Language complement."""
        return TreeDfa(self.mgr, self.num_states, self.empty,
                       frozenset(range(self.num_states)) - self.accepting,
                       self.delta)

    def product(self, other: "TreeDfa",
                accept: Callable[[bool, bool], bool]) -> "TreeDfa":
        """Reachable synchronous product."""
        if other.mgr is not self.mgr:
            raise ValueError("product requires a shared MTBDD manager")
        mgr = self.mgr
        index: Dict[Tuple[int, int], int] = {}
        order: List[Tuple[int, int]] = []

        def state_of(left: Hashable, right: Hashable) -> int:
            pair = (left, right)
            found = index.get(pair)  # type: ignore[arg-type]
            if found is None:
                found = len(index)
                index[pair] = found  # type: ignore[index]
                order.append(pair)  # type: ignore[arg-type]
            return found

        state_of(self.empty, other.empty)
        memo: Dict[Tuple[int, int], int] = {}
        delta: Dict[Tuple[int, int], int] = {}
        done = 0
        while done < len(order):
            done = len(order)
            snapshot = list(order)
            for li, (l1, l2) in enumerate(snapshot):
                for ri, (r1, r2) in enumerate(snapshot):
                    if (li, ri) in delta:
                        continue
                    delta[(li, ri)] = mgr.apply2(
                        state_of, self.delta[(l1, r1)],
                        other.delta[(l2, r2)], memo)
        accepting = frozenset(
            i for i, (q1, q2) in enumerate(order)
            if accept(q1 in self.accepting, q2 in other.accepting))
        return TreeDfa(mgr, len(order), 0, accepting, delta)

    def intersect(self, other: "TreeDfa") -> "TreeDfa":
        """Language intersection."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other: "TreeDfa") -> "TreeDfa":
        """Language union."""
        return self.product(other, lambda a, b: a or b)

    # ------------------------------------------------------------------
    # Projection and determinisation
    # ------------------------------------------------------------------

    def project(self, track: int) -> "TreeNfa":
        """Erase a track (existential quantification)."""
        mgr = self.mgr
        fixed_lo: Dict[int, int] = {}
        fixed_hi: Dict[int, int] = {}
        memo: Dict[Tuple[int, int], int] = {}
        delta = {}
        for key, root in self.delta.items():
            delta[key] = mgr.apply2(
                pair_subset, mgr.restrict(root, {track: False}, fixed_lo),
                mgr.restrict(root, {track: True}, fixed_hi), memo)
        return TreeNfa(mgr, self.num_states, self.empty,
                       self.accepting, delta)

    # ------------------------------------------------------------------
    # Minimisation
    # ------------------------------------------------------------------

    def trim(self) -> "TreeDfa":
        """Restrict to states reachable from below."""
        reachable: Set[int] = {self.empty}
        seen: Set[int] = set()
        changed = True
        while changed:
            changed = False
            for (ql, qr), root in self.delta.items():
                if ql in reachable and qr in reachable:
                    for target in self.mgr.leaves(root, seen):
                        if target not in reachable:
                            reachable.add(target)  # type: ignore[arg-type]
                            changed = True
        if len(reachable) == self.num_states:
            return self
        remap = {old: new for new, old in enumerate(sorted(reachable))}
        kept = [(key, root) for key, root in self.delta.items()
                if key[0] in reachable and key[1] in reachable]
        images = self.mgr.map_many(remap.__getitem__,
                                   [root for _, root in kept])
        delta = {(remap[ql], remap[qr]): image
                 for ((ql, qr), _), image in zip(kept, images)}
        return TreeDfa(self.mgr, len(reachable), remap[self.empty],
                       frozenset(remap[q] for q in self.accepting
                                 if q in reachable), delta)

    def minimize(self) -> "TreeDfa":
        """Moore refinement; contexts are (sibling state, side)."""
        dfa = self.trim()
        mgr = dfa.mgr
        block = [1 if q in dfa.accepting else 0
                 for q in range(dfa.num_states)]
        num_blocks = len(set(block))
        while True:
            images = dict(zip(dfa.delta, mgr.signatures(
                block, dfa.delta.values())))
            signatures = []
            for q in range(dfa.num_states):
                context = tuple(
                    (images[(q, p)], images[(p, q)])
                    for p in range(dfa.num_states))
                signatures.append((block[q], context))
            renumber: Dict[object, int] = {}
            new_block = []
            for signature in signatures:
                if signature not in renumber:
                    renumber[signature] = len(renumber)
                new_block.append(renumber[signature])
            stable = len(renumber) == num_blocks
            block = new_block
            num_blocks = len(renumber)
            if stable:
                break
        representative: Dict[int, int] = {}
        for q in range(dfa.num_states):
            representative.setdefault(block[q], q)
        keys = [(bl, br) for bl in range(num_blocks)
                for br in range(num_blocks)]
        delta = dict(zip(keys, mgr.map_many(
            block.__getitem__,
            [dfa.delta[(representative[bl], representative[br])]
             for bl, br in keys])))
        return TreeDfa(mgr, num_blocks, block[dfa.empty],
                       frozenset(block[q] for q in dfa.accepting), delta)

    # ------------------------------------------------------------------
    # Decision queries
    # ------------------------------------------------------------------

    def smallest_accepted(self) -> Optional[Tuple[Optional[Tree]]]:
        """A smallest accepted tree, or None when the language is empty.

        The witness is wrapped in a 1-tuple because the empty tree
        (``None``) is itself a possible witness: ``None`` means "no
        tree accepted", ``(None,)`` means "the empty tree is
        accepted", ``(tree,)`` a non-empty witness.
        """
        infinite = 1 << 60
        cost: List[int] = [infinite] * self.num_states
        parent: List[Optional[Tuple[int, int, Dict[int, bool]]]] = \
            [None] * self.num_states
        cost[self.empty] = 0
        changed = True
        while changed:
            changed = False
            for (ql, qr), root in self.delta.items():
                if cost[ql] >= infinite or cost[qr] >= infinite:
                    continue
                for assignment, target in self.mgr.paths(root):
                    candidate = cost[ql] + cost[qr] + 1
                    if candidate < cost[target]:  # type: ignore[index]
                        cost[target] = candidate  # type: ignore[index]
                        parent[target] = \
                            (ql, qr, dict(assignment))  # type: ignore[index]
                        changed = True
        best = None
        for q in self.accepting:
            if cost[q] < infinite and (best is None
                                       or cost[q] < cost[best]):
                best = q
        if best is None:
            return None

        def build(state: int) -> Optional[Tree]:
            if state == self.empty and parent[state] is None:
                return None
            info = parent[state]
            assert info is not None
            ql, qr, bits = info
            return Tree(bits, build(ql), build(qr))

        return (build(best),)

    def is_empty(self) -> bool:
        """No tree (including the empty one) is accepted."""
        return self.smallest_accepted() is None

    def is_universal(self) -> bool:
        """Every tree is accepted."""
        return self.complement().is_empty()

    def bdd_node_count(self) -> int:
        """Distinct shared decision nodes across all transitions."""
        return self.mgr.count_nodes(self.delta.values())


@dataclass
class TreeNfa:
    """A nondeterministic bottom-up automaton.

    Leaves are sets of states as int bitmasks, as in
    :class:`repro.automata.symbolic.SymbolicNfa`.
    """

    mgr: Mtbdd
    num_states: int
    empty: int
    accepting: FrozenSet[int]
    delta: Dict[Tuple[int, int], int]

    def determinize(self) -> TreeDfa:
        """Subset construction on the shared diagrams.

        The diagrams of a pair of subsets are folded in ascending
        ``(left, right)`` member order, as in
        :meth:`repro.automata.symbolic.SymbolicNfa.determinize`.
        """
        mgr = self.mgr
        union_memo: Dict[Tuple[int, int], int] = {}
        rename_memo: Dict[int, int] = {}
        index: Dict[int, int] = {}
        order: List[int] = []

        def state_of(subset: Hashable) -> int:
            found = index.get(subset)  # type: ignore[arg-type]
            if found is None:
                found = len(index)
                index[subset] = found  # type: ignore[index]
                order.append(subset)  # type: ignore[arg-type]
            return found

        state_of(1 << self.empty)
        delta: Dict[Tuple[int, int], int] = {}
        done = 0
        while done < len(order):
            done = len(order)
            snapshot = list(order)
            for li, left in enumerate(snapshot):
                for ri, right in enumerate(snapshot):
                    if (li, ri) in delta:
                        continue
                    combined = union_fold(
                        mgr, [self.delta[(ql, qr)]
                              for ql in mask_members(left)
                              for qr in mask_members(right)], union_memo)
                    delta[(li, ri)] = mgr.map_leaves(state_of, combined,
                                                     rename_memo)
        accepting_mask = state_mask(self.accepting)
        accepting = frozenset(i for i, subset in enumerate(order)
                              if subset & accepting_mask)
        return TreeDfa(mgr, len(order), 0, accepting, delta)


def tree_delta_from_function(mgr: Mtbdd, tracks,
                             fn: Callable[[Dict[int, bool]], int]) -> int:
    """Build one transition MTBDD from an explicit bit function."""
    from repro.automata.symbolic import delta_from_function
    return delta_from_function(mgr, tracks, fn)
