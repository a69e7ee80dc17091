"""Multi-terminal binary decision diagrams (MTBDDs).

An MTBDD maps bit-vector assignments to arbitrary hashable *leaf*
values.  The symbolic automata of :mod:`repro.automata.symbolic` keep
one MTBDD per state whose leaves are target states; during subset
construction the leaves are sets of states encoded as int bitmasks.
This mirrors the Mona representation the paper credits for making the
decision procedure feasible (§6: "transition functions are encoded as
binary decision diagrams").

Nodes are hash-consed, so diagram equality is index equality, and the
number of distinct reachable nodes is the paper's "Nodes" statistic.

The store is three parallel lists indexed by node: decision level,
else-branch and then-branch.  A leaf has level :data:`LEAF_LEVEL` and
keeps its value in the else-branch slot.  Children are always created
before their parent, and every diagram is *ordered*: levels strictly
increase along each path.

Memo tables belong to one automaton operation, not to the manager.
Each combinator takes an optional ``memo`` dict; an operation that
calls a combinator many times (one product, one projection, one Moore
round) passes the same dict to every call with the same leaf operator
and drops it when it returns, so no memo entry outlives the
operation that made it.

Example:
    >>> m = Mtbdd()
    >>> f = m.node(0, m.leaf("a"), m.leaf("b"))
    >>> m.evaluate(f, {0: True})
    'b'
    >>> memo = {}
    >>> g = m.map_leaves(str.upper, f, memo)
    >>> m.map_leaves(str.upper, f, memo) == g, m.map_hits
    (True, 1)
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple, Union)

from repro.robust.budget import check_nodes as _budget_check_nodes
from repro.robust.budget import current_budget

#: Sentinel level for leaves; larger than any real variable level so the
#: usual top-variable computation treats leaves as "below" every node.
LEAF_LEVEL = 1 << 60

#: Node-cap checks run once per this-many + 1 node creations, leaves
#: included.
_NODE_CHECK_MASK = 0x3FF


class Mtbdd:
    """A manager owning a universe of hash-consed MTBDD nodes."""

    def __init__(self) -> None:
        self._level: List[int] = []
        #: else-branch of a decision node; the value of a leaf
        self._lo: List[object] = []
        #: then-branch of a decision node; -1 for a leaf
        self._hi: List[int] = []
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._leaf_index: Dict[Hashable, int] = {}
        # Always-on cache statistics.  A "miss" is a memo entry
        # inserted, a "hit" a memo-table return; recursive calls count
        # individually.  Each combinator counts in locals and adds them
        # here when it returns or raises.
        self.apply_hits = 0
        self.apply_misses = 0
        self.map_hits = 0
        self.map_misses = 0
        self.restrict_hits = 0
        self.restrict_misses = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def leaf(self, value: Hashable) -> int:
        """Return the leaf node carrying ``value`` (hash-consed)."""
        found = self._leaf_index.get(value)
        if found is not None:
            return found
        index = len(self._level)
        self._level.append(LEAF_LEVEL)
        self._lo.append(value)
        self._hi.append(-1)
        self._leaf_index[value] = index
        if (index & _NODE_CHECK_MASK) == 0:
            _budget_check_nodes("bdd.node", index)
        return index

    def node(self, level: int, lo: int, hi: int) -> int:
        """Return the node testing ``level`` (reduced and hash-consed)."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        index = len(self._level)
        self._level.append(level)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = index
        if (index & _NODE_CHECK_MASK) == 0:
            _budget_check_nodes("bdd.node", index)
        return index

    def is_leaf(self, f: int) -> bool:
        """True iff ``f`` carries a value rather than a decision."""
        return self._level[f] == LEAF_LEVEL

    def leaf_value(self, f: int) -> Hashable:
        """The value carried by leaf ``f``."""
        if self._level[f] != LEAF_LEVEL:
            raise ValueError(f"node {f} is not a leaf")
        return self._lo[f]  # type: ignore[return-value]

    def level(self, f: int) -> int:
        """Decision level of ``f`` (``LEAF_LEVEL`` for leaves)."""
        return self._level[f]

    def low(self, f: int) -> int:
        """Else-branch of internal node ``f``."""
        return self._lo[f]  # type: ignore[return-value]

    def high(self, f: int) -> int:
        """Then-branch of internal node ``f``."""
        return self._hi[f]

    def __len__(self) -> int:
        return len(self._level)

    @property
    def unique_table_size(self) -> int:
        """Internal (decision) nodes in the unique table."""
        return len(self._unique)

    @property
    def peak_nodes(self) -> int:
        """Total nodes ever created (nodes are never freed, so this is
        also the peak live count — the paper's space measure)."""
        return len(self._level)

    def cache_stats(self) -> Dict[str, int]:
        """Memo-cache hit/miss counters and table sizes, JSON-ready."""
        return {
            "apply_hits": self.apply_hits,
            "apply_misses": self.apply_misses,
            "map_hits": self.map_hits,
            "map_misses": self.map_misses,
            "restrict_hits": self.restrict_hits,
            "restrict_misses": self.restrict_misses,
            "unique_table_size": self.unique_table_size,
            "peak_nodes": self.peak_nodes,
        }

    # ------------------------------------------------------------------
    # Combinators
    #
    # Each builds one recursion closure per call with the store, the
    # unique table and the budget hook in locals, and makes nodes
    # inline (the body of :meth:`node`, node-cap check included).  The
    # budget is read once per call: with no active budget the
    # recursions skip ``tick`` entirely.
    # ------------------------------------------------------------------

    def apply2(self, op: Callable[[Hashable, Hashable], Hashable],
               f: int, g: int,
               memo: Optional[Dict[Tuple[int, int], int]] = None) -> int:
        """Combine two MTBDDs leaf-wise with the binary operator ``op``.

        ``memo`` caches results for this ``op``; pass the same dict to
        every call of one operation to share work between them.  ``op``
        runs once per distinct leaf pair reached, in depth-first,
        else-branch-first order of first visit.
        """
        if memo is None:
            memo = {}
        levels, los, his = self._level, self._lo, self._hi
        unique, leaf_index = self._unique, self._leaf_index
        budget = current_budget()
        tick = budget.tick if budget.active else None
        check_nodes = _budget_check_nodes
        hits = 0

        def go(f: int, g: int) -> int:
            nonlocal hits
            key = (f, g)
            result = memo.get(key)
            if result is not None:
                hits += 1
                return result
            if tick is not None:
                tick("bdd.apply")
            level_f = levels[f]
            level_g = levels[g]
            if level_f == level_g:
                if level_f == LEAF_LEVEL:
                    value = op(los[f], los[g])
                    result = leaf_index.get(value)
                    if result is None:
                        result = len(levels)
                        levels.append(LEAF_LEVEL)
                        los.append(value)
                        his.append(-1)
                        leaf_index[value] = result
                        if not result & _NODE_CHECK_MASK:
                            check_nodes("bdd.node", result)
                    memo[key] = result
                    return result
                top = level_f
                lo = go(los[f], los[g])  # type: ignore[arg-type]
                hi = go(his[f], his[g])
            elif level_f < level_g:
                top = level_f
                lo = go(los[f], g)  # type: ignore[arg-type]
                hi = go(his[f], g)
            else:
                top = level_g
                lo = go(f, los[g])  # type: ignore[arg-type]
                hi = go(f, his[g])
            if lo == hi:
                result = lo
            else:
                triple = (top, lo, hi)
                result = unique.get(triple)
                if result is None:
                    result = len(levels)
                    levels.append(top)
                    los.append(lo)
                    his.append(hi)
                    unique[triple] = result
                    if not result & _NODE_CHECK_MASK:
                        check_nodes("bdd.node", result)
            memo[key] = result
            return result

        before = len(memo)
        try:
            return go(f, g)
        finally:
            self.apply_misses += len(memo) - before
            self.apply_hits += hits

    def map_many(self, op: Callable[[Hashable], Hashable],
                 roots: Iterable[int],
                 memo: Optional[Dict[int, int]] = None) -> List[int]:
        """Rewrite every leaf value of every root through ``op``.

        One memo serves all ``roots``, so a node shared between them is
        rewritten once.  ``op`` runs once per distinct leaf reached, in
        depth-first, else-branch-first order of first visit, root by
        root.
        """
        if memo is None:
            memo = {}
        levels, los, his = self._level, self._lo, self._hi
        unique, leaf_index = self._unique, self._leaf_index
        budget = current_budget()
        tick = budget.tick if budget.active else None
        check_nodes = _budget_check_nodes
        hits = 0

        def go(f: int) -> int:
            nonlocal hits
            result = memo.get(f)
            if result is not None:
                hits += 1
                return result
            if tick is not None:
                tick("bdd.map")
            level = levels[f]
            if level == LEAF_LEVEL:
                value = op(los[f])
                result = leaf_index.get(value)
                if result is None:
                    result = len(levels)
                    levels.append(LEAF_LEVEL)
                    los.append(value)
                    his.append(-1)
                    leaf_index[value] = result
                    if not result & _NODE_CHECK_MASK:
                        check_nodes("bdd.node", result)
                memo[f] = result
                return result
            lo = go(los[f])  # type: ignore[arg-type]
            hi = go(his[f])
            if lo == hi:
                result = lo
            else:
                triple = (level, lo, hi)
                result = unique.get(triple)
                if result is None:
                    result = len(levels)
                    levels.append(level)
                    los.append(lo)
                    his.append(hi)
                    unique[triple] = result
                    if not result & _NODE_CHECK_MASK:
                        check_nodes("bdd.node", result)
            memo[f] = result
            return result

        before = len(memo)
        try:
            return [go(f) for f in roots]
        finally:
            self.map_misses += len(memo) - before
            self.map_hits += hits

    def signatures(self, labels: Union[Sequence[int], Mapping[Hashable, int]],
                   roots: Iterable[int]) -> List[int]:
        """One int per root: equal exactly when ``map_many`` with
        ``labels.__getitem__`` would give the roots the same diagram.

        The image diagrams are numbered instead of built: a leaf with
        value ``v`` gets ``~labels[v]`` (negative for labels >= 0) and
        a decision node the index of its reduced ``(level, lo, hi)``
        triple in a table local to this call, so no node is created in
        the manager.  Memo activity counts as ``map_hits`` and
        ``map_misses``, exactly as the ``map_many`` call would.
        """
        levels, los, his = self._level, self._lo, self._hi
        memo: Dict[int, int] = {}
        table: Dict[Tuple[int, int, int], int] = {}
        budget = current_budget()
        tick = budget.tick if budget.active else None
        hits = 0

        def go(f: int) -> int:
            nonlocal hits
            result = memo.get(f)
            if result is not None:
                hits += 1
                return result
            if tick is not None:
                tick("bdd.map")
            level = levels[f]
            if level == LEAF_LEVEL:
                result = ~labels[los[f]]  # type: ignore[index]
            else:
                lo = go(los[f])  # type: ignore[arg-type]
                hi = go(his[f])
                if lo == hi:
                    result = lo
                else:
                    triple = (level, lo, hi)
                    result = table.get(triple)
                    if result is None:
                        result = len(table)
                        table[triple] = result
            memo[f] = result
            return result

        try:
            return [go(f) for f in roots]
        finally:
            self.map_misses += len(memo)
            self.map_hits += hits

    def map_leaves(self, op: Callable[[Hashable], Hashable], f: int,
                   memo: Optional[Dict[int, int]] = None) -> int:
        """Rewrite every leaf value of ``f`` through ``op`` (a one-root
        :meth:`map_many`)."""
        return self.map_many(op, (f,), memo)[0]

    def restrict(self, f: int, assignment: Mapping[int, bool],
                 memo: Optional[Dict[int, int]] = None) -> int:
        """Fix the given decision variables to constants.

        ``memo`` may be shared only between calls with equal
        ``assignment``.  Sub-diagrams entirely below the deepest fixed
        level are returned as they are.
        """
        if not assignment:
            return f
        if memo is None:
            memo = {}
        levels, los, his = self._level, self._lo, self._hi
        unique = self._unique
        deepest = max(assignment)
        budget = current_budget()
        tick = budget.tick if budget.active else None
        check_nodes = _budget_check_nodes
        hits = 0

        def go(f: int) -> int:
            nonlocal hits
            level = levels[f]
            if level > deepest:
                return f
            result = memo.get(f)
            if result is not None:
                hits += 1
                return result
            if tick is not None:
                tick("bdd.restrict")
            fixed = assignment.get(level)
            if fixed is not None:
                result = go(his[f] if fixed else los[f])  # type: ignore
            else:
                lo = go(los[f])  # type: ignore[arg-type]
                hi = go(his[f])
                if lo == hi:
                    result = lo
                else:
                    triple = (level, lo, hi)
                    result = unique.get(triple)
                    if result is None:
                        result = len(levels)
                        levels.append(level)
                        los.append(lo)
                        his.append(hi)
                        unique[triple] = result
                        if not result & _NODE_CHECK_MASK:
                            check_nodes("bdd.node", result)
            memo[f] = result
            return result

        before = len(memo)
        try:
            return go(f)
        finally:
            self.restrict_misses += len(memo) - before
            self.restrict_hits += hits

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def evaluate(self, f: int, assignment: Mapping[int, bool]) -> Hashable:
        """Follow the decisions under ``assignment`` to a leaf value.

        Missing variables default to ``False``.
        """
        levels, los, his = self._level, self._lo, self._hi
        while levels[f] != LEAF_LEVEL:
            f = (his[f] if assignment.get(levels[f], False)
                 else los[f])  # type: ignore[assignment]
        return los[f]  # type: ignore[return-value]

    def leaves(self, f: int, seen: Optional[Set[int]] = None) -> frozenset:
        """The set of leaf values reachable from ``f``.

        With ``seen``, nodes already in it are not entered and every
        node visited is added, so a sequence of calls sharing one set
        walks each node once and returns only leaves not reported by an
        earlier call.
        """
        if seen is None:
            seen = set()
        levels, los, his = self._level, self._lo, self._hi
        values: set = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            if levels[g] == LEAF_LEVEL:
                values.add(los[g])
            else:
                stack.append(los[g])  # type: ignore[arg-type]
                stack.append(his[g])
        return frozenset(values)

    def support(self, f: int) -> frozenset:
        """The set of decision levels ``f`` depends on."""
        levels, los, his = self._level, self._lo, self._hi
        seen: set = set()
        found: set = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            level = levels[g]
            if level != LEAF_LEVEL:
                found.add(level)
                stack.append(los[g])  # type: ignore[arg-type]
                stack.append(his[g])
        return frozenset(found)

    def count_nodes(self, roots: Iterable[int]) -> int:
        """Distinct internal (decision) nodes under any of ``roots``.

        Shared nodes count once: over an automaton's transition
        diagrams this is the paper's "Nodes" column.
        """
        levels, los, his = self._level, self._lo, self._hi
        seen: Set[int] = set()
        stack = [f for f in roots if levels[f] != LEAF_LEVEL]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            lo = los[g]
            if levels[lo] != LEAF_LEVEL:  # type: ignore[index]
                stack.append(lo)  # type: ignore[arg-type]
            hi = his[g]
            if levels[hi] != LEAF_LEVEL:
                stack.append(hi)
        return len(seen)

    def paths(self, f: int) -> Iterator[Tuple[Dict[int, bool], Hashable]]:
        """Iterate over all (partial assignment, leaf value) paths.

        Variables not mentioned in the assignment are don't-cares for
        that path.
        """
        levels, los, his = self._level, self._lo, self._hi

        def go(g: int,
               acc: Dict[int, bool]) -> Iterator[Tuple[Dict[int, bool],
                                                       Hashable]]:
            level = levels[g]
            if level == LEAF_LEVEL:
                yield dict(acc), los[g]  # type: ignore[misc]
                return
            acc[level] = False
            yield from go(los[g], acc)  # type: ignore[arg-type]
            acc[level] = True
            yield from go(his[g], acc)
            del acc[level]

        yield from go(f, {})

    def find_leaf(self, f: int, want: Callable[[Hashable], bool]
                  ) -> Optional[Dict[int, bool]]:
        """A partial assignment reaching some leaf satisfying ``want``.

        Returns None when no such leaf is reachable.
        """
        for assignment, value in self.paths(f):
            if want(value):
                return assignment
        return None
