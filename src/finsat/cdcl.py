"""A conflict-driven clause learning (CDCL) SAT solver.

It knows nothing of formulas: the grounded engine in solver.py hands it
clauses over integer literals and reads back an assignment.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .logic import BudgetExceeded


def _luby(i: int) -> int:
    """Term i (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ..."""
    size, exp = 1, 0
    while size < i + 1:
        exp += 1
        size = 2 * size + 1
    while size - 1 != i:
        size >>= 1
        exp -= 1
        i %= size
    return 1 << exp


class CDCL:
    """Conflict-driven clause learning over literals v and -v, v >= 1.

    Literal-indexed tables have 2 * n_vars + 1 entries and are indexed by
    the literal itself, so -v lands at the far end of the list.  A long
    clause is a list watched by its first two literals (watches[lit] holds
    the clauses to visit when lit becomes false).  A binary clause (a | b)
    is kept only in the implication lists, as b under -a and a under -b.
    The reason of an implied literal is its clause, with the implied
    literal first, or the other literal of a binary clause."""

    RESTART_UNIT = 100
    DECAY = 0.95

    def __init__(
        self, n_vars: int, clauses: list[list[int]], first: Iterable[int] = ()
    ) -> None:
        """Load the clauses at decision level 0.  The solver takes the
        clause lists over (it reorders their literals) and empties the
        outer list as it goes, so no second copy is kept.  The variables
        in first are branched on before the others until conflicts
        reorder them."""
        size = 2 * n_vars + 1
        self.val = [0] * size  # 1 true, -1 false, 0 unassigned
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        self.implied: list[list[int]] = [[] for _ in range(size)]
        self.level = [0] * (n_vars + 1)
        self.reason: list = [None] * (n_vars + 1)
        self.phase = [False] * (n_vars + 1)  # polarity last assigned
        self.seen = [False] * (n_vars + 1)
        self.activity = act = [0.0] * (n_vars + 1)
        for v in first:
            act[v] = 1e-3  # below the first bump, 1.0
        self.bump = 1.0
        # Max-heap of variables by activity; pos[v] is v's index, or -1.
        self.heap = sorted(range(1, n_vars + 1), key=lambda v: -act[v])
        self.pos = [-1] * (n_vars + 1)
        for i, v in enumerate(self.heap):
            self.pos[v] = i
        self.trail: list[int] = []
        self.limits: list[int] = []  # trail length at each decision
        self.qhead = 0
        self.decisions = 0
        self.conflicts = 0
        self.ok = True
        watches, implied, val = self.watches, self.implied, self.val
        while clauses:
            c = clauses.pop()
            if len(c) > 2:
                lits = set(c)
                if any(-lit in lits for lit in lits):
                    continue  # a tautology
                if len(lits) < len(c):
                    c = list(lits)
            if len(c) > 2:
                watches[c[0]].append(c)
                watches[c[1]].append(c)
                continue
            if len(c) == 2:
                a, b = c
                if a == -b:
                    continue
                if a != b:
                    implied[-a].append(b)
                    implied[-b].append(a)
                    continue
            if not c or val[c[0]] < 0:
                self.ok = False
            elif val[c[0]] == 0:
                self._assign(c[0], None)

    def _assign(self, lit: int, reason) -> None:
        v = lit if lit > 0 else -lit
        self.val[lit] = 1
        self.val[-lit] = -1
        self.level[v] = len(self.limits)
        self.reason[v] = reason
        self.trail.append(lit)

    def solve(self, node_limit: int) -> Optional[list[int]]:
        """A satisfying assignment as a literal-indexed table (1 true, -1
        false), or None if there is none.  Raises BudgetExceeded when the
        search needs more than node_limit decisions."""
        if not self.ok:
            return None
        restarts = 0
        until_restart = self.RESTART_UNIT
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if not self.limits:
                    return None
                learnt, back = self._analyze(confl)
                self._backtrack(back)
                self._learn(learnt)
                self.bump /= self.DECAY
                until_restart -= 1
                continue
            if until_restart <= 0:
                restarts += 1
                until_restart = _luby(restarts) * self.RESTART_UNIT
                self._backtrack(0)
            v = self._pick()
            if v == 0:
                return self.val
            self.decisions += 1
            if self.decisions > node_limit:
                raise BudgetExceeded(f"grounded search exceeded {node_limit} nodes")
            self.limits.append(len(self.trail))
            self._assign(v if self.phase[v] else -v, None)

    def _propagate(self) -> Optional[Sequence[int]]:
        """Unit propagation from qhead; a falsified clause, or None."""
        val, level, reason, trail = self.val, self.level, self.reason, self.trail
        watches, implied = self.watches, self.implied
        d = len(self.limits)
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            for q in implied[p]:
                vq = val[q]
                if vq > 0:
                    continue
                if vq < 0:
                    self.qhead = len(trail)
                    return (q, -p)
                val[q] = 1
                val[-q] = -1
                v = q if q > 0 else -q
                level[v] = d
                reason[v] = -p
                trail.append(q)
            false_lit = -p
            ws = watches[false_lit]
            if not ws:
                continue
            keep = []
            for i, c in enumerate(ws):
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                if val[first] > 0:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if val[lit] >= 0:
                        c[1] = lit
                        c[k] = false_lit
                        watches[lit].append(c)
                        break
                else:
                    keep.append(c)
                    if val[first] < 0:
                        keep.extend(ws[i + 1 :])
                        watches[false_lit] = keep
                        self.qhead = len(trail)
                        return c
                    val[first] = 1
                    val[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = d
                    reason[v] = c
                    trail.append(first)
            watches[false_lit] = keep
        self.qhead = qhead
        return None

    def _analyze(self, confl: Sequence[int]) -> tuple[list[int], int]:
        """The first-UIP clause of a conflict, locally minimized, with the
        asserting literal first and a literal of the level to return to
        second; and that level."""
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        d = len(self.limits)
        learnt = [0]
        marked = []
        pending = 0
        i = len(trail)
        lits = confl
        while True:
            for q in lits:
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    marked.append(v)
                    self._bump_var(v)
                    if level[v] >= d:
                        pending += 1
                    else:
                        learnt.append(q)
            while True:
                i -= 1
                p = trail[i]
                v = p if p > 0 else -p
                if seen[v]:
                    break
            pending -= 1
            if pending == 0:
                break
            r = reason[v]
            lits = (r,) if type(r) is int else r
        learnt[0] = -p
        # Drop a literal whose reason holds only literals already in the
        # clause or fixed at level 0: resolving on it changes nothing.
        out = [-p]
        for q in learnt[1:]:
            r = reason[q if q > 0 else -q]
            if r is None:
                out.append(q)
                continue
            for x in (r,) if type(r) is int else r:
                w = x if x > 0 else -x
                if not seen[w] and level[w] > 0:
                    out.append(q)
                    break
        for v in marked:
            seen[v] = False
        if len(out) == 1:
            return out, 0
        best, back = 1, 0
        for j in range(1, len(out)):
            q = out[j]
            lv = level[q if q > 0 else -q]
            if lv > back:
                best, back = j, lv
        out[1], out[best] = out[best], out[1]
        return out, back

    def _learn(self, learnt: list[int]) -> None:
        """Store a learnt clause and assert its first literal."""
        if len(learnt) == 1:
            self._assign(learnt[0], None)
        elif len(learnt) == 2:
            a, b = learnt
            self.implied[-a].append(b)
            self.implied[-b].append(a)
            self._assign(a, b)
        else:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self._assign(learnt[0], learnt)

    def _backtrack(self, lvl: int) -> None:
        """Undo every decision level above lvl, saving the phases."""
        if len(self.limits) <= lvl:
            return
        lim = self.limits[lvl]
        trail, val, phase, pos = self.trail, self.val, self.phase, self.pos
        for i in range(len(trail) - 1, lim - 1, -1):
            lit = trail[i]
            val[lit] = 0
            val[-lit] = 0
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            if pos[v] < 0:
                self._heap_insert(v)
        del trail[lim:]
        del self.limits[lvl:]
        self.qhead = lim

    def _bump_var(self, v: int) -> None:
        act = self.activity
        act[v] += self.bump
        if act[v] > 1e100:
            for w in range(1, len(act)):
                act[w] *= 1e-100
            self.bump *= 1e-100
        if self.pos[v] >= 0:
            self._sift_up(self.pos[v])

    def _pick(self) -> int:
        """The unassigned variable of highest activity, or 0 if none."""
        heap, pos, val = self.heap, self.pos, self.val
        while heap:
            top = heap[0]
            last = heap.pop()
            pos[top] = -1
            if heap:
                heap[0] = last
                pos[last] = 0
                self._sift_down(0)
            if val[top] == 0:
                return top
        return 0

    def _heap_insert(self, v: int) -> None:
        self.pos[v] = len(self.heap)
        self.heap.append(v)
        self._sift_up(self.pos[v])

    def _sift_up(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            u = heap[parent]
            if act[u] >= a:
                break
            heap[i] = u
            pos[u] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            if child + 1 < n and act[heap[child + 1]] > act[heap[child]]:
                child += 1
            u = heap[child]
            if act[u] <= a:
                break
            heap[i] = u
            pos[u] = i
            i = child
        heap[i] = v
        pos[v] = i
