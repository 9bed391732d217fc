"""Conflict-driven clause-learning SAT solver with a programmatic callback.

The solver enumerates every satisfying total assignment: each model found is
blocked by a clause negating it and the search continues until the instance
is exhausted.  It knows nothing of sequence members: at every propagation
fixpoint without a conflict it calls ``callback(values)``, which returns a
clause falsified by the assignment, or None.  Calling the Williamson callback
at every fixpoint, not only when a member turns full, moves no search step:
a fixpoint with no newly full member shows a subset of the members, with the
same values, that a passing check saw, and PSD values are nonnegative.
A propagation conflict and a callback clause are handled alike: after a
backjump to the clause's deepest level (the current one for a conflict),
``_analyze`` derives its 1UIP clause and ``_assert`` stores it, backjumps to
its second deepest level and asserts its first literal there; the callback
clause itself is not stored.  Only propagation conflicts count in
``conflicts``.  A blocking clause is not analysed: ``_add_clause`` stores it
and, when one literal has the deepest level, asserts that literal at the
next deepest level through ``_assert``; otherwise it backjumps to one level
below the deepest, asserting nothing.
Clauses are kept only in the watch lists; there is no registry of them.
There is no restart and one fixed decision rule: the lowest unassigned
variable, given its saved phase (the value it last held, false at first).
`satgen.VariableMap` numbers variables role-major, so each member is one
contiguous range of variables and the decisions complete one member after
another.  `WilliamsonCallback` reads which members are full from the zeros
in ``values`` and rejects a minimal subset of them whose PSD values sum
beyond `seqcore.psd_bound`; when all four members pass, the trail is total
and the model is recorded like any other.

Literals are nonzero ints (DIMACS convention); variables are 1-based.  The
assignment and the watch lists are indexed by literal, a negative literal
counting from the end of the list, so a literal's value is one lookup.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqcore import fold_indices, psd_bound, psd_halfspectrum


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    callback_clauses: int = 0


class CdclSolver:
    """CDCL with watched literals, a fixed decision order (the lowest
    unassigned variable, given its saved phase), no restart, all-solutions
    enumeration and a programmatic callback, called as ``callback(values)``
    at every propagation fixpoint without a conflict."""

    def __init__(self, num_vars: int, clauses, callback=None):
        self.num_vars = num_vars
        # indexed by literal (a negative one from the end): 0 unassigned, 1 true, -1 false
        self.values = [0] * (2 * num_vars + 1)
        self.level = [0] * (num_vars + 1)
        self.reason = [None] * (num_vars + 1)
        self.saved = [False] * (num_vars + 1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.watches = [[] for _ in range(2 * num_vars + 1)]  # by literal, like values
        self.stats = SolverStats()
        self.ok = True

        self.callback = callback

        for clause in clauses:
            if not self._add_input_clause(clause):
                self.ok = False
                return

    # -- clause plumbing ---------------------------------------------------

    def _add_input_clause(self, lits) -> bool:
        seen = set()
        clause = []
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return True  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            return False
        if len(clause) == 1:
            lit = clause[0]
            val = self.values[lit]
            if val == -1:
                return False
            if val == 0:
                self._enqueue(lit, None)
            return True
        self._watch(clause)
        return True

    def _watch(self, clause: list) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- assignment --------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason) -> None:
        v = lit if lit > 0 else -lit
        self.values[lit] = 1
        self.values[-lit] = -1
        self.level[v] = self.decision_level
        self.reason[v] = reason
        self.trail.append(lit)

    def _backjump(self, target_level: int) -> None:
        if self.decision_level <= target_level:
            return
        bound = self.trail_lim[target_level]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            v = lit if lit > 0 else -lit
            self.saved[v] = lit > 0
            self.values[lit] = self.values[-lit] = 0
            self.reason[v] = None
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- search ------------------------------------------------------------

    def _propagate(self):
        values = self.values
        watches = self.watches
        trail = self.trail
        level, reason = self.level, self.reason
        current = len(self.trail_lim)
        qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            wl = watches[neg]
            i = 0
            end = len(wl)
            while i < end:
                clause = wl[i]
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fv = values[first]
                if fv == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    if values[other] != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches[other].append(clause)
                        wl[i] = wl[-1]
                        wl.pop()
                        end -= 1
                        moved = True
                        break
                if moved:
                    continue
                if fv == -1:
                    conflict = clause
                    break
                # enqueue first, implied by clause
                v = first if first > 0 else -first
                values[first] = 1
                values[-first] = -1
                level[v] = current
                reason[v] = clause
                trail.append(first)
                i += 1
            if conflict is not None:
                break
        self.stats.propagations += qhead - self.qhead
        self.qhead = qhead
        return conflict

    def _analyze(self, conflict) -> tuple:
        """The 1UIP clause of a clause falsified at the current level, with its
        asserting literal first and the first literal of the highest remaining
        level second, and that level (0 for a unit clause)."""
        seen = [False] * (self.num_vars + 1)
        level = self.level
        learned = [0]  # the asserting literal goes first
        p = back = second = counter = 0
        index = len(self.trail) - 1
        clause = conflict
        current = self.decision_level
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    if level[v] >= current:
                        counter += 1
                    else:
                        if level[v] > back:
                            back, second = level[v], len(learned)
                        learned.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            v = lit if lit > 0 else -lit
            p = lit
            clause = self.reason[v]
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learned[0] = -p
        if second:
            learned[1], learned[second] = learned[second], learned[1]
        return learned, back

    def _assert(self, clause: list, level: int) -> None:
        """Backjump to `level`, watch `clause` unless it is a unit and assert
        its first literal, the others being false there."""
        self._backjump(level)
        if len(clause) > 1:
            self._watch(clause)
        self._enqueue(clause[0], clause)

    def _decide(self) -> None:
        # the lowest unassigned variable: values[1..num_vars] are the positive literals
        v = self.values.index(0, 1)
        self.stats.decisions += 1
        self.trail_lim.append(len(self.trail))
        self._enqueue(v if self.saved[v] else -v, None)

    def _add_clause(self, lits) -> bool:
        """Add a blocking clause, falsified by the current assignment, backtrack
        so the search can continue, and return False when the instance is
        exhausted (the clause is falsified at level 0)."""
        clause = list(lits)
        levels = [self.level[abs(l)] for l in clause]
        max_level = max(levels, default=0)
        if max_level == 0:  # also the empty clause, e.g. blocking a model of no variables
            return False
        deepest = [i for i, lv in enumerate(levels) if lv == max_level]
        if len(clause) == 1:
            self._assert(clause, 0)
            return True
        if len(deepest) == 1:
            wi = deepest[0]
            clause[0], clause[wi] = clause[wi], clause[0]
            # watch the first of the deepest remaining literals, at the backjump level
            si = max(range(1, len(clause)), key=lambda i: self.level[abs(clause[i])])
            clause[1], clause[si] = clause[si], clause[1]
            self._assert(clause, self.level[abs(clause[1])])
        else:
            # deepest ascends, so i1 > i0 and the first swap leaves clause[i1]
            i0, i1 = deepest[0], deepest[1]
            clause[0], clause[i0] = clause[i0], clause[0]
            clause[1], clause[i1] = clause[i1], clause[1]
            self._backjump(max_level - 1)
            self._watch(clause)
        return True

    def _current_model(self) -> tuple:
        values = self.values
        return tuple(v if values[v] == 1 else -v for v in range(1, self.num_vars + 1))

    def solve_all(self) -> list:
        """Every satisfying total assignment, as tuples of literals."""
        models = []
        if not self.ok:
            return models
        callback = self.callback

        while True:
            clause = self._propagate()
            if clause is not None:
                self.stats.conflicts += 1
            elif callback is not None:
                clause = callback(self.values)
                if clause is not None:
                    self.stats.callback_clauses += 1
            if clause is not None:
                # falsified by the trail: a conflict's deepest level is the current one
                deepest = max((self.level[abs(lit)] for lit in clause), default=0)
                if deepest == 0:
                    return models
                self._backjump(deepest)
                self._assert(*self._analyze(clause))
                continue

            if len(self.trail) == self.num_vars:
                # total model with no callback objection
                model = self._current_model()
                models.append(model)
                if not self._add_clause([-lit for lit in model]):
                    return models
                continue

            self._decide()


# -- programmatic Williamson callback ---------------------------------------


class WilliamsonCallback:
    """Checks every member the assignment shows full (no zero over its range
    of variables) against the PSD bound and returns a conflict clause over a
    minimal violating subset of them, taking the largest values first, or
    None when they pass.  The answer depends on `values` alone.  PSD vectors
    are memoized by a member's free entries, the slice of the assignment over
    its range, as tuples of floats, so a call does no NumPy work once its
    members have been seen."""

    def __init__(self, var_map):
        self.bound = psd_bound(var_map.n)
        self._blocks = var_map.blocks()
        self._fold = np.array(fold_indices(var_map.n))
        self._memo = {}

    def __call__(self, values):
        full, psds = [], []
        for block in self._blocks:
            free = values[block.start:block.stop]
            if 0 in free:
                continue
            free = tuple(free)
            psd = self._memo.get(free)
            if psd is None:
                psd = tuple(psd_halfspectrum(np.array(free, dtype=float)[self._fold]).tolist())
                self._memo[free] = psd
            full.append(block)
            psds.append(psd)
        bound = self.bound
        size, freq = len(psds) + 1, None
        # per frequency, how many of the largest values it takes to exceed,
        # added left to right; the first frequency needing the fewest wins
        for s, column in enumerate(zip(*psds)):
            if sum(column) <= bound:  # PSD values are nonnegative: no subset exceeds
                continue
            total = 0.0
            for k, value in enumerate(sorted(column, reverse=True), start=1):
                total += value
                if total > bound:
                    if k < size:
                        size, freq = k, s
                    break
        if freq is None:
            return None
        chosen = sorted(range(len(psds)), key=lambda i: -psds[i][freq])[:size]
        return tuple(-v if values[v] > 0 else v for i in chosen for v in full[i])
