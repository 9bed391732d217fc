"""Conflict-driven clause-learning SAT solver with a programmatic callback.

The solver enumerates every satisfying total assignment: each model found is
blocked by a clause negating it and the search continues until the instance
is exhausted.  It knows nothing of sequence members: at every propagation
fixpoint without a conflict it calls ``callback(values)``, which returns a
clause falsified by the assignment, or None.  Calling the Williamson callback
at every fixpoint, not only when a member turns full, moves no search step:
a fixpoint with no newly full member shows a subset of the members, with the
same values, that a passing check saw, and PSD values are nonnegative.
Every clause falsified by the trail is handled alike: a propagation
conflict, a callback clause, and the blocking clause of a total model with
no callback objection, which negates the model.  The contract is that each
such clause has a literal at the current level: a conflict by construction,
a blocking clause through the current decision, and a callback clause when
the callback passes again all it passed at the fixpoint that took the
current decision (``_analyze`` raises ValueError otherwise).  ``_analyze``
derives its 1UIP clause; the search backjumps to the 1UIP clause's
second deepest level (0 for a unit), watches it unless it is a unit and
asserts its first literal there.  The falsified clause itself is not stored,
and one falsified at level 0 ends the search.  ``conflicts`` counts
propagation conflicts and blocking clauses; callback clauses have their own
counter.
Clauses are kept only in the watch lists; there is no registry of them.
There is no restart and one fixed decision rule: the lowest unassigned
variable, given its saved phase (the value it last held, false at first).
`satgen.VariableMap` numbers variables role-major, so each member is one
contiguous range of variables and the decisions complete one member after
another.  `WilliamsonCallback` reads which members are full from the zeros
in ``values`` and rejects a minimal subset of them whose PSD values sum
beyond `seqcore.psd_bound`; when all four members pass, the trail is total
and the model is recorded like any other.  A caller whose clauses keep one
model of each orbit of a symmetry passes ``images`` to `solve_all`, which
returns what ``images`` maps each model found to: the free rows of the model
and of its images under that symmetry (`satgen.SatInstance.images`).

Literals are nonzero ints (DIMACS convention); variables are 1-based.  The
assignment and the watch lists are indexed by literal, a negative literal
counting from the end of the list, so a literal's value is one lookup.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqcore import cosine_table, psd_bound


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
        bound = self.trail_lim[target_level]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            v = lit if lit > 0 else -lit
            self.saved[v] = lit > 0
            self.values[lit] = self.values[-lit] = 0
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
        level second, and that level (0 for a unit clause).  Raises
        ValueError when the clause has no literal at the current level."""
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
            if counter == 0:  # only the given clause can leave none
                raise ValueError(f"clause {list(conflict)} has no literal at the current level")
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

    def _decide(self) -> None:
        # the lowest unassigned variable: values[1..num_vars] are the positive literals
        v = self.values.index(0, 1)
        self.stats.decisions += 1
        self.trail_lim.append(len(self.trail))
        self._enqueue(v if self.saved[v] else -v, None)

    def _current_model(self) -> tuple:
        values = self.values
        return tuple(v if values[v] == 1 else -v for v in range(1, self.num_vars + 1))

    def solve_all(self, images=None) -> list:
        """Every satisfying total assignment, as tuples of literals.  With
        `images`, the items of ``images(model)`` for each model found, its own
        first (free rows, for `satgen.SatInstance.images`); only the model
        found is blocked, so the clauses must exclude the others' models."""
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
            if clause is None:
                if len(self.trail) < self.num_vars:
                    self._decide()
                    continue
                # total model with no callback objection: block it
                model = self._current_model()
                models.extend(images(model) if images else (model,))
                clause = [-lit for lit in model]
                self.stats.conflicts += 1
            # falsified by the trail, with a literal at the current level
            if not self.trail_lim:
                return models
            learned, level = self._analyze(clause)
            self._backjump(level)
            if len(learned) > 1:
                self._watch(learned)
            self._enqueue(learned[0], learned)


# -- programmatic Williamson callback ---------------------------------------


class WilliamsonCallback:
    """Checks every member the assignment shows full (no zero over its range
    of variables) against the PSD bound and returns a conflict clause over a
    minimal violating subset of them, taking the largest values first, or
    None when they pass.  The answer depends on `values` alone, so its clauses
    keep the solver's contract: the members full below the current level
    were full, with the same values, at the fixpoint that took the current
    decision, where they passed; PSD values are nonnegative, so every subset
    of them passes again, and a rejected subset holds a literal of the
    current level.  A member's PSD, its free entries (the slice of the
    assignment over its range) times `seqcore.cosine_table`, squared, is
    memoized by that slice, so a call does no NumPy work for a seen member."""

    def __init__(self, var_map):
        self.bound = psd_bound(var_map.n)
        self._blocks = var_map.blocks()
        self._table = cosine_table(var_map.n)
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
                psd = tuple(np.square(np.array(free, dtype=float) @ self._table).tolist())
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
