import itertools

import numpy as np
import pytest

from williamson.diophantine import decompose_four_squares
from williamson.oracle import brute_force_enumerate, brute_force_uncompress
from williamson.pipeline import generate_candidates
from williamson.progsat import CdclSolver, WilliamsonCallback
from williamson.satgen import SatInstance, VariableMap, build_instance, encode_uncompression
from williamson.seqcore import (
    EPSILON_DEFAULT,
    cosine_table,
    psd_bound,
    verify_williamson,
)

from helpers import compress, quadruple_of


def truth_table_models(num_vars, clauses):
    """Independent oracle: evaluate every assignment with bitset arithmetic.

    Assignment index bit (v-1) set means variable v is true.
    """
    count = 1 << num_vars
    idx = np.arange(count, dtype=np.uint32)
    sat = np.ones(count, dtype=bool)
    for clause in clauses:
        ok = np.zeros(count, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            ok |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        sat &= ok
    models = set()
    for i in np.nonzero(sat)[0]:
        models.add(tuple(v if (int(i) >> (v - 1)) & 1 else -v for v in range(1, num_vars + 1)))
    return models


def solve(inst, callback=None, images=None):
    return CdclSolver(inst.num_vars, inst.clauses, callback).solve_all(images)


def models_of(inst, callback=None):
    return set(solve(inst, callback))


class TestSolveAllBasics:
    def test_single_unit_two_vars(self):
        assert models_of(SatInstance(2, [[1]])) == {(1, 2), (1, -2)}

    def test_contradictory_units(self):
        assert models_of(SatInstance(1, [[1], [-1]])) == set()

    def test_empty_clause_unsat(self):
        assert models_of(SatInstance(2, [[1], []])) == set()

    def test_zero_variables_one_empty_model(self):
        # the empty model's blocking clause is empty, which ends the search
        assert CdclSolver(0, []).solve_all() == [()]

    def test_no_clauses_full_space(self):
        assert len(models_of(SatInstance(3, []))) == 8

    def test_one_variable_unit_blocking_clauses(self):
        # each model's blocking clause has one literal: the first, falsified
        # at level 1, is its own 1UIP clause, a unit asserted at level 0; the
        # second is falsified at level 0, which exhausts the instance
        assert CdclSolver(1, []).solve_all() == [(-1,), (1,)]

    def test_pipeline_n2_instance_four_solutions(self):
        inst = encode_uncompression([[0], [0], [2], [2]], 2)
        models = solve(inst)
        assert len(models) == 4
        for model in models:
            assert verify_williamson(quadruple_of(inst.var_map, model))

    @pytest.mark.parametrize("lit", [0, 3, -3])
    def test_rejects_literal_out_of_range(self, lit):
        with pytest.raises(ValueError, match="out of range"):
            CdclSolver(2, [[1, lit]])

    def test_tautological_input_clause_dropped(self):
        solver = CdclSolver(2, [[1, -1], [2]])
        assert not any(solver.watches)  # the tautology is never watched; [2] is a unit
        assert solver.solve_all() == [(-1, 2), (1, 2)]

    def test_dimacs_cross_check(self):
        inst = SatInstance(3, [[1, -2], [2, 3]])
        assert models_of(inst) == truth_table_models(3, inst.clauses)


class TestAgainstTruthTable:
    def test_random_3cnf(self):
        rng = np.random.default_rng(101)
        for _ in range(120):
            num_vars = int(rng.integers(3, 13))
            num_clauses = int(rng.integers(2, 4 * num_vars))
            clauses = []
            for _ in range(num_clauses):
                vs = rng.choice(num_vars, size=min(3, num_vars), replace=False) + 1
                clauses.append([int(v) * (1 if rng.integers(2) else -1) for v in vs])
            inst = SatInstance(num_vars, clauses)
            assert models_of(inst) == truth_table_models(num_vars, clauses)

    def test_blocking_clauses_terminate_on_dense_instances(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            clauses = [[1, 2], [-1, -2]]
            inst = SatInstance(12, clauses)
            assert len(models_of(inst)) == 2 * 2 ** 10


class ForbiddenPatterns:
    """A callback over variable ranges that rejects a full block whose values
    form one of its forbidden patterns, and checks that it is called only at
    propagation fixpoints: no clause of the CNF is falsified or unit."""

    def __init__(self, blocks, forbidden, clauses):
        self.blocks = blocks
        self.forbidden = forbidden  # per block, a set of value tuples
        self.clauses = clauses

    def __call__(self, values):
        for clause in self.clauses:
            vals = [values[lit] for lit in clause]
            assert 1 in vals or vals.count(0) > 1, clause
        for i, block in enumerate(self.blocks):
            pattern = tuple(values[block.start:block.stop])
            if 0 not in pattern and pattern in self.forbidden[i]:
                return tuple(-v if values[v] > 0 else v for v in block)
        return None


def test_callback_protocol_against_truth_table():
    # random CNFs with blocks of 2-3 consecutive variables: the models are
    # the truth-table models in which no block holds a forbidden pattern,
    # each found once
    rng = np.random.default_rng(107)
    for _ in range(300):
        num_vars = int(rng.integers(4, 11))
        blocks, start = [], 1
        while True:
            size = int(rng.integers(2, 4))
            if start + size - 1 > num_vars or rng.integers(5) == 0:
                break
            blocks.append(range(start, start + size))
            start += size
        forbidden = [{p for p in itertools.product((-1, 1), repeat=len(b)) if rng.random() < 0.3}
                     for b in blocks]
        clauses = []
        for _ in range(int(rng.integers(0, 2 * num_vars))):
            vs = rng.choice(num_vars, size=3, replace=False) + 1
            clauses.append([int(v) * (1 if rng.integers(2) else -1) for v in vs])
        models = CdclSolver(num_vars, clauses, ForbiddenPatterns(blocks, forbidden, clauses)).solve_all()
        assert len(models) == len(set(models))
        expected = {m for m in truth_table_models(num_vars, clauses)
                    if not any(tuple(1 if m[v - 1] > 0 else -1 for v in b) in f
                               for b, f in zip(blocks, forbidden))}
        assert set(models) == expected


def test_images_returned_with_each_model():
    # the unit keeps variable 1 true; each model found stands for itself and
    # its image with variable 1 flipped, returned right after it, and only
    # the model found is blocked
    def flip_first(model):
        return [model, (-model[0],) + model[1:]]

    assert CdclSolver(2, [[1]]).solve_all() == [(1, -2), (1, 2)]
    assert CdclSolver(2, [[1]]).solve_all(flip_first) == [(1, -2), (-1, -2), (1, 2), (-1, 2)]


def test_plain_function_callback():
    # any function of the assignment is a callback: it is called at every
    # fixpoint, and one rejecting (1, 2) leaves three of the four models
    calls = []

    def reject_both_true(values):
        calls.append(values[1:3])
        return (-1, -2) if values[1] == values[2] == 1 else None

    models = CdclSolver(2, [], reject_both_true).solve_all()
    assert sorted(models) == [(-1, -2), (-1, 2), (1, -2)]
    assert [1, 1] in calls


def test_callback_clause_below_current_level_is_refused():
    # the unit sets variable 1 at level 0; once variable 2 is decided at
    # level 1, the callback objects with a clause over variable 1 alone,
    # which breaks the solver's contract
    def late_objection(values):
        return (-1,) if values[1] == 1 and values[2] != 0 else None

    with pytest.raises(ValueError, match="current level"):
        CdclSolver(2, [[1]], late_objection).solve_all()


def spectrum(n, free):
    """A member's PSD at 0..n//2 as the callback computes it, to the last bit:
    the order of members with equal true PSD rests on its rounding."""
    return np.square(np.array(free, dtype=float) @ cosine_table(n))


def assign(vm, frees):
    """Solver values array with member r's free entries set to frees[r]
    (None leaves the member unassigned)."""
    values = [0] * (vm.num_vars + 1)
    for role, free in enumerate(frees):
        for i, val in enumerate(free or ()):
            values[vm.var(role, i)] = val
    return values


class TestLearnMinimalPsdClause:
    """The conflict clause WilliamsonCallback returns for violating members."""

    def test_single_block_width(self):
        # at n=6 a constant member alone has PSD 36 > 24 at s=0: the clause
        # covers just that member, although it is listed second
        vm = VariableMap(6)
        values = assign(vm, ((1, 1, -1, -1), (1, 1, 1, 1), None, None))
        assert WilliamsonCallback(vm)(values) == (-5, -6, -7, -8)

    def test_three_block_case_width_six(self):
        # PSD([1,1]) = [4, 0], PSD([1,-1]) = [0, 4]; at n=2 three constant
        # members exceed 8 jointly at s=0, and the fourth is left out
        vm = VariableMap(2)
        values = assign(vm, ((1, 1), (1, 1), (1, 1), (1, -1)))
        assert WilliamsonCallback(vm)(values) == (-1, -2, -3, -4, -5, -6)

    def test_clause_falsified_by_current_literals(self):
        # the clause negates the current literals of the fewest full members,
        # largest PSD values first, whose values at one frequency exceed 4n + eps
        n = 9
        vm = VariableMap(n)
        bound = 4 * n + EPSILON_DEFAULT
        rng = np.random.default_rng(7)
        learned = 0
        for _ in range(200):
            frees = [[int(v) for v in rng.choice([-1, 1], size=vm.free_count)] for _ in range(4)]
            full = [r for r in range(4) if rng.integers(2)]
            values = assign(vm, [frees[r] if r in full else None for r in range(4)])
            clause = WilliamsonCallback(vm)(values)
            psds = [spectrum(n, frees[r]) for r in full]
            best = None  # (size, members) of the first smallest violating subset
            for s in range(n // 2 + 1):
                ranked = sorted(range(len(full)), key=lambda i: -psds[i][s])
                total = 0.0
                for k, i in enumerate(ranked, start=1):
                    total += psds[i][s]
                    if total > bound:
                        if best is None or k < best[0]:
                            best = (k, ranked[:k])
                        break
            if best is None:
                assert clause is None
                continue
            learned += 1
            assert all(values[abs(lit)] == (-1 if lit > 0 else 1) for lit in clause)
            literals = [v if values[v] > 0 else -v for i in best[1] for v in vm.blocks()[full[i]]]
            assert clause == tuple(-lit for lit in literals)
        assert learned > 20

    @pytest.mark.parametrize("n", [9, 12, 27])
    def test_clause_equals_numpy_formula(self, n):
        # the pure-Python selection against the NumPy formula it replaced, on
        # full and partial assignments of random and PSD-passing members
        vm = VariableMap(n)
        cb = WilliamsonCallback(vm)
        decs = decompose_four_squares(n)
        cands = generate_candidates(n, decs)
        passing = np.concatenate([cands.lists[r] for r in sorted(cands.lists)])
        rng = np.random.default_rng(n)
        outcomes = set()
        for trial in range(300):
            frees = [[int(v) for v in (passing[rng.integers(len(passing))] if rng.integers(2)
                                        else rng.choice([-1, 1], size=vm.free_count))]
                     for _ in range(4)]
            mask = 0b1111 if trial % 2 else int(rng.integers(16))  # the members assigned
            values = assign(vm, [frees[r] if (mask >> r) & 1 else None for r in range(4)])
            full_blocks = [vm.blocks()[r] for r in range(4) if (mask >> r) & 1]
            expected = None
            if full_blocks:
                arr = np.stack([spectrum(n, frees[r]) for r in range(4) if (mask >> r) & 1])
                exceeds = np.cumsum(-np.sort(-arr, axis=0), axis=0) > cb.bound
                if exceeds.any():
                    sizes = np.where(exceeds.any(axis=0), exceeds.argmax(axis=0) + 1, arr.shape[0] + 1)
                    s = int(sizes.argmin())
                    chosen = np.argsort(-arr[:, s], kind="stable")[: sizes[s]]
                    expected = tuple(-v if values[v] > 0 else v for i in chosen for v in full_blocks[i])
            clause = cb(values)
            assert clause == expected
            outcomes.add((mask == 0b1111, clause is None))
        assert outcomes >= {(True, False), (False, True), (False, False)}

    def test_no_violation_is_no_clause(self):
        # A = B = [1,-1] sum to [0, 8] <= 8 + eps: full members within the bound
        vm = VariableMap(2)
        values = assign(vm, ((1, -1), (1, -1), None, None))
        assert WilliamsonCallback(vm)(values) is None


class TestWilliamsonCallback:
    def test_no_block_assigned_is_no_action(self):
        vm = VariableMap(2)
        values = [0] * (vm.num_vars + 1)
        assert WilliamsonCallback(vm)(values) is None

    def test_three_constant_blocks_learn_width_six(self):
        vm = VariableMap(2)
        values = assign(vm, ((1, 1), (1, 1), (1, 1), None))
        clause = WilliamsonCallback(vm)(values)
        assert isinstance(clause, tuple)
        assert set(clause) == {-1, -2, -3, -4, -5, -6}

    def test_full_solution_found(self):
        # a full Williamson assignment passes: the solver records it as a model
        vm = VariableMap(2)
        values = assign(vm, ((1, -1), (1, -1), (1, 1), (1, 1)))
        assert WilliamsonCallback(vm)(values) is None
        model = tuple(v if values[v] > 0 else -v for v in range(1, vm.num_vars + 1))
        assert verify_williamson(quadruple_of(vm, model))
        inst = encode_uncompression([[0], [0], [2], [2]], 2)
        assert model in solve(inst, WilliamsonCallback(inst.var_map))

    def test_callback_memoizes_psd(self):
        vm = VariableMap(2)
        cb = WilliamsonCallback(vm)
        assert cb(assign(vm, ((1, 1), None, None, None))) is None
        assert len(cb._memo) == 1
        assert cb(assign(vm, ((1, 1), (1, 1), None, None))) is None
        assert len(cb._memo) == 1  # the same free entries reused

    @pytest.mark.parametrize("n", [2, 9, 12, 13])
    def test_bound_from_var_map(self, n):
        vm = VariableMap(n)
        assert WilliamsonCallback(vm).bound == psd_bound(vm.n)


def _pipeline_instances(n):
    from williamson.cli import RunConfig, _generate_instances

    tasks, _ = _generate_instances(RunConfig(n=n))
    return tasks


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 10, 12, 14, 15, 16])
def test_callback_equals_post_filter(n):
    # soundness: callback-enabled solving returns exactly the Williamson
    # solutions of callback-free solving
    from williamson.satgen import encode_product_theorem

    for iid, rows in _pipeline_instances(n):
        inst = encode_uncompression(rows, n)
        clauses = list(inst.clauses)
        if n % 2 == 1:
            clauses.extend(encode_product_theorem(n))
        plain = CdclSolver(inst.num_vars, clauses).solve_all()
        plain_quads = {q for q in (quadruple_of(inst.var_map, model) for model in plain) if verify_williamson(q)}
        cb = WilliamsonCallback(inst.var_map)
        prog_quads = {quadruple_of(inst.var_map, model) for model in CdclSolver(inst.num_vars, clauses, cb).solve_all()}
        assert all(map(verify_williamson, prog_quads))  # callback output is already Williamson
        assert prog_quads == plain_quads


@pytest.mark.parametrize("n", list(range(2, 25, 2)) + [28])
def test_e3_reduced_search_finds_every_model(n):
    # each instance solved with the callback twice: with the E3 units and
    # their images, and as the bare uncompression; the free rows of the
    # models are equal, and no rows are returned twice
    for iid, rows in _pipeline_instances(n):
        inst, bare = build_instance(rows, n), encode_uncompression(rows, n)
        reduced = solve(inst, WilliamsonCallback(inst.var_map), inst.images)
        full = solve(bare, WilliamsonCallback(bare.var_map))
        assert len(reduced) == len(set(reduced)), iid
        assert set(reduced) == {bare.var_map.decode(model) for model in full}, iid


def test_callback_agrees_with_uncompression_oracle():
    n = 6
    for q in brute_force_enumerate(n)[:5]:
        rows = [compress(x, 3) for x in q.members]
        inst = encode_uncompression(rows, n)
        cb = WilliamsonCallback(inst.var_map)
        found = {quadruple_of(inst.var_map, model) for model in solve(inst, cb)}
        assert found == set(brute_force_uncompress(rows, n))


class LowestFirstSolver(CdclSolver):
    """Checks each decision against the fixed rule: the lowest unassigned
    variable, given the phase it last held (false at first)."""

    checked = 0

    def _decide(self):
        v = next(v for v in range(1, self.num_vars + 1) if self.values[v] == 0)
        expected = v if self.saved[v] else -v
        super()._decide()
        assert self.trail[-1] == expected and self.level[v] == self.decision_level
        self.checked += 1


# orders whose instances the search tests below cover: 21 is odd, so no E3
# unit shortens its search, and it carries most of the counts the floors need
SEARCH_ORDERS = (18, 21)


def test_decisions_take_lowest_unassigned_variable():
    decisions = 0
    for n in SEARCH_ORDERS:
        for iid, rows in _pipeline_instances(n):
            inst = build_instance(rows, n)
            solver = LowestFirstSolver(inst.num_vars, inst.clauses, WilliamsonCallback(inst.var_map))
            solver.solve_all(inst.images)
            assert solver.checked == solver.stats.decisions, iid
            decisions += solver.stats.decisions
    assert decisions > 1000


class AssertingAfterRejection(CdclSolver):
    """Checks what follows each callback rejection and each model found,
    whose blocking clause rejects it: its deepest level is the current one,
    and the next trail entry is a literal asserted below the current level
    by a learned clause whose other literals are false, with no decision or
    propagation in between.  A rejection at level 0 ends the search."""

    def __init__(self, num_vars, clauses, callback):
        self.pending = None  # the deepest level of an unanswered rejection
        self.rejections = 0  # callback clauses answered
        self.blocked = 0  # models answered
        self.final = False  # set by a rejection at level 0
        super().__init__(num_vars, clauses, callback)

        def rejecting(values):
            clause = callback(values)
            if clause is not None and self._reject(max(self.level[abs(lit)] for lit in clause)):
                self.rejections += 1
            return clause
        if callback is not None:
            self.callback = rejecting

    def _reject(self, deepest):
        assert self.pending is None and not self.final
        assert deepest == self.decision_level
        if deepest:
            self.pending = deepest
        else:
            self.final = True
        return bool(deepest)

    def _current_model(self):
        # the trail is total: the model's deepest level is the deepest of all
        if self._reject(max(self.level)):
            self.blocked += 1
        return super()._current_model()

    def _enqueue(self, lit, reason):
        super()._enqueue(lit, reason)
        if self.pending is not None:
            assert reason is not None and reason[0] == lit
            assert self.level[abs(lit)] < self.pending
            assert all(self.values[other] == -1 for other in reason[1:])
            assert len(reason) == 1 or any(reason is c for c in self.watches[reason[1]])
            self.pending = None

    def _propagate(self):
        assert self.pending is None
        return super()._propagate()

    def _decide(self):
        assert self.pending is None
        super()._decide()


def test_callback_rejection_asserts_a_learned_clause():
    # the callback off too: it finds far more models, each blocked on a
    # total trail
    rejections = blocked = 0
    for n in SEARCH_ORDERS:
        for iid, rows in _pipeline_instances(n):
            inst = build_instance(rows, n)
            for callback in (WilliamsonCallback(inst.var_map), None):
                solver = AssertingAfterRejection(inst.num_vars, inst.clauses, callback)
                models = solver.solve_all()
                assert solver.pending is None
                assert solver.rejections + solver.blocked + solver.final == (
                    solver.stats.callback_clauses + len(models)), iid
                rejections += solver.rejections
                blocked += solver.blocked
    assert rejections > 1000 and blocked > 10000


class MemberSchedule(CdclSolver):
    """Replays a per-member call schedule over the same search: a member
    counts as checked from the fixpoint that found it full until a backjump
    leaves it partly unassigned, and the schedule calls the callback only at
    a fixpoint showing an unchecked full member.  Asserts that the callback
    returns None at every fixpoint the schedule skips, so calling it there
    changes nothing."""

    def __init__(self, num_vars, clauses, callback, blocks):
        self.blocks = blocks
        self.checked = 0  # bit i: block i full and checked
        self.skipped = 0
        super().__init__(num_vars, clauses, callback)

        def replaying(values):
            full = self._full()
            clause = callback(values)
            if full & ~self.checked:
                self.checked = full
            else:
                assert clause is None
                self.skipped += 1
            return clause
        self.callback = replaying

    def _full(self):
        return sum(1 << i for i, b in enumerate(self.blocks) if 0 not in self.values[b.start:b.stop])

    def _backjump(self, target_level):
        super()._backjump(target_level)
        self.checked &= self._full()


def test_skipped_fixpoints_pass():
    # a fixpoint the per-member schedule skips shows only members that have
    # stayed full, with the same values, since a check of a superset of them
    # passed; PSD values are nonnegative, so they pass again
    skipped = 0
    for n in (9, 12, 15, 16) + SEARCH_ORDERS:
        for _, rows in _pipeline_instances(n):
            inst = build_instance(rows, n)
            solver = MemberSchedule(inst.num_vars, inst.clauses, WilliamsonCallback(inst.var_map),
                                    inst.var_map.blocks())
            solver.solve_all(inst.images)
            skipped += solver.skipped
    assert skipped >= 1000


@pytest.mark.parametrize("n", [6, 9, 12])
def test_watched_clauses_distinct_after_solve(n):
    # the solver keeps no clause registry: no learned clause may
    # repeat the literal set of another clause it watches
    for iid, rows in _pipeline_instances(n):
        inst = build_instance(rows, n)
        solver = CdclSolver(inst.num_vars, inst.clauses, WilliamsonCallback(inst.var_map))
        solver.solve_all()
        clauses = {id(c): c for wl in solver.watches for c in wl}.values()
        keys = [frozenset(c) for c in clauses]
        assert len(keys) == len(set(keys)), iid


def test_stats_populated():
    inst = SatInstance(6, [[1, 2], [-1, 3], [-2, -3]])
    solver = CdclSolver(inst.num_vars, inst.clauses)
    models = solver.solve_all()
    assert set(models) == truth_table_models(inst.num_vars, inst.clauses)
    assert solver.stats.decisions > 0 and solver.stats.propagations > 0
