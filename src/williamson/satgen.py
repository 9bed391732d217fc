"""CNF encoding of the uncompression problem.

Boolean variables stand for the free entries of the four sequences (true is
+1, false is -1), numbered role-major: A's entries, then B, C, D.  Symmetry
keeps only the entries x[0..n//2]; any index beyond n/2 folds to n-i.  A
compressed entry v sums its m = 2 or 3 source entries, so exactly
k = (m + v)/2 of them are +1: every m - k + 1 of them hold a +1 and every
k + 1 of them a -1, one clause per subset.  The numbering
depends on n alone, so `encode_product_theorem(n)`, whose clauses force
a_k b_k c_k d_k = -1 for odd n, builds its own `VariableMap(n)`.

For even n the equivalence operation E3, a shift of one member by n/2, maps
every instance onto itself: on free entries it is the reversal
x[i] -> x[n//2 - i], which keeps a member symmetric and keeps its
2-compression, PAF and PSD.  Compressed entry j (0 <= j <= d//2, d = n/2)
sums free entries j and d - j, so a 0 there means the shift swaps two entries
that differ.  `build_instance` adds, for each member whose row has such a
zero, one unit clause fixing free entry j to +1 at the first of them; the
instance then keeps exactly one model of each orbit, and `SatInstance.images`
returns the free rows of the quadruples one model stands for, reversing the
shifted members' rows.  A shift of an odd-order member by n/3 breaks its
symmetry, so odd n takes no unit.

Instances whose compressed quadruples are related by an equivalence
transformation have equivalent solution sets; only the first of each class
is solved, found by `equivalence.first_of_class` from the ranks of
`canonical_ranks`, the kernel that also counts classes of full sequences: on
compressed rows the group acts by reorder, member negation, the
automorphisms of Z_n reduced mod the compressed length, and alternating
negation when n and the compressed length are both even (for
2-compressions, when 4 | n).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress

import numpy as np

from .equivalence import canonical_ranks, first_of_class
from .seqcore import fold_indices


class VariableMap:
    """Bijection between 1-based variable indices and (role, free index)."""

    def __init__(self, n: int):
        self.n = n
        self.free_count = n // 2 + 1
        self.num_vars = 4 * self.free_count
        self._fold = fold_indices(n)

    def var(self, role: int, index: int) -> int:
        return role * self.free_count + self._fold[index % self.n] + 1

    def blocks(self) -> list:
        """The variables of each member, A to D, as one range each."""
        f = self.free_count
        return [range(role * f + 1, role * f + f + 1) for role in range(4)]

    def decode(self, model) -> tuple:
        """The free rows of a model as `progsat.CdclSolver` finds it (one
        literal per variable, in variable order): for A to D, the tuple of
        ±1 free entries x[0..n//2]."""
        return tuple(tuple(1 if model[v - 1] > 0 else -1 for v in block) for block in self.blocks())


@dataclass
class SatInstance:
    num_vars: int
    clauses: list
    var_map: VariableMap = field(default=None, compare=False)
    shifted: tuple = ()  # the members with an E3 unit clause, A to D as 0 to 3

    def images(self, model) -> list:
        """The free rows of `model` (`VariableMap.decode`) and of its images
        under the half shifts of the `shifted` members, the model's own first:
        each shift reverses the member's free row."""
        orbit = [self.var_map.decode(model)]
        for role in self.shifted:
            orbit += [rows[:role] + (rows[role][::-1],) + rows[role + 1:] for rows in orbit]
        return orbit


def _entry_clauses(value: int, variables: tuple) -> list:
    """Clauses true exactly when k = (m + value)/2 of the m variables are true:
    each m - k + 1 of them as positive literals, each k + 1 as negative ones,
    longest first."""
    m, k = len(variables), (len(variables) + value) // 2
    if abs(value) > m or (m + value) % 2:
        raise ValueError(f"compressed entry {value} illegal for factor {m}")
    clauses = list(combinations(variables, m - k + 1))
    clauses += [tuple(-v for v in c) for c in combinations(variables, k + 1)]
    return sorted(clauses, key=len, reverse=True)


def encode_uncompression(rows, n: int) -> SatInstance:
    """CNF whose models are exactly the symmetric ±1 quadruples whose
    m-compressions are the four rows."""
    d = len(rows[0])
    if n % d != 0:
        raise ValueError(f"compressed length {d} does not divide n={n}")
    m = n // d
    if m not in (2, 3) or (n % 2 == 0) != (m == 2):
        raise ValueError(f"factor {m} inconsistent with order {n}")
    vm = VariableMap(n)
    clauses = {}
    for role, row in enumerate(rows):
        for j, value in enumerate(row):
            variables = tuple(vm.var(role, j + t * d) for t in range(m))
            # a clause's literals share one sign, so no clause is a tautology;
            # two source entries folding to one variable repeat a literal
            for lits in _entry_clauses(int(value), variables):
                clauses.setdefault(tuple(sorted(dict.fromkeys(lits), key=abs)), None)
    return SatInstance(vm.num_vars, [list(c) for c in clauses], vm)


def encode_product_theorem(n: int) -> list:
    """Clauses forcing a_k b_k c_k d_k = -1 for k = 1..(n-1)/2 (odd n, first
    entries fixed to +1 by the rowsum sign convention): the 8 width-4 clauses
    per k that each forbid one even-negation sign pattern."""
    if n % 2 == 0:
        raise ValueError("the product constraint applies to odd orders")
    vm = VariableMap(n)
    clauses = []
    for k in range(1, (n - 1) // 2 + 1):
        vs = [vm.var(role, k) for role in range(4)]
        for bits in range(16):
            signs = [1 if (bits >> i) & 1 == 0 else -1 for i in range(4)]
            if signs[0] * signs[1] * signs[2] * signs[3] == 1:
                # forbid this assignment: literal false exactly under it
                clauses.append(tuple(-v if s == 1 else v for v, s in zip(vs, signs)))
    return clauses


def build_instance(rows, n: int) -> SatInstance:
    """The CNF solved for one matched compression: its uncompression clauses,
    then the product clauses when n is odd, or the E3 unit clauses when n is
    even: free entry j set to +1 for each member whose row is 0 at some
    entry j <= d//2, at the first such j, recorded in `shifted`."""
    inst = encode_uncompression(rows, n)
    if n % 2 == 1:
        inst.clauses.extend(list(c) for c in encode_product_theorem(n))
        return inst
    half = len(rows[0]) // 2
    for role, row in enumerate(rows):
        j = next((j for j in range(half + 1) if row[j] == 0), None)
        if j is not None:
            inst.clauses.append([inst.var_map.var(role, j)])
            inst.shifted += (role,)
    return inst


def export_dimacs(inst: SatInstance) -> str:
    header = f"p cnf {inst.num_vars} {len(inst.clauses)}\n"
    return header + "".join(" ".join(map(str, clause)) + " 0\n" for clause in inst.clauses)


# -- instance-level deduplication --------------------------------------------


def dedupe_instances(mcs, n: int) -> tuple:
    """Keep one matched compression per equivalence class, in first-seen order.

    Returns (kept, discarded) where discarded pairs each dropped compression,
    in input order, with the index of its kept representative.  A match's
    class is its row of `canonical_ranks` (the 4 x d views are stacked by one
    concatenate, a third of np.stack's time), and `first_of_class` keeps each
    class's first match; no form is decoded."""
    mcs = list(mcs)
    if not mcs:
        return [], []
    ranks = canonical_ranks(np.concatenate([mc.rows for mc in mcs]).reshape(len(mcs), 4, -1), n)[0]
    is_first, owner = first_of_class(ranks)
    kept = list(compress(mcs, is_first.tolist()))
    slots = list(range(len(kept)))  # one int object per kept index, shared by its discards
    return kept, list(zip(compress(mcs, (~is_first).tolist()), map(slots.__getitem__, owner[~is_first])))
