"""CNF encoding of the uncompression problem.

Boolean variables stand for the free entries of the four sequences (true is
+1, false is -1), numbered role-major: A's entries, then B, C, D.  Symmetry
keeps only the entries x[0..n//2]; any index beyond n/2 folds to n-i.  Each
compressed entry constrains its two (m=2) or three (m=3) source entries with
one of seven clause patterns covering the values -m..m.  The numbering
depends on n alone, so `encode_product_theorem(n)`, whose clauses force
a_k b_k c_k d_k = -1 for odd n, builds its own `VariableMap(n)`.

For even n the equivalence operation E3, a shift of one member by n/2, maps
every instance onto itself: on free entries it is the reversal
x[i] -> x[n//2 - i], which keeps a member symmetric and keeps its
2-compression, PAF and PSD.  Compressed entry j (0 <= j <= d//2, d = n/2)
sums free entries j and d - j, so a 0 there means the shift swaps two entries
that differ.  `build_instance` adds, for each member whose row has such a
zero, one unit clause fixing free entry j to +1 at the first of them; the
instance then keeps exactly one model of each orbit, and
`SatInstance.images` returns the models one model stands for.  A shift of an
odd-order member by n/3 breaks its symmetry, so odd n takes no unit.

Instances whose compressed quadruples are related by an equivalence
transformation have equivalent solution sets; they are deduplicated before
solving by the canonical form of the compressed quadruple.  That form comes
from `equivalence.canonical_rows`, the kernel that also counts classes of
full sequences: on compressed rows the group acts by reorder, member
negation, the automorphisms of Z_n reduced mod the compressed length, and
alternating negation when n and the compressed length are both even (for
2-compressions, when 4 | n).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equivalence import canonical_rows
from .seqcore import Quadruple, SymmetricSequence, fold_indices


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

    def decode(self, model) -> Quadruple:
        """The quadruple of a model as `progsat.CdclSolver.solve_all` returns
        it: one literal per variable, in variable order."""
        return Quadruple(*(
            SymmetricSequence.from_free(self.n, [1 if model[v - 1] > 0 else -1 for v in block])
            for block in self.blocks()
        ))


@dataclass
class SatInstance:
    num_vars: int
    clauses: list
    var_map: VariableMap = field(default=None, compare=False)
    shifted: tuple = ()  # the members with an E3 unit clause, A to D as 0 to 3

    def images(self, model) -> list:
        """Every image of `model`, a tuple of one literal per variable, under
        the half shifts of the `shifted` members, `model` itself first: each
        shift reverses the member's literals over its range of variables."""
        orbit = [model]
        for role in self.shifted:
            block = self.var_map.blocks()[role]
            pairs = list(zip(block, reversed(block)))
            lo, hi = block.start - 1, block.stop - 1
            orbit += [m[:lo] + tuple(v if m[w - 1] > 0 else -v for v, w in pairs) + m[hi:] for m in orbit]
        return orbit


def _entry_clauses(value: int, variables: tuple, m: int) -> list:
    if m == 2:
        x, y = variables
        if value == 2:
            return [(x,), (y,)]
        if value == 0:
            return [(x, y), (-x, -y)]
        if value == -2:
            return [(-x,), (-y,)]
    else:
        x, y, z = variables
        if value == 3:
            return [(x,), (y,), (z,)]
        if value == 1:
            return [(-x, -y, -z), (x, y), (x, z), (y, z)]
        if value == -1:
            return [(x, y, z), (-x, -y), (-x, -z), (-y, -z)]
        if value == -3:
            return [(-x,), (-y,), (-z,)]
    raise ValueError(f"compressed entry {value} illegal for factor {m}")


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
            # a pattern's literals share one sign, so no clause is a tautology;
            # two source entries folding to one variable repeat a literal
            for lits in _entry_clauses(int(value), variables, m):
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
    lines = [f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    for clause in inst.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- instance-level deduplication --------------------------------------------


def dedupe_instances(mcs, n: int) -> tuple:
    """Keep one matched compression per equivalence class, in first-seen order.

    Returns (kept, discarded) where discarded pairs each dropped compression
    with the index of its kept representative."""
    mcs = list(mcs)
    if not mcs:
        return [], []
    kept = []
    discarded = []
    by_key = {}
    for mc, form in zip(mcs, canonical_rows(np.stack([mc.rows for mc in mcs]), n)):
        key = form.tobytes()
        if key in by_key:
            discarded.append((mc, by_key[key]))
        else:
            by_key[key] = len(kept)
            kept.append(mc)
    return kept, discarded
