"""Core sequence algebra: symmetric ±1 sequences, periodic autocorrelation,
power spectra, rowsums, and the exact Williamson check.

All correctness-critical quantities (PAF values, match keys, the Williamson
condition) are exact integers.  Floating point appears only in power spectral
densities, which are used for filtering against the 4n bound, never for
equality decisions; every PSD in the package comes from `cosine_table`.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

EPSILON_DEFAULT = 1e-2


def psd_bound(n: int) -> float:
    """The bound every PSD value of order n is tested against: 4n, with
    EPSILON_DEFAULT of slack for floating-point error."""
    return 4 * n + EPSILON_DEFAULT


@lru_cache(maxsize=None)
def fold_indices(n: int) -> tuple:
    """The symmetric fold: entry i of a symmetric sequence of order n is its
    free entry min(i, n - i), for i = 0..n-1."""
    return tuple(i if i <= n // 2 else n - i for i in range(n))


@lru_cache(maxsize=None)
def cosine_table(n: int) -> np.ndarray:
    """Entry (j, k) is w_j cos(2 pi j k / n), j, k = 0..n//2, w_j the count
    of entries that fold to free entry j: a symmetric sequence's free entries
    times this cached, read-only table give its real DFT A(0..n//2)."""
    f = n // 2 + 1
    jk = np.arange(f)[:, None] * np.arange(f) % n
    table = np.bincount(fold_indices(n))[:, None] * np.cos(2 * np.pi / n * jk)
    table.setflags(write=False)
    return table


class SymmetricSequence:
    """A ±1 sequence of order n with x[i] == x[n-i] for 1 <= i < n: its
    `entries`, and its floor(n/2)+1 free entries x[0..n//2] as `free`."""

    __slots__ = ("order", "free", "entries")

    def __init__(self, entries):
        entries = tuple(int(v) for v in entries)
        n = len(entries)
        if n == 0:
            raise ValueError("empty sequence")
        for v in entries:
            if v not in (-1, 1):
                raise ValueError(f"entry {v} is not +1 or -1")
        for i in range(1, n):
            if entries[i] != entries[n - i]:
                raise ValueError(f"not symmetric at index {i}")
        self.order = n
        self.free = entries[: n // 2 + 1]
        self.entries = entries

    @classmethod
    def from_free(cls, order: int, free) -> "SymmetricSequence":
        """Build from the free entries x[0..order//2]."""
        free = tuple(free)
        if len(free) != order // 2 + 1:
            raise ValueError(f"expected {order // 2 + 1} free entries, got {len(free)}")
        return cls(free[i] for i in fold_indices(order))

    def __eq__(self, other):
        if not isinstance(other, SymmetricSequence):
            return NotImplemented
        return self.order == other.order and self.free == other.free

    def __hash__(self):
        return hash((self.order, self.free))

    def __repr__(self):
        return f"SymmetricSequence({format_sequence(self)!r})"


class Quadruple:
    """Four symmetric sequences of equal order; a Williamson candidate."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = (x if isinstance(x, SymmetricSequence) else SymmetricSequence(x) for x in (a, b, c, d))
        if not (a.order == b.order == c.order == d.order):
            raise ValueError("members must have equal order")
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def order(self) -> int:
        return self.a.order

    @property
    def members(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        if not isinstance(other, Quadruple):
            return NotImplemented
        return self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "Quadruple(%s)" % ", ".join(format_sequence(x) for x in self.members)


def _entries_of(seq) -> tuple:
    if isinstance(seq, SymmetricSequence):
        return seq.entries
    return tuple(int(v) for v in seq)


def paf(seq) -> tuple:
    """Periodic autocorrelation: paf(A)[s] = sum_k a[k] * a[(k+s) mod n].

    Exact integer arithmetic; returns a length-n tuple.
    """
    a = _entries_of(seq)
    n = len(a)
    if n == 0:
        raise ValueError("empty sequence")
    return tuple(sum(a[k] * a[(k + s) % n] for k in range(n)) for s in range(n))


def rowsum(seq) -> int:
    """Sum of the entries."""
    return int(sum(_entries_of(seq)))


def verify_williamson(q: Quadruple) -> bool:
    """Exact check that the PAF values of the k members (four, or eight for
    an octuple) sum to zero at shifts 1..n//2 (PAF(s) = PAF(n - s) covers the
    rest); an entry other than ±1 is a ValueError.  With b the n-bit integer
    with a 1 for each -1 entry, PAF(s) = n - 2 popcount(b ^ rot_s(b)); one
    integer holds each member as a 2n-bit field b << n | b, whose low n bits
    shifted right by s are rot_s(b)."""
    rows = [_entries_of(x) for x in q]
    n, bit = len(rows[0]), {1: "0", -1: "1"}.__getitem__
    if any(len(a) != n for a in rows):
        raise ValueError("members must have equal length")
    try:
        bits = int("".join("".join(map(bit, a)) * 2 for a in rows), 2)
    except KeyError as e:
        raise ValueError(f"entry {e.args[0]!r} is not +1 or -1") from None
    low = int(("0" * n + "1" * n) * len(rows), 2)
    return all(2 * ((bits ^ bits >> s) & low).bit_count() == len(rows) * n for s in range(1, n // 2 + 1))


# --- text format -----------------------------------------------------------
#
# One sequence per line, '+' for +1 and '-' for -1.  A block is a group of
# consecutive non-blank lines (4 for a quadruple, 8 for an octuple); blocks
# are separated by one blank line.  A line may contain several
# whitespace-separated sequences, each parsed separately.


def format_sequence(seq) -> str:
    return "".join("+" if v == 1 else "-" for v in _entries_of(seq))


def parse_sequence(text: str) -> SymmetricSequence:
    signs = {"+": 1, "-": -1}
    for ch in text.strip():
        if ch not in signs:
            raise ValueError(f"invalid character {ch!r} in sequence")
    return SymmetricSequence(signs[ch] for ch in text.strip())


def parse_blocks(lines) -> list:
    """Parse '+'/'-' lines into blocks of SymmetricSequence.

    Raises ValueError with a 1-based line number on malformed input.
    """
    blocks, current = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        for field in line.split():
            try:
                current.append(parse_sequence(field))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
    if current:
        blocks.append(current)
    return blocks


def read_quadruples(lines) -> list:
    """Parse blocks of 4 sequences into Quadruples (line-numbered errors)."""
    out = []
    for i, block in enumerate(parse_blocks(lines), start=1):
        if len(block) != 4:
            raise ValueError(f"block {i}: expected 4 sequences, got {len(block)}")
        try:
            out.append(Quadruple(*block))
        except ValueError as e:
            raise ValueError(f"block {i}: {e}") from None
    return out


def format_block(seqs) -> str:
    return "\n".join(format_sequence(x) for x in seqs)


def write_blocks(f, blocks) -> None:
    for i, block in enumerate(blocks):  # one blank line between blocks
        f.write(("\n" if i else "") + format_block(block) + "\n")
