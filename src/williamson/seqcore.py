"""Core sequence algebra: symmetric ±1 sequences, periodic autocorrelation,
power spectra, compression, rowsums, and the exact Williamson check.

All correctness-critical quantities (PAF values, match keys, the Williamson
condition) are exact integers.  Floating point appears only in power spectral
densities, which are used for filtering against the 4n bound, never for
equality decisions.
"""
from __future__ import annotations

from functools import lru_cache
from operator import mul

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


class SymmetricSequence:
    """A ±1 sequence of order n with x[i] == x[n-i] for 1 <= i < n.

    Only the floor(n/2)+1 free entries x[0..n//2] are stored; the full
    sequence is expanded on demand.
    """

    __slots__ = ("order", "free", "_full")

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
        self._full = entries

    @classmethod
    def from_free(cls, order: int, free) -> "SymmetricSequence":
        """Build from the free entries x[0..order//2]."""
        free = tuple(int(v) for v in free)
        if len(free) != order // 2 + 1:
            raise ValueError(f"expected {order // 2 + 1} free entries, got {len(free)}")
        self = object.__new__(cls)
        for v in free:
            if v not in (-1, 1):
                raise ValueError(f"entry {v} is not +1 or -1")
        self.order = order
        self.free = free
        self._full = None
        return self

    @property
    def entries(self) -> tuple:
        if self._full is None:
            free = self.free
            self._full = tuple(free[i] for i in fold_indices(self.order))
        return self._full

    def negate(self) -> "SymmetricSequence":
        return SymmetricSequence.from_free(self.order, tuple(-v for v in self.free))

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
        members = []
        for x in (a, b, c, d):
            if not isinstance(x, SymmetricSequence):
                x = SymmetricSequence(x)
            members.append(x)
        a, b, c, d = members
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


def psd(seq) -> np.ndarray:
    """Power spectral density: |DFT(A)(s)|^2 for s = 0..n-1."""
    a = np.asarray(_entries_of(seq), dtype=np.float64)
    if a.size == 0:
        raise ValueError("empty sequence")
    spec = np.fft.fft(a)
    return (spec.real * spec.real + spec.imag * spec.imag)


def psd_halfspectrum(values: np.ndarray) -> np.ndarray:
    """PSD at s = 0..n//2 for each row of a float matrix of sequences."""
    spec = np.fft.rfft(values, axis=-1)
    return spec.real * spec.real + spec.imag * spec.imag


def compress(seq, d: int) -> tuple:
    """m-compression: entry j is sum_t a[j + t*d] for t = 0..m-1, m = n/d.

    The entries lie in {-m, -m+2, ..., m}."""
    a = _entries_of(seq)
    n = len(a)
    if d < 1 or n % d != 0:
        raise ValueError(f"d={d} does not divide order {n}")
    m = n // d
    return tuple(sum(a[j + t * d] for t in range(m)) for j in range(d))


def rowsum(seq) -> int:
    """Sum of the entries."""
    return int(sum(_entries_of(seq)))


def verify_williamson(q: Quadruple) -> bool:
    """Exact check that the four PAF values sum to zero at shifts 1..n//2
    (PAF(s) = PAF(n - s) covers the other shifts).

    Never uses floating point.
    """
    members = q.members if isinstance(q, Quadruple) else tuple(q)
    rows = [_entries_of(x) for x in members]
    n = len(rows[0])
    return all(sum(sum(map(mul, a, a[s:] + a[:s])) for a in rows) == 0 for s in range(1, n // 2 + 1))


# --- text format -----------------------------------------------------------
#
# One sequence per line, '+' for +1 and '-' for -1.  A block is a group of
# consecutive non-blank lines (4 for a quadruple, 8 for an octuple); blocks
# are separated by one blank line.  A line may contain several
# whitespace-separated sequences, each parsed separately.


def format_sequence(seq) -> str:
    return "".join("+" if v == 1 else "-" for v in _entries_of(seq))


def parse_sequence(text: str) -> SymmetricSequence:
    entries = []
    for ch in text.strip():
        if ch == "+":
            entries.append(1)
        elif ch == "-":
            entries.append(-1)
        else:
            raise ValueError(f"invalid character {ch!r} in sequence")
    return SymmetricSequence(entries)


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
    first = True
    for block in blocks:
        if not first:
            f.write("\n")
        f.write(format_block(block))
        f.write("\n")
        first = False
