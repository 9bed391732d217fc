"""Exhaustive enumeration of Williamson sequences of orders divisible by 2 or 3.

Pipeline: rowsum decompositions of 4n into four squares, PSD-filtered
candidate generation, m-compression and sorted-join matching, CNF
uncompression, and an all-solutions CDCL solver with a programmatic PSD
callback; plus the doubling and 8-Williamson constructions, Hadamard
assembly, equivalence-class canonicalization, and a brute-force oracle.
"""

__version__ = "0.5.0"

from .seqcore import (
    Quadruple,
    SymmetricSequence,
    compress,
    paf,
    psd,
    rowsum,
    verify_williamson,
)
from .diophantine import decompose_four_squares, sign_fix
from .equivalence import apply_equivalence, canonical_form, dedupe, expand_class
from .constructions import (
    assemble_hadamard,
    double,
    extract_eight_williamson,
    interleave,
    shift_half,
)
from .oracle import brute_force_enumerate, brute_force_uncompress
from .cli import RunConfig, run_enumeration

__all__ = [
    "Quadruple",
    "SymmetricSequence",
    "compress",
    "paf",
    "psd",
    "rowsum",
    "verify_williamson",
    "decompose_four_squares",
    "sign_fix",
    "apply_equivalence",
    "canonical_form",
    "dedupe",
    "expand_class",
    "assemble_hadamard",
    "double",
    "extract_eight_williamson",
    "interleave",
    "shift_half",
    "brute_force_enumerate",
    "brute_force_uncompress",
    "RunConfig",
    "run_enumeration",
]
