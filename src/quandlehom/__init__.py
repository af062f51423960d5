"""Structure-group invariants and second quandle homology of linear
Alexander quandles, computed in exact integer arithmetic.

The quandle on Z/n with twist t is a <| b = t*a + (1-t)*b (t a unit).  Its
structure group embeds into Z^m x| Z/n via per-orbit letter counts plus a
twisted weight; this package implements that normal form, the associated
extension cocycle, and the second quandle homology by three independent
routes that are cross-validated against each other.

The product law of Z^m x| Z/n is written once, in ``PackedElement``; a
(degree, weight) pair is a plain int tuple, its collapse to Z x| Z/n.
``FiniteQuandle(table)``, ``build_conj`` and ``build_core`` check every
quandle axiom; ``build_alexander`` and ``build_takasaki`` build their tables
from formulas and do not re-check them.  The three H2 routes are separate
functions (``h2_closed_form``, ``h2_eisermann``, ``h2_chain_complex``).
"""

from .errors import (
    BadModulusError,
    EmptyRangeError,
    LengthMismatchError,
    NegativeCountError,
    NotAComplexError,
    NotAGroupError,
    NotAUnitError,
    NotInImageError,
    QuandleAxiomError,
    QuandleHomError,
    ShapeMismatchError,
    TableFormatError,
    WordSyntaxError,
)
from .intlinalg import (
    AbelianInvariants,
    IntMatrix,
    SmithForm,
    congruence_kernel_basis,
    hnf_rows,
    homology_invariants,
    invariant_factors,
    kernel_basis,
    multiplicative_order,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
    xgcd,
)
from .quandle import (
    FiniteQuandle,
    LinearAlexanderParams,
    Violation,
    build_alexander,
    build_conj,
    build_core,
    build_takasaki,
    find_violation,
    format_table,
    is_connected,
    orbits,
    parse_table,
)
from .words import (
    PackedElement,
    RewriteStep,
    Word,
    act,
    base_weight,
    canonical_word,
    central_power_degree,
    degree_weight,
    format_word,
    generator,
    parse_word,
    rewrite_trace,
    section,
    word_eval,
)
from .cocycle import (
    KernelVector,
    cocycle_image_basis,
    commutator_form,
    degree_zero_cocycle,
    extension_cocycle,
    kernel_lattice_basis,
)
from .homology import (
    BoundaryPair,
    boundary_matrices,
    h2_chain_complex,
    h2_closed_form,
    h2_eisermann,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "BadModulusError",
    "BoundaryPair",
    "EmptyRangeError",
    "FiniteQuandle",
    "IntMatrix",
    "KernelVector",
    "LengthMismatchError",
    "LinearAlexanderParams",
    "NegativeCountError",
    "NotAComplexError",
    "NotAGroupError",
    "NotAUnitError",
    "NotInImageError",
    "PackedElement",
    "QuandleAxiomError",
    "QuandleHomError",
    "RewriteStep",
    "ShapeMismatchError",
    "SmithForm",
    "TableFormatError",
    "Violation",
    "Word",
    "WordSyntaxError",
    "act",
    "base_weight",
    "boundary_matrices",
    "build_alexander",
    "build_conj",
    "build_core",
    "build_takasaki",
    "canonical_word",
    "central_power_degree",
    "cocycle_image_basis",
    "commutator_form",
    "congruence_kernel_basis",
    "degree_weight",
    "degree_zero_cocycle",
    "extension_cocycle",
    "find_violation",
    "format_table",
    "format_word",
    "generator",
    "h2_chain_complex",
    "h2_closed_form",
    "h2_eisermann",
    "hnf_rows",
    "homology_invariants",
    "invariant_factors",
    "is_connected",
    "kernel_basis",
    "kernel_lattice_basis",
    "multiplicative_order",
    "orbits",
    "parse_table",
    "parse_word",
    "quotient_invariants",
    "rewrite_trace",
    "section",
    "smith_normal_form",
    "solve_integer",
    "word_eval",
    "xgcd",
]
