"""Structure-group invariants and second quandle homology of linear
Alexander quandles, computed in exact integer arithmetic.

The quandle on Z/n with twist t is a <| b = t*a + (1-t)*b (t a unit).  Its
structure group embeds into Z^m x| Z/n via per-orbit letter counts plus a
twisted weight; this package implements that normal form, the associated
extension cocycle, and the second quandle homology by three independent
routes that are cross-validated against each other.

The product law of Z^m x| Z/n is written once, in ``PackedElement``, and
a word is folded into it by ``word_eval`` alone: the (degree, weight) pair
of a word is ``word_eval(word).degree, word_eval(word).a``, its collapse to
Z x| Z/n, and a cocycle value or kernel lattice row is a ``PackedElement``
(v, 0).  Cocycle values come from a closed form over residues mod m
(``extension_cocycle``; degree zero is the pairs (0, a), (0, b)), and the
kernel lattice they span has a closed-form basis (``kernel_lattice_basis``);
lattices are compared by the ``invariant_factors`` of their spanning sets.
``FiniteQuandle(table)``, ``build_conj`` and ``build_core`` check every
quandle axiom; ``build_alexander`` and ``build_takasaki`` build their tables
from formulas and do not re-check them.  The three H2 routes are separate
functions (``h2_closed_form``, ``h2_eisermann``, ``h2_chain_complex``); the
pullback and chain routes share only the sparse core of ``homology_invariants``,
applied to a 1 x (m+1) pair and to each orbit block of the boundary maps.
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
    homology_invariants,
    invariant_factors,
    multiplicative_order,
    smith_normal_form,
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
    orbits,
    parse_table,
)
from .words import (
    PackedElement,
    RewriteStep,
    Word,
    act,
    canonical_word,
    format_word,
    generator,
    parse_word,
    rewrite_trace,
    section,
    word_eval,
)
from .cocycle import (
    extension_cocycle,
    kernel_lattice_basis,
)
from .homology import (
    h2_chain_complex,
    h2_closed_form,
    h2_eisermann,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "BadModulusError",
    "EmptyRangeError",
    "FiniteQuandle",
    "IntMatrix",
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
    "build_alexander",
    "build_conj",
    "build_core",
    "build_takasaki",
    "canonical_word",
    "extension_cocycle",
    "find_violation",
    "format_table",
    "format_word",
    "generator",
    "h2_chain_complex",
    "h2_closed_form",
    "h2_eisermann",
    "homology_invariants",
    "invariant_factors",
    "kernel_lattice_basis",
    "multiplicative_order",
    "orbits",
    "parse_table",
    "parse_word",
    "rewrite_trace",
    "section",
    "smith_normal_form",
    "word_eval",
]
