"""Exception hierarchy shared by all quandlehom modules."""


class QuandleHomError(Exception):
    """Base class for all library errors."""

    #: short machine-readable code, used verbatim in CLI error reports
    code = "Error"


class NotAUnitError(QuandleHomError):
    """The twist parameter is not invertible modulo n."""

    code = "NotAUnit"


class NotAGroupError(QuandleHomError):
    """A multiplication table fails the group axioms."""

    code = "NotAGroup"


class QuandleAxiomError(QuandleHomError):
    """An operation table fails a quandle axiom.

    Carries the name of the violated axiom and the witness indices.
    """

    code = "AxiomViolation"

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(f"{axiom} violated at {self.witness}")


class TableFormatError(QuandleHomError):
    """A quandle table file is malformed (shape or entry range)."""

    code = "TableFormat"


class WordSyntaxError(QuandleHomError):
    """A word string does not match the `e<color>[^<exp>]` token syntax."""

    code = "WordSyntax"


class LengthMismatchError(QuandleHomError):
    """An abelianization vector has the wrong number of coordinates."""

    code = "LengthMismatch"


class NotInImageError(QuandleHomError):
    """A packed pair (v, a) is not realized by any structure-group element."""

    code = "NotInImage"


class ShapeMismatchError(QuandleHomError):
    """Matrix shapes do not conform for the requested operation."""

    code = "ShapeMismatch"


class NotAComplexError(QuandleHomError):
    """Boundary maps do not compose to zero."""

    code = "NotAComplex"


class EmptyRangeError(QuandleHomError):
    """A requested range of moduli holds no quandle (n-max below 1)."""

    code = "EmptyRange"


class BadModulusError(NotAUnitError):
    """The modulus is below 1, so Z/n holds no quandle.

    A subclass of NotAUnitError, which callers caught for this case before
    it had a code of its own.
    """

    code = "BadModulus"


class NegativeCountError(QuandleHomError):
    """A sample count is negative."""

    code = "NegativeCount"
