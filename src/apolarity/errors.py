"""Exception types shared across the toolkit.

Every error class names the module it reports from, as a class keyword
(`class X(ApolarityError, origin="poly")`); the CLI prints errors as
`error: <origin>.<Name>: <message>`. A class without an origin cannot be
defined.
"""


class ApolarityError(Exception):
    """Base class for every error raised by this package."""

    origin = "apolarity"

    def __init_subclass__(cls, *, origin: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.origin = origin


class ZeroInversion(ApolarityError, origin="fields"):
    """Inversion of the zero element."""


class NotInvertible(ApolarityError, origin="fields"):
    """Inversion failed because the modulus split; carries the discovered factor."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class InvalidExtension(ApolarityError, origin="fields"):
    """Declared minimal polynomial is not monic, constant, or not squarefree."""


class VarSetMismatch(ApolarityError, origin="poly"):
    """Operands built over different variable sets."""


class FieldMismatch(ApolarityError, origin="poly"):
    """Operands built over different coefficient fields."""


class NonHomogeneous(ApolarityError, origin="poly"):
    """A homogeneous form was required."""


class ZeroForm(ApolarityError, origin="poly"):
    """The zero polynomial was passed where a nonzero form is required."""


class AmbientMismatch(ApolarityError, origin="linalg"):
    """Subspace or matrix operands live in different ambient dimensions."""


class DuplicatePoint(ApolarityError, origin="bounds"):
    """Two projective points coincide after normalization."""


class EmptyGeneratorList(ApolarityError, origin="apolar"):
    """An ideal operation received no generators."""


class DegreeMismatch(ApolarityError, origin="apolar"):
    """Generators or operands do not share the required degree."""


class TNotInIdeal(ApolarityError, origin="bounds"):
    """The chosen form t does not lie in the degree-e piece of the ideal."""


class EOutOfRange(ApolarityError, origin="bounds"):
    """The requested e is outside the admissible range."""


class PointsNotApolar(ApolarityError, origin="bounds"):
    """A point set fails the apolarity containment I_X within the annihilator."""


class NotBinary(ApolarityError, origin="families"):
    """A form in two essential variables was required."""


class NotMonomial(ApolarityError, origin="families"):
    """A single monomial was required."""


class ParameterOutOfRange(ApolarityError, origin="families"):
    """A family parameter violates its constraint."""


class NotCIShape(ApolarityError, origin="families"):
    """The annihilator is not generated by a length-(n+1) regular sequence as required."""


class HypothesisViolated(ApolarityError, origin="families"):
    """A theorem hypothesis needed for a cited value does not hold."""


class NOutOfRange(ApolarityError, origin="families"):
    """The requested family size n is outside the supported range."""


class MixedDegrees(ApolarityError, origin="strassen"):
    """Summands of different degrees cannot be combined."""


class UnknownVariable(ApolarityError, origin="parser"):
    """An expression used a variable outside the declared variable set."""


class ParseError(ApolarityError, origin="parser"):
    """Expression text violates the grammar; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
