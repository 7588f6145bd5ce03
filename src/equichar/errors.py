"""Exception types shared across the package."""


class EquicharError(Exception):
    """Base class for every error this package raises deliberately. Each
    subclass names, in `stage`, the pipeline stage its failures come from."""

    stage: str | None = None


class DimensionMismatch(EquicharError):
    """Matrix shapes are incompatible with the requested operation."""

    stage = "matrix arithmetic"


class NonUnimodularGenerator(EquicharError):
    """A generator does not have determinant +1 or -1."""

    stage = "group construction"


class OrderCapExceeded(EquicharError):
    """Group closure grew past the configured order cap, or would: a
    generator or a product of two has infinite order."""

    stage = "group construction"


class GroupMismatch(EquicharError):
    """Two class functions live on different groups."""

    stage = "class functions"


class NotASubgroup(EquicharError):
    """An element subset is not closed under the group operation."""

    stage = "class functions"


class ValidationFailed(EquicharError):
    """A character table failed a structural validation check."""

    stage = "character table validation"

    def __init__(self, relation: str, detail: str = ""):
        self.relation = relation
        msg = f"character table validation failed: {relation}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PrimeSearchFailed(EquicharError):
    """No suitable prime was found for the modular character computation."""

    stage = "character table computation"


class NoMatch(EquicharError):
    """A class function does not match any table row."""

    stage = "character table lookup"


class NonRationalCoefficient(EquicharError):
    """A row's class-weighted sum over a Galois family is not rational: the
    table breaks the power-map rule, as one changed after validation can."""

    stage = "multiplicity assembly"


class NotLinearCharacter(EquicharError):
    """The requested operation needs a degree-1 character."""

    stage = "orbit counting"


class NotACharacter(EquicharError):
    """A class function expected to be a character row is not in the table."""

    stage = "reciprocity character"


class EnumerationCapExceeded(EquicharError):
    """q**rank exceeds the point-enumeration guardrail."""

    stage = "oracle enumeration"


class UnknownExample(EquicharError):
    """No built-in problem with the requested name."""

    stage = "problem input"


class ParseError(EquicharError):
    """An input file could not be read or decoded."""

    stage = "problem input"


class ValidationError(EquicharError):
    """An input file decoded fine but violates the problem schema."""

    stage = "problem input"


class CertificationFailed(EquicharError):
    """An exact result failed its certificate: the computation is at fault."""

    stage = "certification"
