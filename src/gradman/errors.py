"""Exception types shared across the package."""


class GradmanError(Exception):
    """Base class for all package errors."""


class SignatureMismatch(GradmanError):
    pass


class UnknownGenerator(GradmanError):
    pass


class DegreeOverflow(GradmanError):
    """A product or reduction left the configured degree window."""


class DegreeMismatch(GradmanError):
    pass


class NotAdmissible(GradmanError):
    pass


class UnsupportedXDependence(GradmanError):
    """Operation requires fiberwise-constant comultiplication entries."""


class DvbNotExact(GradmanError):
    pass


class NotInvolutive(GradmanError):
    def __init__(self, message, witness=None, pair=None):
        super().__init__(message)
        self.witness = witness
        self.pair = pair


class NonConstantSymbols(GradmanError):
    """Degree-0 straightening only handles constant symbol matrices."""


class NonPolynomialFlatFrame(GradmanError):
    """No polynomial (unimodular) flat frame exists within the supported scope."""


class HypothesisFailed(GradmanError):
    pass


class NumberTooLong(GradmanError):
    """A coefficient has more digits than Python converts to decimal text."""


class ParseError(GradmanError):
    def __init__(self, message, line=None, col=None):
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col
