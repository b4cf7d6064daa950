"""Error types raised by the algebra and linkage layers.

Every error is a ValueError subclass so callers that only care about
"bad input" can catch one base class.
"""


class KinematicsError(ValueError):
    """Base class for all errors raised by this package."""


class NotADisplacement(KinematicsError):
    """Dual quaternion has a non-real norm and does not act on points."""


class ZeroPrimal(KinematicsError):
    """Primal part vanishes; the element is not invertible and cannot act."""


class NotARotation(KinematicsError):
    """Axis extraction requires a rotation quaternion."""


class NonInvertibleLeader(KinematicsError):
    """Polynomial division requires a divisor whose leading coefficient is invertible."""


class NonGeneric(KinematicsError):
    """Quadratic right-factor extraction hit a remainder with non-invertible leader."""


class NotADivisor(KinematicsError):
    """The given real quadratic does not right-divide the norm polynomial (or is not irreducible)."""


class DegenerateParams(KinematicsError):
    """Motion parameters violate a non-degeneracy requirement (a must be nonzero)."""


class SingularChoice(KinematicsError):
    """Free parameters hit a vanishing denominator of the factorization formulas."""


class ClosureFailure(KinematicsError):
    """The two chains do not parameterize the same motion."""


class NotRotational(KinematicsError):
    """Linkage synthesis needs every linear factor to have a rotation root."""


class MalformedInput(KinematicsError):
    """An input file is not JSON, misses a field, or holds a field of the wrong type.

    A float where an exact scalar is required counts as a wrong type.
    """
