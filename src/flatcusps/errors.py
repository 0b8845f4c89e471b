"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotNilpotent(ValueError):
    """Exponential of a non-nilpotent matrix was requested."""


class NotPositiveDefinite(ValueError):
    """A positive definite form was required."""


class HolonomyBound(ValueError):
    """Closure of the generators' linear parts exceeded the allowed order."""


class RankDeficient(ValueError):
    """Pure translations of the group do not span the ambient space."""


class NotFormIsometry(ValueError):
    """A linear map does not preserve the given symmetric form."""


class UnipotentViolation(ValueError):
    """A generator required to be unipotent is not."""


class UnknownName(KeyError):
    """Requested catalog entry does not exist."""

    def __str__(self):
        # KeyError repr-quotes its argument; keep the plain message.
        return self.args[0] if self.args else ""


class ValidationError(ValueError):
    """Malformed external input; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class InvariantViolation(ValueError):
    """An identity the construction guarantees failed to hold."""
