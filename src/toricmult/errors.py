"""Exception types raised by toricmult operations."""


class ToricmultError(Exception):
    """Base class for all toricmult errors."""


class NotFullDimensional(ToricmultError):
    """Cone or polyhedron does not span the ambient space."""


class NotPointed(ToricmultError):
    """Cone contains a line."""


class DimensionMismatch(ToricmultError):
    """Inputs live in different ambient dimensions."""


class NotInterior(ToricmultError):
    """Point is not in the relative interior of the polyhedron."""


class NotInSemigroup(ToricmultError):
    """Lattice point is not a monomial exponent of the ring."""


class RingMismatch(ToricmultError):
    """Operands belong to different toric rings."""


class ZeroIdeal(ToricmultError):
    """Operation undefined for the zero ideal."""


class NotQGorenstein(ToricmultError):
    """Ring admits no canonical point, so multiplier ideals are undefined here."""


class NotDimension2(ToricmultError):
    """Operation only defined for two-dimensional rings."""


class NotInMultiplierIdeal(ToricmultError):
    """Monomial is not in the multiplier ideal it was claimed to belong to."""


class RecipeInvalid(ToricmultError):
    """Construction recipe violates one of its invariants."""


class ConfigInvalid(ToricmultError):
    """Problem file or search configuration is malformed."""


class TooLarge(ToricmultError):
    """Computation would enumerate more points than the machine can index."""
