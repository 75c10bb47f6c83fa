"""Exact multiplier-ideal computations on normal toric rings.

Everything is integer/rational arithmetic: cones and Newton polyhedra via the
double description method, monomial ideals as lattice antichains, multiplier
ideals by enumeration of a shifted interior region, and a small laboratory
for probing where the subadditivity containment J(ab) ⊆ J(a)J(b) breaks.
"""

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    NotDimension2,
    NotFullDimensional,
    NotInMultiplierIdeal,
    NotInSemigroup,
    NotInterior,
    NotPointed,
    NotQGorenstein,
    RecipeInvalid,
    RingMismatch,
    ToricmultError,
    TooLarge,
    ZeroIdeal,
)
from .geometry import (
    ConvexCertificate,
    Halfspace,
    MembershipReport,
    NewtonPolyhedron,
    PolyCone,
    hull_plus_cone,
    membership,
    relint_certificate,
    verify_certificate,
)
from .rings import (
    ToricRing,
    exponent_pairings,
    ring_from_dual_rays,
    semigroup_points,
)
from .ideals import (
    MonomialIdeal,
    contains_monomial,
    ideal_sum,
    integral_closure,
    minimalize,
    monomial_ideal,
    newton_polyhedron,
    product,
)
from .multiplier import multiplier_ideal, multiplier_membership
from .subadditivity import (
    Construction,
    ConstructionRecipe,
    Decomposition2D,
    RefutationReport,
    SearchConfig,
    SearchHit,
    Side,
    SubadditivityVerdict,
    check_subadditivity,
    decompose_2d,
    exhaustive_refute,
    huneke_swanson_construct,
    search_counterexamples,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigInvalid",
    "Construction",
    "ConstructionRecipe",
    "ConvexCertificate",
    "Decomposition2D",
    "DimensionMismatch",
    "Halfspace",
    "MembershipReport",
    "MonomialIdeal",
    "NewtonPolyhedron",
    "NotDimension2",
    "NotFullDimensional",
    "NotInMultiplierIdeal",
    "NotInSemigroup",
    "NotInterior",
    "NotPointed",
    "NotQGorenstein",
    "PolyCone",
    "RecipeInvalid",
    "RefutationReport",
    "RingMismatch",
    "SearchConfig",
    "SearchHit",
    "Side",
    "SubadditivityVerdict",
    "ToricRing",
    "ToricmultError",
    "TooLarge",
    "ZeroIdeal",
    "check_subadditivity",
    "contains_monomial",
    "decompose_2d",
    "exhaustive_refute",
    "exponent_pairings",
    "huneke_swanson_construct",
    "hull_plus_cone",
    "ideal_sum",
    "integral_closure",
    "membership",
    "minimalize",
    "monomial_ideal",
    "multiplier_ideal",
    "multiplier_membership",
    "newton_polyhedron",
    "product",
    "relint_certificate",
    "ring_from_dual_rays",
    "search_counterexamples",
    "semigroup_points",
    "verify_certificate",
]
