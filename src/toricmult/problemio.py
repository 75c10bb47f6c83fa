"""Problem files, search configs, facet fixtures, and report serialization.

A problem file is one JSON document naming a ring and its ideals:

    {"ring": {"dual_cone_rays": [[2, 1, 0], [1, 2, 0], [0, 0, 1]]},
     "ideals": {"a": [[2, 4, 0], [10, 6, 2]],
                "b": ["x^12y^7", [10, 6, 2]]}}

Generator exponents are lists of integers; for rings of dimension at most 3
the monomial-string form over x, y, z is interchangeable with the vector
form. Rational values are rendered as exact strings ("5/16", "3") and never
as decimals; integer-valued fields stay JSON integers. Reports round-trip
through json.loads(render_report(x)) == x.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ConfigInvalid
from .geometry import Halfspace, LatticePoint, MembershipReport
from .ideals import MonomialIdeal, monomial_ideal
from .rings import ToricRing, ring_from_dual_rays
from .subadditivity import Construction, ConstructionRecipe, SearchConfig

_VARS = "xyz"
_MONOMIAL_TERM = re.compile(r"([xyz])(?:\^(-?\d+))?")


class Problem(NamedTuple):
    """A parsed problem file: one ring and its named ideals, as (name, ideal) pairs in file order."""

    ring: ToricRing
    ideals: tuple[tuple[str, MonomialIdeal], ...]

    def ideal(self, name: str) -> MonomialIdeal:
        ideals = dict(self.ideals)
        if name not in ideals:
            known = ", ".join(sorted(ideals)) or "none"
            raise ConfigInvalid(f"no ideal named {name!r} (defined: {known})")
        return ideals[name]


# ---------------------------------------------------------------------------
# Scalars and points
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    """A JSON integer; true and false load as bools, which are ints in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def render_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_monomial(text: str, dim: int) -> LatticePoint:
    """Monomial string over x, y, z to an exponent vector of length dim."""
    if dim > len(_VARS):
        raise ConfigInvalid(f"monomial strings need dimension <= {len(_VARS)}, ring has {dim}")
    s = text.replace("*", "").replace(" ", "")
    if not s:
        raise ConfigInvalid(f"empty monomial {text!r}; write 1 for the unit")
    if s == "1":
        return (0,) * dim
    exponents = [0] * dim
    seen: set[str] = set()
    pos = 0
    while pos < len(s):
        m = _MONOMIAL_TERM.match(s, pos)
        if m is None:
            raise ConfigInvalid(f"cannot parse monomial {text!r} at {s[pos:]!r}")
        var, exp = m.group(1), m.group(2)
        if var in seen:
            raise ConfigInvalid(f"variable {var!r} repeats in monomial {text!r}")
        seen.add(var)
        idx = _VARS.index(var)
        if idx >= dim:
            raise ConfigInvalid(f"monomial {text!r} uses {var!r} but the ring has {dim} variables")
        exponents[idx] = int(exp) if exp is not None else 1
        pos = m.end()
    return tuple(exponents)


def render_monomial(w: Sequence[int]) -> str:
    """Exponent vector to a monomial string; inverse of parse_monomial."""
    if len(w) > len(_VARS):
        raise ConfigInvalid(f"monomial strings need dimension <= {len(_VARS)}, got {len(w)}")
    parts = []
    for var, e in zip(_VARS, w):
        if e == 0:
            continue
        parts.append(var if e == 1 else f"{var}^{e}")
    return "".join(parts) or "1"


def parse_point(value, dim: int, what: str = "point") -> LatticePoint:
    """A lattice point from an integer list or (dim <= 3) a monomial string.

    A refusal shows the value as JSON writes it (true, null), as in the file."""
    if isinstance(value, str):
        return parse_monomial(value, dim)
    if isinstance(value, (list, tuple)):
        if len(value) != dim or not all(_is_int(c) for c in value):
            raise ConfigInvalid(f"{what} must be a list of {dim} integers, got {json.dumps(value)}")
        return tuple(value)
    raise ConfigInvalid(f"{what} must be a list of integers or a monomial string, got {json.dumps(value)}")


def parse_point_arg(text: str, dim: int) -> LatticePoint:
    """A lattice point from a command-line string: '18,12,2' or 'x^18y^12z^2'."""
    if any(v in text for v in _VARS):
        return parse_monomial(text, dim)
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ConfigInvalid(f"cannot parse point {text!r}") from None
    return parse_point(parts, dim, f"point {text!r}")


def format_point(w: Sequence) -> str:
    """(c1, c2, ...) with each entry an exact rational string, as in reports."""
    return "(" + ", ".join(map(render_rational, w)) + ")"


# ---------------------------------------------------------------------------
# Problem files and search configs
# ---------------------------------------------------------------------------

def _require_mapping(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], what: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown {what} keys: {', '.join(sorted(unknown))}")


def _require_keys(doc: dict, required: Sequence[str], what: str) -> None:
    for key in required:
        if key not in doc:
            raise ConfigInvalid(f"{what} needs a {key!r} entry")


def parse_ring(doc) -> ToricRing:
    doc = _require_mapping(doc, "ring")
    _reject_unknown(doc, {"dual_cone_rays"}, "ring")
    rays = doc.get("dual_cone_rays")
    if not isinstance(rays, list) or not rays or not all(isinstance(r, list) for r in rays):
        raise ConfigInvalid("ring.dual_cone_rays must be a nonempty list of integer vectors")
    points = [parse_point(r, len(rays[0]), "dual cone ray") for r in rays]
    for i, p in enumerate(points):
        if not any(p):
            raise ConfigInvalid(f"ring.dual_cone_rays[{i}] is the zero vector")
    return ring_from_dual_rays(points)


def parse_problem(doc) -> Problem:
    doc = _require_mapping(doc, "problem")
    _reject_unknown(doc, {"ring", "ideals"}, "problem")
    _require_keys(doc, ("ring",), "problem")
    ring = parse_ring(doc["ring"])
    ideals_doc = _require_mapping(doc.get("ideals", {}), "ideals")
    ideals = []
    for name, gens in ideals_doc.items():
        if not isinstance(gens, list):
            raise ConfigInvalid(f"ideal {name!r} must be a list of generators")
        points = [parse_point(g, ring.dim, f"generator of {name!r}") for g in gens]
        ideals.append((name, monomial_ideal(ring, points)))
    return Problem(ring, tuple(ideals))


def load_problem(path: str) -> Problem:
    return parse_problem(_load_json(path))


def parse_recipe(doc) -> ConstructionRecipe:
    doc = _require_mapping(doc, "recipe")
    keys = ("base_ring", "i_prime", "j_prime", "r", "z_exponent")
    _reject_unknown(doc, set(keys), "recipe")
    _require_keys(doc, keys, "recipe")
    ring = parse_ring(doc["base_ring"])
    def ideal_of(key):
        gens = doc[key]
        if not isinstance(gens, list) or not gens:
            raise ConfigInvalid(f"recipe {key} must be a nonempty generator list")
        return monomial_ideal(ring, [parse_point(g, ring.dim, key) for g in gens])
    return ConstructionRecipe(
        ring,
        ideal_of("i_prime"),
        ideal_of("j_prime"),
        parse_point(doc["r"], ring.dim, "r"),
        parse_point(doc["z_exponent"], ring.dim + 1, "z_exponent"),
    )


_CONFIG_KEYS = SearchConfig._fields


def parse_search_config(doc) -> SearchConfig:
    doc = _require_mapping(doc, "search config")
    _reject_unknown(doc, set(_CONFIG_KEYS), "search config")
    kwargs = {}
    for key in _CONFIG_KEYS:
        if key not in doc or key == "explicit_recipes":
            continue
        value = doc[key]
        nullable = key == "max_candidates"
        if not (nullable and value is None or _is_int(value)):
            raise ConfigInvalid(f"search config {key} must be an integer" + (" or null" if nullable else ""))
        kwargs[key] = value
    recipes = doc.get("explicit_recipes", [])
    if not isinstance(recipes, list):
        raise ConfigInvalid("explicit_recipes must be a list")
    kwargs["explicit_recipes"] = tuple(parse_recipe(r) for r in recipes)
    return SearchConfig(**kwargs)


def search_config_json(config: SearchConfig) -> dict:
    """The config as a JSON object on the keys parse_search_config reads back."""
    doc = {key: getattr(config, key) for key in _CONFIG_KEYS}
    doc["explicit_recipes"] = [recipe_json(r) for r in config.explicit_recipes]
    return doc


def load_search_config(path: str) -> SearchConfig:
    return parse_search_config(_load_json(path))


def load_facet_fixture(path: str, dim: int) -> dict[str, tuple[tuple[LatticePoint, int], ...]]:
    """Expected facets for verify-paper: (normal, offset) pairs under keys "a" and/or "b".

    Every normal must be a list of dim integers, the dimension of the ring.
    """
    doc = _require_mapping(_load_json(path), "facet fixture")
    _reject_unknown(doc, {"a", "b"}, "facet fixture")
    out = {}
    for key, facets in doc.items():
        if not isinstance(facets, list):
            raise ConfigInvalid(f"facet fixture {key!r} must be a list")
        what = f"facet fixture {key!r} entry"
        pairs = []
        for entry in facets:
            entry = _require_mapping(entry, what)
            _reject_unknown(entry, {"normal", "offset"}, what)
            _require_keys(entry, ("normal", "offset"), what)
            if not isinstance(entry["normal"], list) or not _is_int(entry["offset"]):
                raise ConfigInvalid(f"{what} needs a normal list of {dim} integers and an integer offset")
            pairs.append((parse_point(entry["normal"], dim, f"{what} normal"), entry["offset"]))
        out[key] = tuple(pairs)
    return out


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigInvalid(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigInvalid(f"{path} nests too deeply to parse") from None


# ---------------------------------------------------------------------------
# Report payloads (JSON-native values only: int, str, bool, list, dict)
# ---------------------------------------------------------------------------

def point_json(w: Sequence[int]) -> list[int]:
    return [int(c) for c in w]


def rat_point_json(p: Sequence) -> list[str]:
    return [render_rational(c) for c in p]


def halfspace_json(h: Halfspace) -> dict:
    return {"normal": point_json(h.normal), "offset": h.offset}


def ring_json(ring: ToricRing) -> dict:
    return {"dual_cone_rays": [point_json(r) for r in ring.dual_rays]}


def membership_json(report: MembershipReport) -> dict:
    facets = []
    for h, value in report.pairings:
        status = "violated" if value < h.offset else ("tight" if value == h.offset else "strict")
        entry = halfspace_json(h)
        entry["value"] = render_rational(value)
        entry["status"] = status
        facets.append(entry)
    return {
        "contained": report.contained,
        "mode": "interior" if report.strict else "closed",
        "facets": facets,
    }


def recipe_json(recipe: ConstructionRecipe) -> dict:
    return {
        "base_ring": ring_json(recipe.base_ring),
        "i_prime": [point_json(g) for g in recipe.i_prime.gens],
        "j_prime": [point_json(g) for g in recipe.j_prime.gens],
        "r": point_json(recipe.r),
        "z_exponent": point_json(recipe.z_exponent),
    }


def construction_json(built: Construction) -> dict:
    return {
        "recipe": recipe_json(built.recipe),
        "ring": ring_json(built.ring),
        "a": [point_json(g) for g in built.a.gens],
        "b": [point_json(g) for g in built.b.gens],
        "r_z": point_json(built.r_z),
        "a_integrally_closed": built.a_integrally_closed,
        "b_integrally_closed": built.b_integrally_closed,
        "rz_in_product_of_closures": built.rz_in_product_of_closures,
    }


def render_report(report: dict) -> str:
    """Deterministic JSON text for a report dict (already JSON-native)."""
    return json.dumps(report, indent=2) + "\n"
