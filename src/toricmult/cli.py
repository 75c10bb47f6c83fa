"""Command-line front end.

Every subcommand reads flags only (no environment variables), prints either a
human-readable text report (default) or a machine-readable JSON document
(--format json), and exits 0 on success / a holding property, 1 on a
mathematical negative (subadditivity fails, a verification check fails, a
refutation target does decompose), 2 on usage or input errors. JSON output is
deterministic byte-for-byte for fixed inputs; elapsed time appears only in
text reports.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Sequence

from .builtin_example import verification_checklist
from .errors import ToricmultError, ConfigInvalid
from .geometry import NewtonPolyhedron
from .ideals import integral_closure, newton_polyhedron, product
from .multiplier import multiplier_ideal
from .problemio import (
    Problem,
    construction_json,
    halfspace_json,
    load_problem,
    load_search_config,
    membership_json,
    parse_point_arg,
    point_json,
    rat_point_json,
    recipe_json,
    render_monomial,
    render_report,
    ring_json,
    _load_json,
)
from .subadditivity import SearchConfig, check_subadditivity, exhaustive_refute, search_counterexamples


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.handler(args)
    except ToricmultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(render_report(report))
    else:
        for line in _TEXT_RENDERERS[report["command"]](report):
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmult",
        description="Exact multiplier-ideal computations on normal toric rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, help_, ideals=0, problem=False):
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
        if problem:
            sp.add_argument("--input", required=True, metavar="FILE",
                            help="problem JSON file (ring + named ideals)")
        if ideals:
            plural = "s" if ideals > 1 else ""
            sp.add_argument("--ideals", required=True, nargs="+", metavar="NAME",
                            help=f"name{plural} of {ideals} ideal{plural} from the problem file")
        sp.set_defaults(handler=handler, ideal_count=ideals)
        return sp

    command("newton", _cmd_newton, "Facets and vertices of an ideal's Newton polyhedron.",
            ideals=1, problem=True)
    command("closure", _cmd_closure, "Minimal generators of an ideal's integral closure.",
            ideals=1, problem=True)
    command("multiplier", _cmd_multiplier, "Minimal generators of an ideal's multiplier ideal.",
            ideals=1, problem=True)
    command("subadd", _cmd_subadd,
            "Check J(a·b) ⊆ J(a)·J(b); exit 1 with witnesses when it fails.",
            ideals=2, problem=True)
    refute = command("refute", _cmd_refute,
                     "Scan all splittings of a target point; exit 0 when none exists.",
                     ideals=2, problem=True)
    refute.add_argument("--target", required=True, metavar="POINT",
                        help="lattice point, e.g. '18,12,2' or 'x^18y^12z^2'")
    verify = command("verify-paper", _cmd_verify_paper,
                     "Replay the packaged counterexample end to end; exit 1 on any mismatch.")
    verify.add_argument("--expect-facets", metavar="FILE",
                        help="JSON fixture overriding the expected facet lists")
    search = command("search", _cmd_search,
                     "Enumerate construction recipes and report subadditivity violations.")
    search.add_argument("--input", metavar="FILE", help="search config JSON file")
    search.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    search.add_argument("--cap", type=int, metavar="N",
                        help="override the candidate cap (max_candidates)")
    search.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; candidates are always evaluated "
                             "serially, so N never changes the work or the output")
    return parser


def _named_ideals(args) -> tuple[Problem, list[str]]:
    problem = load_problem(args.input)
    names = list(args.ideals)
    if len(names) != args.ideal_count:
        raise ConfigInvalid(
            f"{args.command} takes exactly {args.ideal_count} ideal name(s), got {len(names)}"
        )
    for name in names:
        problem.ideal(name)
    return problem, names


def _poly_json(poly: NewtonPolyhedron) -> dict:
    return {
        "facets": [halfspace_json(h) for h in poly.facets],
        "vertices": [point_json(v) for v in poly.vertices],
    }


def _cmd_newton(args) -> tuple[dict, int]:
    problem, (name,) = _named_ideals(args)
    ideal = problem.ideal(name)
    poly = newton_polyhedron(ideal)
    report = {
        "command": "newton",
        "ring": ring_json(problem.ring),
        "ideal": name,
        "generators": [point_json(g) for g in ideal.gens],
        **_poly_json(poly),
    }
    return report, 0


def _cmd_closure(args) -> tuple[dict, int]:
    problem, (name,) = _named_ideals(args)
    ideal = problem.ideal(name)
    closed = integral_closure(ideal)
    report = {
        "command": "closure",
        "ring": ring_json(problem.ring),
        "ideal": name,
        "generators": [point_json(g) for g in ideal.gens],
        "closure_generators": [point_json(g) for g in closed.gens],
        "already_closed": closed == ideal,
    }
    return report, 0


def _cmd_multiplier(args) -> tuple[dict, int]:
    problem, (name,) = _named_ideals(args)
    ideal = problem.ideal(name)
    result = multiplier_ideal(ideal)
    report = {
        "command": "multiplier",
        "ring": ring_json(problem.ring),
        "ideal": name,
        "generators": [point_json(g) for g in ideal.gens],
        "canonical_point": rat_point_json(result.shift),
        "multiplier_generators": [point_json(g) for g in result.ideal.gens],
    }
    return report, 0


def _cmd_subadd(args) -> tuple[dict, int]:
    problem, (name_a, name_b) = _named_ideals(args)
    verdict = check_subadditivity(problem.ideal(name_a), problem.ideal(name_b))
    report = {
        "command": "subadd",
        "ring": ring_json(problem.ring),
        "ideal_a": name_a,
        "ideal_b": name_b,
        "holds": verdict.holds,
        "witnesses": [point_json(w) for w in verdict.witnesses],
        "witness_certificates": [membership_json(c) for c in verdict.certificates],
        "j_ab": [point_json(g) for g in verdict.j_ab.gens],
        "j_a": [point_json(g) for g in verdict.j_a.gens],
        "j_b": [point_json(g) for g in verdict.j_b.gens],
        "j_product": [point_json(g) for g in verdict.j_product.gens],
    }
    return report, 0 if verdict.holds else 1


def _cmd_refute(args) -> tuple[dict, int]:
    problem, (name_a, name_b) = _named_ideals(args)
    target = parse_point_arg(args.target, problem.ring.dim)
    result = exhaustive_refute(target, problem.ideal(name_a), problem.ideal(name_b))
    report = {
        "command": "refute",
        "ring": ring_json(problem.ring),
        "ideal_a": name_a,
        "ideal_b": name_b,
        "target": point_json(result.target),
        "bounds": list(result.bounds),
        "scanned": result.scanned,
        "decompositions": [
            {"alpha": point_json(alpha), "beta": point_json(beta)}
            for alpha, beta in result.decompositions
        ],
    }
    return report, 0 if not result.decompositions else 1


def _parse_facet_fixture(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict) or not set(doc) <= {"a", "b"}:
        raise ConfigInvalid("facet fixture must be an object with keys 'a' and/or 'b'")
    out = {}
    for key, facets in doc.items():
        if not isinstance(facets, list):
            raise ConfigInvalid(f"facet fixture {key!r} must be a list")
        pairs = []
        for entry in facets:
            if (
                not isinstance(entry, dict)
                or set(entry) != {"normal", "offset"}
                or not isinstance(entry["normal"], list)
                or not all(isinstance(c, int) for c in entry["normal"])
                or not isinstance(entry["offset"], int)
            ):
                raise ConfigInvalid(
                    f"facet fixture {key!r} entries need a normal vector and an integer offset"
                )
            pairs.append((tuple(entry["normal"]), entry["offset"]))
        out[key] = tuple(pairs)
    return out


def _cmd_verify_paper(args) -> tuple[dict, int]:
    fixture = _parse_facet_fixture(args.expect_facets) if args.expect_facets else None
    checks = verification_checklist(fixture)
    all_passed = all(c.ok for c in checks)
    report = {
        "command": "verify-paper",
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "all_passed": all_passed,
    }
    return report, 0 if all_passed else 1


def _config_json(config: SearchConfig) -> dict:
    return {
        "dim": config.dim,
        "ray_bound": config.ray_bound,
        "gen_pairing_bound": config.gen_pairing_bound,
        "z_pairing_bound": config.z_pairing_bound,
        "z_height_bound": config.z_height_bound,
        "max_candidates": config.max_candidates,
        "seed": config.seed,
        "explicit_recipes": [recipe_json(r) for r in config.explicit_recipes],
    }


def _cmd_search(args) -> tuple[dict, int]:
    config = load_search_config(args.input) if args.input else SearchConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.cap is not None:
        config = replace(config, max_candidates=args.cap)
    hits = search_counterexamples(config, threads=args.threads)
    report = {
        "command": "search",
        "config": _config_json(config),
        "hits": [
            {
                "construction": construction_json(h.construction),
                "witnesses": [point_json(w) for w in h.verdict.witnesses],
            }
            for h in hits
        ],
        "count": len(hits),
    }
    return report, 0


# ---------------------------------------------------------------------------
# Text rendering (consumes the JSON-native report dicts)
# ---------------------------------------------------------------------------

def _vec(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _mono(v) -> str:
    return render_monomial(v) if len(v) <= 3 else _vec(v)


def _gens(gens) -> str:
    return "<" + ", ".join(_mono(g) for g in gens) + ">" if gens else "<0>"


def _halfspace(h) -> str:
    return f"<{_vec(h['normal'])}, w> >= {h['offset']}"


def _ring_line(report) -> str:
    return "ring: dual cone rays " + ", ".join(_vec(r) for r in report["ring"]["dual_cone_rays"])


def _text_newton(report):
    yield _ring_line(report)
    yield f"ideal {report['ideal']} = {_gens(report['generators'])}"
    yield f"Newton polyhedron: {len(report['facets'])} facets, {len(report['vertices'])} vertices"
    for h in report["facets"]:
        yield "  " + _halfspace(h)
    yield "vertices: " + ", ".join(_vec(v) for v in report["vertices"])


def _text_closure(report):
    yield _ring_line(report)
    yield f"ideal {report['ideal']} = {_gens(report['generators'])}"
    yield f"integral closure = {_gens(report['closure_generators'])}"
    yield "already integrally closed: " + ("yes" if report["already_closed"] else "no")


def _text_multiplier(report):
    yield _ring_line(report)
    yield f"ideal {report['ideal']} = {_gens(report['generators'])}"
    yield "canonical point u0 = " + _vec(report["canonical_point"])
    yield f"multiplier ideal = {_gens(report['multiplier_generators'])}"


def _text_subadd(report):
    yield _ring_line(report)
    yield f"J({report['ideal_a']}·{report['ideal_b']}) = {_gens(report['j_ab'])}"
    yield f"J({report['ideal_a']}) = {_gens(report['j_a'])}"
    yield f"J({report['ideal_b']}) = {_gens(report['j_b'])}"
    yield f"J({report['ideal_a']})·J({report['ideal_b']}) = {_gens(report['j_product'])}"
    yield "subadditivity holds: " + ("yes" if report["holds"] else "no")
    for w, cert in zip(report["witnesses"], report["witness_certificates"]):
        yield f"  witness {_mono(w)} = {_vec(w)}: interior to N(product) but outside the product ideal"
        for facet in cert["facets"]:
            yield f"    {_halfspace(facet)}: value {facet['value']} ({facet['status']})"


def _text_refute(report):
    yield _ring_line(report)
    yield f"target {_vec(report['target'])}, sigma-pairing bounds {_vec(report['bounds'])}"
    yield f"scanned {report['scanned']} lattice points"
    if report["decompositions"]:
        yield f"decompositions found: {len(report['decompositions'])}"
        for d in report["decompositions"]:
            yield f"  alpha = {_vec(d['alpha'])}, beta = {_vec(d['beta'])}"
    else:
        yield "decompositions found: 0 (refutation holds)"


def _text_verify(report):
    for check in report["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        yield f"[{mark}] {check['name']}: {check['detail']}"
    passed = sum(1 for c in report["checks"] if c["ok"])
    yield f"{passed}/{len(report['checks'])} checks passed"


def _text_search(report):
    config = report["config"]
    bounds = ", ".join(
        f"{k}={config[k]}"
        for k in ("dim", "ray_bound", "gen_pairing_bound", "z_pairing_bound",
                  "z_height_bound", "max_candidates", "seed")
    )
    yield f"search over {bounds}; {len(config['explicit_recipes'])} explicit recipe(s)"
    for i, hit in enumerate(report["hits"], 1):
        r = hit["construction"]["recipe"]
        yield (f"hit {i}: base rays " + ", ".join(_vec(v) for v in r["base_ring"]["dual_cone_rays"])
               + f"; i' = {_gens(r['i_prime'])}; j' = {_gens(r['j_prime'])}"
               + f"; r = {_vec(r['r'])}; z = {_vec(r['z_exponent'])}")
        yield ("       a = " + _gens(hit["construction"]["a"])
               + ", b = " + _gens(hit["construction"]["b"])
               + ", rZ = " + _vec(hit["construction"]["r_z"]))
        yield "       escaping generators: " + ", ".join(_vec(w) for w in hit["witnesses"])
    plural = "" if report["count"] == 1 else "s"
    yield f"search complete: {report['count']} counterexample{plural} found"


_TEXT_RENDERERS = {
    "newton": _text_newton,
    "closure": _text_closure,
    "multiplier": _text_multiplier,
    "subadd": _text_subadd,
    "refute": _text_refute,
    "verify-paper": _text_verify,
    "search": _text_search,
}


if __name__ == "__main__":
    raise SystemExit(main())
