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
import functools
import re
import sys
import time
from typing import Sequence

from .builtin_example import RING_DUAL_RAYS, verification_checklist
from .errors import ToricmultError, ConfigInvalid
from .ideals import MonomialIdeal, integral_closure, newton_polyhedron
from .multiplier import multiplier_ideal
from .problemio import (
    construction_json,
    format_point,
    halfspace_json,
    load_facet_fixture,
    load_problem,
    load_search_config,
    membership_json,
    parse_point_arg,
    point_json,
    rat_point_json,
    render_monomial,
    render_report,
    ring_json,
    search_config_json,
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
        for line in args.render(report):
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")
    return code


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one `error:` line, without the usage block. No option name
    starts with '-' and a digit, so an argument that does, such as the point -1,0,3, is
    read as a value, as argparse reads a negative number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricmult",
        description="Exact multiplier-ideal computations on normal toric rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, render, help_, ideals=0):
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
        if ideals:
            sp.add_argument("--input", required=True, metavar="FILE",
                            help="problem JSON file (ring + named ideals)")
            plural = "s" if ideals > 1 else ""
            sp.add_argument("--ideals", required=True, nargs=ideals, metavar="NAME",
                            help=f"name{plural} of {ideals} ideal{plural} from the problem file")
        sp.set_defaults(handler=handler, render=render)
        return sp

    command("newton", _cmd_newton, _text_newton, "Facets and vertices of an ideal's Newton polyhedron.", ideals=1)
    command("closure", _cmd_closure, _text_closure, "Minimal generators of an ideal's integral closure.", ideals=1)
    command("multiplier", _cmd_multiplier, _text_multiplier, "Minimal generators of an ideal's multiplier ideal.",
            ideals=1)
    command("subadd", _cmd_subadd, _text_subadd,
            "Check J(a·b) ⊆ J(a)·J(b); exit 1 with witnesses when it fails.", ideals=2)
    refute = command("refute", _cmd_refute, _text_refute,
                     "Scan all splittings of a target point; exit 0 when none exists.", ideals=2)
    refute.add_argument("--target", required=True, metavar="POINT",
                        help="lattice point, e.g. '18,12,2' or 'x^18y^12z^2'")
    verify = command("verify-paper", _cmd_verify_paper, _text_verify,
                     "Replay the packaged counterexample end to end; exit 1 on any mismatch.")
    verify.add_argument("--expect-facets", metavar="FILE",
                        help="JSON fixture overriding the expected facet lists")
    search = command("search", _cmd_search, _text_search,
                     "Enumerate construction recipes and report subadditivity violations.")
    search.add_argument("--input", metavar="FILE", help="search config JSON file")
    search.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    search.add_argument("--cap", type=int, metavar="N",
                        help="override the candidate cap (max_candidates)")
    search.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; candidates are always evaluated "
                             "serially, so N never changes the work or the output")
    return parser


def _one_ideal(args) -> tuple[MonomialIdeal, dict]:
    """The named ideal, and the report fields every one-ideal command starts with."""
    problem, (name,) = load_problem(args.input), args.ideals
    ideal = problem.ideal(name)
    return ideal, {
        "command": args.command,
        "ring": ring_json(problem.ring),
        "ideal": name,
        "generators": [point_json(g) for g in ideal.gens],
    }


def _two_ideals(args) -> tuple[MonomialIdeal, MonomialIdeal, dict]:
    """The two named ideals, and the report fields every two-ideal command starts with."""
    problem, (name_a, name_b) = load_problem(args.input), args.ideals
    return problem.ideal(name_a), problem.ideal(name_b), {
        "command": args.command,
        "ring": ring_json(problem.ring),
        "ideal_a": name_a,
        "ideal_b": name_b,
    }


def _cmd_newton(args) -> tuple[dict, int]:
    ideal, report = _one_ideal(args)
    poly = newton_polyhedron(ideal)
    report["facets"] = [halfspace_json(h) for h in poly.facets]
    report["vertices"] = [point_json(v) for v in poly.vertices]
    return report, 0


def _cmd_closure(args) -> tuple[dict, int]:
    ideal, report = _one_ideal(args)
    closed = integral_closure(ideal)
    report["closure_generators"] = [point_json(g) for g in closed.gens]
    report["already_closed"] = closed == ideal
    return report, 0


def _cmd_multiplier(args) -> tuple[dict, int]:
    ideal, report = _one_ideal(args)
    gens = multiplier_ideal(ideal).gens  # raises first when the ring has no u0
    report["canonical_point"] = rat_point_json(ideal.ring.canonical_shift())
    report["multiplier_generators"] = [point_json(g) for g in gens]
    return report, 0


def _cmd_subadd(args) -> tuple[dict, int]:
    a, b, report = _two_ideals(args)
    verdict = check_subadditivity(a, b)
    report["holds"] = verdict.holds
    report["witnesses"] = [point_json(w) for w in verdict.witnesses]
    report["witness_certificates"] = [membership_json(c) for c in verdict.certificates]
    report["j_ab"] = [point_json(g) for g in verdict.j_ab.gens]
    report["j_a"] = [point_json(g) for g in verdict.j_a.gens]
    report["j_b"] = [point_json(g) for g in verdict.j_b.gens]
    report["j_product"] = [point_json(g) for g in verdict.j_product.gens]
    return report, 0 if verdict.holds else 1


def _cmd_refute(args) -> tuple[dict, int]:
    a, b, report = _two_ideals(args)
    result = exhaustive_refute(parse_point_arg(args.target, a.ring.dim), a, b)
    report["target"] = point_json(result.target)
    report["bounds"] = list(result.bounds)
    report["scanned"] = result.scanned
    report["decompositions"] = [
        {"alpha": point_json(alpha), "beta": point_json(beta)} for alpha, beta in result.decompositions
    ]
    return report, 0 if not result.decompositions else 1


def _cmd_verify_paper(args) -> tuple[dict, int]:
    fixture = load_facet_fixture(args.expect_facets, len(RING_DUAL_RAYS[0])) if args.expect_facets else None
    checks = verification_checklist(fixture)
    all_passed = all(c.ok for c in checks)
    report = {
        "command": "verify-paper",
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "all_passed": all_passed,
    }
    return report, 0 if all_passed else 1


def _cmd_search(args) -> tuple[dict, int]:
    if args.threads < 1:
        raise ConfigInvalid("threads must be at least 1")
    config = load_search_config(args.input) if args.input else SearchConfig()
    if args.seed is not None:
        config = config._replace(seed=args.seed)
    if args.cap is not None:
        config = config._replace(max_candidates=args.cap)
    hits = search_counterexamples(config)
    report = {
        "command": "search",
        "config": search_config_json(config),
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

def _mono(v) -> str:
    return render_monomial(v) if len(v) <= 3 else format_point(v)


def _gens(gens) -> str:
    return "<" + ", ".join(_mono(g) for g in gens) + ">" if gens else "<0>"


def _halfspace(h) -> str:
    return f"<{format_point(h['normal'])}, w> >= {h['offset']}"


def _ring_line(report) -> str:
    return "ring: dual cone rays " + ", ".join(format_point(r) for r in report["ring"]["dual_cone_rays"])


def _text_newton(report):
    yield _ring_line(report)
    yield f"ideal {report['ideal']} = {_gens(report['generators'])}"
    yield f"Newton polyhedron: {len(report['facets'])} facets, {len(report['vertices'])} vertices"
    for h in report["facets"]:
        yield "  " + _halfspace(h)
    yield "vertices: " + ", ".join(format_point(v) for v in report["vertices"])


def _text_closure(report):
    yield _ring_line(report)
    yield f"ideal {report['ideal']} = {_gens(report['generators'])}"
    yield f"integral closure = {_gens(report['closure_generators'])}"
    yield "already integrally closed: " + ("yes" if report["already_closed"] else "no")


def _text_multiplier(report):
    yield _ring_line(report)
    yield f"ideal {report['ideal']} = {_gens(report['generators'])}"
    yield "canonical point u0 = " + format_point(report["canonical_point"])
    yield f"multiplier ideal = {_gens(report['multiplier_generators'])}"


def _text_subadd(report):
    yield _ring_line(report)
    yield f"J({report['ideal_a']}·{report['ideal_b']}) = {_gens(report['j_ab'])}"
    yield f"J({report['ideal_a']}) = {_gens(report['j_a'])}"
    yield f"J({report['ideal_b']}) = {_gens(report['j_b'])}"
    yield f"J({report['ideal_a']})·J({report['ideal_b']}) = {_gens(report['j_product'])}"
    yield "subadditivity holds: " + ("yes" if report["holds"] else "no")
    for w, cert in zip(report["witnesses"], report["witness_certificates"]):
        yield (f"  witness {_mono(w)} = {format_point(w)}: "
               "interior to N(product) but outside the product ideal")
        for facet in cert["facets"]:
            yield f"    {_halfspace(facet)}: value {facet['value']} ({facet['status']})"


def _text_refute(report):
    yield _ring_line(report)
    yield f"target {format_point(report['target'])}, sigma-pairing bounds {format_point(report['bounds'])}"
    yield f"scanned {report['scanned']} lattice points"
    if report["decompositions"]:
        yield f"decompositions found: {len(report['decompositions'])}"
        for d in report["decompositions"]:
            yield f"  alpha = {format_point(d['alpha'])}, beta = {format_point(d['beta'])}"
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
    bounds = ", ".join(f"{k}={v}" for k, v in config.items() if k != "explicit_recipes")
    yield f"search over {bounds}; {len(config['explicit_recipes'])} explicit recipe(s)"
    for i, hit in enumerate(report["hits"], 1):
        r = hit["construction"]["recipe"]
        yield (f"hit {i}: base rays " + ", ".join(format_point(v) for v in r["base_ring"]["dual_cone_rays"])
               + f"; i' = {_gens(r['i_prime'])}; j' = {_gens(r['j_prime'])}"
               + f"; r = {format_point(r['r'])}; z = {format_point(r['z_exponent'])}")
        yield ("       a = " + _gens(hit["construction"]["a"])
               + ", b = " + _gens(hit["construction"]["b"])
               + ", rZ = " + format_point(hit["construction"]["r_z"]))
        yield "       escaping generators: " + ", ".join(format_point(w) for w in hit["witnesses"])
    plural = "" if report["count"] == 1 else "s"
    yield f"search complete: {report['count']} counterexample{plural} found"
