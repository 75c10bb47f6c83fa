"""Spans around the public functions of each layer, installed from outside.

Every toricmult module imports its callees by name (`from .rings import
lattice_points_in_box`), so a wrapper is bound in place of the original on
every loaded module that holds it, not only on the defining module. Spans
(name, start, end, parent, busy) are kept in memory as columns and written
out when the run ends; per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

import metrics
from toricmult.errors import RecipeInvalid

# Functions wrapped by name, in layer order. Their time outside wrapped
# callees is their self time.
LAYERS = (
    "linalg.rank",
    "linalg.invert",
    "linalg.adjugate_int",
    "linalg.kernel_basis",
    "geometry.PolyCone.from_rays",
    "geometry.hull_plus_cone",
    "geometry.membership",
    "rings.ring_from_dual_rays",
    "rings.lattice_points_in_box",
    "ideals.integral_closure",
    "ideals.region_minimal_generators",
    "ideals.minimalize",
    "ideals.contains_monomial",
    "ideals.product",
    "multiplier.multiplier_ideal",
    "subadditivity.huneke_swanson_construct",
    "subadditivity.search_counterexamples",
    "subadditivity.check_subadditivity",
    "subadditivity.decompose_2d",
    "subadditivity.exhaustive_refute",
)

ENUMERATION = "rings.lattice_points_in_box"


def _iterable_key(items, *rest):
    """Key of a call whose first argument is an iterable of points; the
    wrapper passes that argument on as a tuple, so it is read only once."""
    return tuple(tuple(p) for p in items), rest


def _first_arg(a, *rest):
    return a


# Layers whose distinct argument values are counted, with the key of a call.
DISTINCT = {
    "geometry.hull_plus_cone": _iterable_key,
    "rings.ring_from_dual_rays": _iterable_key,
    "ideals.integral_closure": _first_arg,
    "multiplier.multiplier_ideal": _first_arg,
}


class Tracer:
    """Span columns and counters of one traced run; records only while `on`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.busy = array("d")
        self.stack = [-1]
        self.on = False
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def begin(self, name_id: int, t: float) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.start.append(t)
        self.end.append(t)
        self.parent.append(self.stack[-1])
        self.busy.append(0.0)
        return sid

    def finish(self, sid: int, end: float, busy: float) -> None:
        self.end[sid] = end
        self.busy[sid] = busy

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of fn."""
        nid = self.name_id(name)
        key = DISTINCT.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if key is not None:
                if key is _iterable_key:
                    args = (tuple(args[0]),) + args[1:]
                self.keys[name].add(key(*args, **kwargs))
            t0 = perf_counter()
            sid = self.begin(nid, t0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except RecipeInvalid:
                self.count(name + ".rejected")
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.finish(sid, t1, t1 - t0)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "ideals.minimalize":
            n = len(set(args[1]))
            self.count(name + ".pairs", n * n)
        elif name == "subadditivity.exhaustive_refute":
            self.count(name + ".scanned", result.scanned)
        elif name == "subadditivity.search_counterexamples":
            self.count(name + ".hits", len(result))

    def wrap_generator(self, name: str, fn):
        """A wrapper whose span is busy only while the generator is resumed.

        The span's parent is the span that called fn; the consumer's work
        between resumptions is not charged to it.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(ring, bounds):
            gen = fn(ring, bounds)
            if not self.on:
                return gen
            simplicial = len(ring.sigma_rays) == ring.dim
            if simplicial:
                self.count(name + ".box_points", metrics.box_points(bounds))
            return self._resumptions(self.begin(nid, perf_counter()), gen, name if simplicial else None)

        return traced

    def _resumptions(self, sid: int, gen, yield_name):
        busy = 0.0
        t1 = self.start[sid]
        yielded = 0
        try:
            while True:
                self.stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    self.stack.pop()
                    busy += t1 - t0
                yielded += 1
                yield item
        finally:
            gen.close()
            self.finish(sid, t1, busy)
            if yield_name is not None:
                self.count(yield_name + ".points_yielded", yielded)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the run, zero where a layer did no work."""
        names = [self.names[i] for i in self.name]
        selfs = metrics.self_times(names, self.parent, self.busy)
        calls: dict[str, int] = {}
        for n in names:
            calls[n] = calls.get(n, 0) + 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[layer + ".calls"] = calls.get(layer, 0)
            out[layer + ".self_s"] = selfs.get(layer, 0.0)
        for layer, seen in self.keys.items():
            out[layer + ".distinct"] = len(seen)
        for key in (
            "rings.lattice_points_in_box.box_points",
            "rings.lattice_points_in_box.points_yielded",
            "ideals.minimalize.pairs",
            "subadditivity.huneke_swanson_construct.rejected",
            "subadditivity.exhaustive_refute.scanned",
            "subadditivity.search_counterexamples.hits",
        ):
            out[key] = self.counters.get(key, 0)
        out[ENUMERATION + ".yield_ratio"] = metrics.yield_ratio(
            out[ENUMERATION + ".points_yielded"], out[ENUMERATION + ".box_points"]
        )
        out["ideals.region_minimal_generators.box_rounds"] = metrics.box_rounds(
            names, self.parent, "ideals.region_minimal_generators", ENUMERATION
        )
        info = sys.modules["toricmult.ideals"].newton_polyhedron.cache_info()
        out["ideals.newton_polyhedron.hits"] = info.hits
        out["ideals.newton_polyhedron.misses"] = info.misses
        return out

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON columns."""
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "busy": self.busy.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(data, f, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Bind a wrapper in place of every layer function on every loaded toricmult module."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "toricmult" or n.startswith("toricmult.")]
    for name in LAYERS:
        module_name, attr = name.split(".", 1)
        home = sys.modules["toricmult." + module_name]
        if attr == "PolyCone.from_rays":
            cls = home.PolyCone
            cls.from_rays = staticmethod(tracer.wrap(name, cls.from_rays))
            continue
        original = getattr(home, attr)
        wrapper = tracer.wrap_generator(name, original) if name == ENUMERATION else tracer.wrap(name, original)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)
