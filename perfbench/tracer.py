"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of the cmlocus modules
(and the census kernel and ``FieldSymbol.__post_init__``) with a wrapper
that records a span, then rebinds each name wherever ``from .x import y``
copied it.  A span's self time is its duration minus the durations of the
spans it directly caused.  Cache hit ratios come from ``cache_info()`` of
the wrapped ``lru_cache`` objects; a cache that is gone is reported as
absent.
"""

import importlib
import types
from time import perf_counter_ns

MODULES = ("arith", "forms", "fields", "tables", "pathstats", "graph", "locus", "cli")
EXTRA = (("_kernel", "form_census"),)  # private names that carry a layer

# cache whose hit ratio is a layer metric -> traced name of the function
CACHES = {
    "forms.class_number.hit_ratio": "forms.class_number",
    "forms.two_torsion_count.hit_ratio": "forms.two_torsion_count",
    "fields.rcf_rel_degree.hit_ratio": "fields.rcf_rel_degree",
    "graph.build_graph.hit_ratio": "graph.build_graph",
}


class Tracer:
    def __init__(self):
        # traced name -> [calls, total ns, self ns]
        self.stats: dict[str, list[int]] = {}
        self.caches: dict[str, object] = {}
        self.combinations = 0
        self.vertices = 0
        self.paths = 0
        self._graphs: set[int] = set()
        # open spans: [name, child ns, product of path-class counts]
        self._stack: list[list] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"cmlocus.{name}") for name in MODULES}
        mods["_kernel"] = importlib.import_module("cmlocus._kernel")
        every = list(mods.values()) + [importlib.import_module("cmlocus")]
        targets = []
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    targets.append((f"{short}.{attr}", obj))
        for short, attr in EXTRA:
            obj = getattr(mods[short], attr, None)
            if obj is not None:
                targets.append((f"{short}.{attr}", obj))
        for name, original in targets:
            wrapper = self._wrap(name, original)
            if hasattr(original, "cache_info"):
                self.caches[name] = original
            for mod in every:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, attr, wrapper)
        fs = mods["fields"].FieldSymbol
        fs.__post_init__ = self._wrap("fields.FieldSymbol", fs.__post_init__)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        post = {
            "tables.path_classes": self._after_path_classes,
            "graph.build_graph": self._after_graph,
            "graph.double_cover": self._after_graph,
            "graph.enumerate_paths": self._after_paths,
        }.get(name)
        is_fiber = name == "locus.fiber_X0MN"

        def wrapper(*args, **kwargs):
            frame = [name, 0, 1, False]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(result)
            elif is_fiber and frame[3]:
                self.combinations += frame[2]
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _after_path_classes(self, result):
        # the per-prime class lists of one fiber_X0MN call multiply to the
        # number of combinations its loop visits
        if self._stack and self._stack[-1][0] == "locus.fiber_X0MN":
            self._stack[-1][2] *= len(result)
            self._stack[-1][3] = True

    def _after_graph(self, graph):
        if id(graph) not in self._graphs:
            self._graphs.add(id(graph))
            self.vertices += len(graph.out)

    def _after_paths(self, result):
        self.paths += len(result)

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw counters, summable across processes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "caches": {
                k: [c.cache_info().hits, c.cache_info().misses]
                for k, c in self.caches.items()
            },
            "combinations": self.combinations,
            "vertices": self.vertices,
            "paths": self.paths,
        }


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def merge(snaps: list[dict]) -> dict:
    """Sum raw counters of several processes (one CLI round)."""
    out = {"stats": {}, "caches": {}, "combinations": 0, "vertices": 0, "paths": 0}
    for s in snaps:
        for k, v in s["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0, 0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in s["caches"].items():
            acc = out["caches"].setdefault(k, [0, 0])
            acc[0] += v[0]
            acc[1] += v[1]
        for k in ("combinations", "vertices", "paths"):
            out[k] += s[k]
    return out


def layer_metrics(snap: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one round from its raw counters.

    Returns the values and the names of cache ratios that are absent
    because the function no longer carries a cache.
    """
    st = snap["stats"]

    def calls(*names):
        return sum(st.get(n, (0, 0, 0))[0] for n in names)

    def self_ms(*names):
        return sum(st.get(n, (0, 0, 0))[2] for n in names) / 1e6

    out = {
        "forms.census.calls": calls("_kernel.form_census", "forms.reduced_forms"),
        "forms.census.self_ms": self_ms("_kernel.form_census", "forms.reduced_forms"),
        "forms.two_torsion_count.self_ms": self_ms("forms.two_torsion_count"),
        "locus.fiber_X0MN.self_ms": self_ms("locus.fiber_X0MN"),
        "locus.combinations": snap["combinations"],
        "locus.residue_X0MN.calls": calls("locus.residue_X0MN"),
        "locus.count_fiber_X0MN.calls": calls("locus.count_fiber_X0MN"),
        "locus.residue_per_combination": (
            calls("locus.residue_X0MN") / snap["combinations"] if snap["combinations"] else 0.0
        ),
        "locus.primitive_X0MN.self_ms": self_ms("locus.primitive_X0MN"),
        "fields.symbols": calls("fields.FieldSymbol"),
        "fields.field_degree.self_ms": self_ms("fields.field_degree"),
        "arith.is_fundamental.calls": calls("arith.is_fundamental"),
        "fields.canonical_conductor.self_ms": self_ms("fields.canonical_conductor"),
        "tables.path_classes.calls": calls("tables.path_classes"),
        "tables.path_classes.self_ms": self_ms("tables.path_classes"),
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.factorize.self_ms": self_ms("arith.factorize"),
        "graph.build.self_ms": self_ms("graph.build_graph", "graph.double_cover"),
        "graph.vertices": snap["vertices"],
        "graph.enumerate_paths.self_ms": self_ms("graph.enumerate_paths"),
        "graph.paths": snap["paths"],
        "graph.geometric_points.self_ms": self_ms("graph.geometric_points"),
        "pathstats.type_counts.self_ms": self_ms("pathstats.type_counts"),
        "pathstats.orbit_counts.self_ms": self_ms("pathstats.orbit_counts"),
    }
    absent = []
    for metric, fn in CACHES.items():
        if fn not in snap["caches"]:
            absent.append(metric)
            continue
        hits, misses = snap["caches"][fn]
        out[metric] = hits / (hits + misses) if hits + misses else 0.0
    return out, absent
