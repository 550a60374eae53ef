import importlib
import pkgutil

import cmlocus
from cmlocus.arith import OrderDisc


def _caches():
    """Every function of a cmlocus module, public or private, that carries
    an lru_cache, as {qualified name: function}, and the cache that
    OrderDisc.from_parts is."""
    out = {}
    for info in pkgutil.iter_modules(cmlocus.__path__):
        mod = importlib.import_module(f"cmlocus.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                out[f"{info.name}.{name}"] = obj
    out["arith.OrderDisc.from_parts"] = OrderDisc.from_parts
    return out


def test_every_cache_is_bounded():
    caches = _caches()
    assert {
        "arith._factor_items",
        "arith.OrderDisc.from_parts",
        "fields._symbol",
        "locus._level",
        "tables.path_classes",
        "locus._prime_rows",
        "locus._primitive_row",
        "fields.rcf_rel_degree",
        "forms.class_number",
        "forms.two_torsion_count",
        "graph.build_graph",
        "graph.double_cover",
    } <= set(caches)
    unbounded = [name for name, fn in caches.items() if fn.cache_info().maxsize is None]
    assert unbounded == []
