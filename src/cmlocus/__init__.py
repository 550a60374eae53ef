"""cmlocus: exact arithmetic for CM loci on the modular curves X0(M,N)
over the orders inside Q(i) and Q(sqrt(-3)).

``import cmlocus`` loads no submodule.  Each public name below loads its
home module on first lookup (PEP 562), so a command compiles only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        ("OrderDisc", "euler_phi", "kronecker", "psi", "split_discriminant"),
        "arith",
    ),
    **dict.fromkeys(
        ("CompositumResult", "FieldSymbol", "K", "Q", "compose_rcf",
         "field_degree", "in_S", "rcf_rel_degree", "tensor_rcf"),
        "fields",
    ),
    **dict.fromkeys(("class_number", "reduced_forms", "two_torsion_count"), "forms"),
    **dict.fromkeys(
        ("GraphPath", "IsogenyGraph", "build_graph", "conjugation_graph",
         "double_cover", "enumerate_paths", "geometric_points", "to_dot"),
        "graph",
    ),
    **dict.fromkeys(
        ("ClosedPointClass", "FiberReport", "fiber_X0MN",
         "lift_residue_prime_power", "primitive_X0MN", "x1_fiber"),
        "locus",
    ),
}
_MODULES = ("arith", "fields", "forms", "graph", "locus", "tables")

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
