"""cmlocus: exact arithmetic for CM loci on the modular curves X0(M,N)
over the orders inside Q(i) and Q(sqrt(-3))."""

from .arith import OrderDisc, euler_phi, kronecker, psi, split_discriminant
from .fields import (
    CompositumResult,
    FieldSymbol,
    K,
    Q,
    compose_rcf,
    field_degree,
    in_S,
    rcf_rel_degree,
    tensor_rcf,
)
from .forms import class_number, reduced_forms, two_torsion_count
from .graph import (
    GraphPath,
    IsogenyGraph,
    build_graph,
    conjugation_graph,
    double_cover,
    enumerate_paths,
    geometric_points,
    to_dot,
)
from .locus import (
    ClosedPointClass,
    FiberReport,
    PrimeLocalDatum,
    closed_point_classes,
    count_fiber_X0MN,
    count_fiber_X0N,
    fiber_X0MN,
    lift_residue_prime_power,
    moduli_bounds,
    primitive_prime_power,
    primitive_X0MN,
    residue_X0MN,
    residue_X0N,
    x1_fiber,
    x_nn_residue,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
