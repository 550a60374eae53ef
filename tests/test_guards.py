"""The type guard of the public edge: every entry point that `cmlocus`
exports, `factorize` and `canonical_conductor` behind them, and every public
name of `cmlocus.forms` and `cmlocus.pathstats`, and the two views of
`cmlocus.tables`, answers a float, a bool or an int beyond FACTOR_LIMIT with
a ValidationError or with the answer it gives the plain int, and a refused
argument never poisons a cache."""

import pytest
from hypothesis import given, settings, strategies as st

import cmlocus
from cmlocus import forms, pathstats, tables
from cmlocus import (
    K,
    OrderDisc,
    build_graph,
    class_number,
    compose_rcf,
    conjugation_graph,
    double_cover,
    enumerate_paths,
    euler_phi,
    fiber_X0MN,
    field_degree,
    in_S,
    kronecker,
    lift_residue_prime_power,
    primitive_X0MN,
    psi,
    rcf_rel_degree,
    reduced_forms,
    split_discriminant,
    tensor_rcf,
    two_torsion_count,
    x1_fiber,
)
from cmlocus.arith import FACTOR_LIMIT, ValidationError, factorize
from cmlocus.fields import canonical_conductor


def _order(dK, f):
    return OrderDisc.from_parts(dK, f)


# name -> (call, the int arguments that call answers); each argument in turn
# is replaced by a float, a bool or a huge int
CASES = {
    "kronecker": (kronecker, (-4, 15)),
    "euler_phi": (euler_phi, (14,)),
    "psi": (psi, (14,)),
    "factorize": (factorize, (14,)),
    "split_discriminant": (split_discriminant, (-36,)),
    "OrderDisc": (OrderDisc, (-36, -4, 3)),
    "OrderDisc.from_parts": (OrderDisc.from_parts, (-4, 2)),
    "K": (K, (6, -3)),
    "Q": (cmlocus.Q, (6, -3)),
    "in_S": (in_S, (2, -3)),
    "field_degree": (lambda m, dK: field_degree(K(m, dK)), (15, -4)),
    "rcf_rel_degree": (rcf_rel_degree, (-4, 15)),
    "canonical_conductor": (canonical_conductor, (-4, 6)),
    "compose_rcf": (lambda m1, m2: compose_rcf([K(m1, -3), K(m2, -3)]), (2, 3)),
    "tensor_rcf": (lambda m1, m2: tensor_rcf(K(m1, -3), K(m2, -3)), (6, 10)),
    "class_number": (class_number, (-84,)),
    "reduced_forms": (reduced_forms, (-84,)),
    "two_torsion_count": (two_torsion_count, (-84,)),
    "build_graph": (build_graph, (-4, 5, 1, 2)),
    "double_cover": (double_cover, (-4, 2, 1, 2)),
    "conjugation_graph": (conjugation_graph, (-3, 3, 1, 2)),
    "enumerate_paths": (lambda s, a: enumerate_paths(build_graph(-4, 5, 1, 3), s, a), (0, 2)),
    "fiber_X0MN_prime_power": (lambda f, N: fiber_X0MN(_order(-4, f), 1, N), (3, 25)),
    "primitive_X0MN_prime_power": (
        lambda f, M, N: primitive_X0MN(_order(-4, f), M, N), (3, 5, 25)
    ),
    "lift_residue_prime_power": (
        lambda f, ell, ap, a: lift_residue_prime_power(_order(-4, f), ell, ap, a), (3, 2, 1, 2)
    ),
    "fiber_X0MN": (lambda dK, f, M, N: fiber_X0MN(_order(dK, f), M, N), (-4, 3, 2, 10)),
    "primitive_X0MN": (lambda dK, f, M, N: primitive_X0MN(_order(dK, f), M, N), (-3, 2, 3, 45)),
    "x1_fiber": (lambda dK, f, M, N: x1_fiber(_order(dK, f), M, N), (-4, 1, 1, 10)),
    # the public names of forms and pathstats that the package does not export
    "reduce_form": (lambda a, b, c: forms.reduce_form((a, b, c)), (5, 2, 2)),
    "principal_form": (forms.principal_form, (-84,)),
    "inverse_form": (lambda a, b, c: forms.inverse_form((a, b, c)), (3, -2, 5)),
    "compose": (lambda a, b, c, delta: forms.compose((a, b, c), (3, -2, 5), delta),
                (3, -2, 5, -56)),
    "prime_form": (forms.prime_form, (-36, 5)),
    "is_ambiguous": (lambda a, b, c: forms.is_ambiguous((a, b, c)), (3, -2, 5)),
    "type_counts": (pathstats.type_counts, (-4, 3, 1, 1, 2)),
    "orbit_counts": (pathstats.orbit_counts, (-4, 5, 2)),
    # the two table views that check --sweep compares with its oracles
    "type_weights": (lambda f, ell, a: tables.type_weights(_order(-4, f), ell, a), (3, 5, 2)),
    "real_points": (lambda dK, ell, a: tables.real_points(_order(dK, 1), ell, a), (-3, 7, 2)),
}

HUGE = (FACTOR_LIMIT + 1, 2**100 + 1, 10**30, -(10**30))


def _answer(call, args):
    try:
        return repr(call(*args))
    except ValidationError:
        return ValidationError


def test_every_exported_integer_entry_point_is_covered():
    exported = {name for name in cmlocus.__all__ if callable(getattr(cmlocus, name))}
    records = {"ClosedPointClass", "CompositumResult", "FiberReport", "FieldSymbol",
               "GraphPath", "IsogenyGraph"}  # no integer preconditions, or built via K/Q
    graph_only = {"geometric_points", "to_dot"}  # take a built graph, no integers
    assert exported - records - graph_only <= set(CASES)


def test_every_public_name_of_forms_and_pathstats_is_covered():
    for mod in (forms, pathstats):
        public = {
            name for name, obj in vars(mod).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == mod.__name__
        }
        assert public and public <= set(CASES), sorted(public - set(CASES))


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(pos=st.integers(0, 9), kind=st.sampled_from(("float", "half", "bool", "huge")),
       huge=st.sampled_from(HUGE))
def test_non_ints_are_refused_or_answered_as_ints(name, pos, kind, huge):
    call, args = CASES[name]
    pos %= len(args)
    x = args[pos]
    want = _answer(call, args)
    assert want is not ValidationError
    if kind == "float":
        bad, as_int = float(x), x
    elif kind == "half":
        bad, as_int = x + 0.5, None
    elif kind == "bool":
        bad = x % 2 == 1
        as_int = int(bad)
    else:
        bad, as_int = huge, None
    bad_args = args[:pos] + (bad,) + args[pos + 1:]
    got = _answer(call, bad_args)
    if got is not ValidationError and kind != "huge":
        # accepted: it must be exactly the answer of the int it stands for
        assert as_int is not None, (name, bad_args, got)
        assert got == _answer(call, args[:pos] + (as_int,) + args[pos + 1:]), (name, bad_args)
    # whatever the guard did, the int arguments still get the int answer
    assert _answer(call, args) == want


def test_float_never_poisons_an_untyped_cache():
    for fn, args in (
        (rcf_rel_degree, (-4, 15)),
        (class_number, (-84,)),
        (two_torsion_count, (-84,)),
    ):
        fn.cache_clear()
        with pytest.raises(ValidationError):
            fn(*(float(v) for v in args))
        assert fn.cache_info().currsize == 0
        assert type(fn(*args)) is int
    assert rcf_rel_degree(-4, 15) == 8 and type(rcf_rel_degree(-4, 15)) is int


def test_the_reported_holes_are_closed():
    with pytest.raises(ValidationError):
        factorize(14.0)
    with pytest.raises(ValidationError):
        OrderDisc.from_parts(-4, 2.0)
    with pytest.raises(ValidationError):
        fiber_X0MN(_order(-4, 1), 1, 10.0)
    with pytest.raises(ValidationError):
        fiber_X0MN(_order(-4, 1), True, 10)


def test_the_reported_forms_and_pathstats_holes_are_closed():
    for call, args in (
        (forms.prime_form, (-84, 5.0)),
        (pathstats.type_counts, (-4, 3, 1, 0, 2.0)),
        (pathstats.orbit_counts, (-4, 5, 2.0)),
        (pathstats.orbit_counts, (-4, 5, 10**6)),  # refused before 5^(10^6 - 1)
        (pathstats.type_counts, (-4, 5, 1, 10**9, 2)),  # refused before 5^(2 * 10^9)
        (forms.reduce_form, ((1, 0, -1),)),  # indefinite: reduction never ends
        (forms.compose, ((1, 0, 1), (1, 1, 1), -4)),  # (1, 1, 1) has discriminant -3
    ):
        with pytest.raises(ValidationError):
            call(*args)
    # the largest exponent inside the guard still answers: (5 - 1) / 2
    # orbits of first descents, then 5 choices at each later step
    assert pathstats.orbit_counts(-4, 5, 34)[(0, 0, 34)][0] == 2 * 5**33
