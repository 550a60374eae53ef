from hypothesis import given, settings, strategies as st

from cmlocus.arith import OrderDisc, ValidationError
from cmlocus.fields import field_degree, is_isomorphic
from cmlocus.locus import enumerated_primitive, fiber_X0MN, primitive_X0MN

O4 = OrderDisc.from_parts(-4, 1)
O3 = OrderDisc.from_parts(-3, 1)


def same_fields(A, B):
    return len(A) == len(B) and all(any(is_isomorphic(a, b) for b in B) for a in A)


def _names(order, ell, a_prime, a):
    # the primitive fields on X0(ell^a', ell^a)
    return [str(f) for f in primitive_X0MN(order, ell**a_prime, ell**a)[0]]


def test_case_examples():
    assert _names(O4, 5, 0, 1) == ["Q(5)", "K(1)"]
    assert _names(O3, 2, 1, 1) == ["K(2)"]
    assert _names(O4, 2, 1, 2) == ["Q(4)", "K(2)"]


def test_case_2x_3x():
    # 3 inert in Q(i): the unique primitive field is K(3^max(a', a-2L))
    assert _names(O4, 3, 1, 2) == ["K(9)"]
    assert _names(O4, 3, 2, 2) == ["K(9)"]
    o = OrderDisc.from_parts(-3, 5)
    # odd discriminant with a full 2-torsion structure: always a K-field
    assert _names(o, 2, 1, 1) == ["K(10)"]
    assert _names(o, 2, 1, 3) == ["K(40)"]


def test_casework_matches_enumeration():
    # every level M | N <= 125, composite ones included; acceptance
    # criterion 7 covers the prime powers up to 200
    for dK in (-3, -4):
        for f in range(1, 9):
            order = OrderDisc.from_parts(dK, f)
            for N in range(1, 126):
                for M in range(1, N + 1):
                    if N % M == 0:
                        cw, _ = primitive_X0MN(order, M, N)
                        en = enumerated_primitive(order, M, N)
                        assert same_fields(cw, en), (dK, f, M, N)


def test_primitive_x0mn_examples():
    fields, degrees = primitive_X0MN(O4, 1, 5)
    assert [str(f) for f in fields] == ["Q(5)", "K(1)"]
    assert degrees == [2]
    fields, degrees = primitive_X0MN(O3, 2, 2)
    assert [str(f) for f in fields] == ["K(2)"] and degrees == [2]
    assert fields[0].canonical_m() == 1  # K(2) = K since -12 has class number 1
    o100 = OrderDisc.from_parts(-4, 5)
    fields, degrees = primitive_X0MN(o100, 1, 125)
    assert [str(f) for f in fields] == ["Q(25)", "K(5)"]
    assert degrees == [4, 10]  # split deep-level regime: two primitive degrees


def test_primitive_degree_relations():
    # c <= b, c | 2b; two degrees exactly when b and c are incomparable
    for dK in (-3, -4):
        for f in (1, 2, 3, 5, 7):
            order = OrderDisc.from_parts(dK, f)
            for M in (1, 2):
                for N in range(M, 121, M):
                    if N % M:
                        continue
                    try:
                        fields, degrees = primitive_X0MN(order, M, N)
                    except ValidationError:
                        continue
                    if len(fields) == 2:
                        b = field_degree(fields[0])
                        c = field_degree(fields[1])
                        assert c <= b and (2 * b) % c == 0
                        assert (len(degrees) == 2) == (c != b and b % c != 0)


def test_unique_field_branch():
    fields, degrees = primitive_X0MN(O4, 4, 8)
    assert len(fields) == 1 and fields[0].contains_K
    fields, degrees = primitive_X0MN(O3, 3, 9)
    assert len(fields) == 1 and fields[0].contains_K


def test_primitive_fields_are_fiber_minima():
    # independent route: the composite casework must name exactly the
    # minimal residue fields of the assembled fiber, at conductors and
    # levels past test_casework_matches_enumeration's grid
    from cmlocus.fields import embeds
    from cmlocus.locus import fiber_X0MN

    for dK in (-3, -4):
        for f in (9, 12, 30):
            order = OrderDisc.from_parts(dK, f)
            for M, N in [(1, 128), (2, 144), (3, 150), (6, 180), (5, 200), (4, 196),
                         (1, 169)]:
                fields, _ = primitive_X0MN(order, M, N)
                fiber = fiber_X0MN(order, M, N)
                for c in fiber.classes:
                    assert any(embeds(p, c.field) for p in fields)
                for p in fields:
                    assert any(is_isomorphic(p, c.field) for c in fiber.classes)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((-3, -4)),
    st.integers(1, 50),
    st.integers(1, 5000),
    st.integers(0, 10**6),
)
def test_primitive_is_the_fiber_minimum_property(dK, f, N, pick):
    # over the accepted domain: the casework names exactly the minimal
    # residue fields of the enumerated fiber, and the least degree
    divisors = [m for m in range(1, N + 1) if N % m == 0]
    M = divisors[pick % len(divisors)]
    order = OrderDisc.from_parts(dK, f)
    fields, degrees = primitive_X0MN(order, M, N)
    assert same_fields(fields, enumerated_primitive(order, M, N))
    classes = fiber_X0MN(order, M, N).classes
    assert min(degrees) == min(field_degree(c.field) for c in classes)
