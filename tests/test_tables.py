import pytest

from cmlocus.arith import OrderDisc, ValidationError, psi
from cmlocus.locus import fiber_X0MN
from cmlocus.tables import path_classes


def prime_power_classes(order, ell, a):
    # the fiber of X0(ell^a): one class per table class, with its path shape
    return fiber_X0MN(order, 1, ell**a).classes


def fiber_summary(dK, f, ell, a):
    order = OrderDisc.from_parts(dK, f)
    return [
        (str(c.field), c.d, c.e, c.count)
        for c in prime_power_classes(order, ell, a)
    ]


def test_example_fiber_x0_2():
    # [J_1728] + 2[J_{2^3 3^3 11^3}]
    assert fiber_summary(-4, 1, 2, 1) == [("Q(1)", 1, 1, 1), ("Q(2)", 1, 2, 1)]


def test_example_fiber_x0_3():
    # [J_0] + 3[J_{-2^15 * 3 * 5^3}]
    assert fiber_summary(-3, 1, 3, 1) == [("Q(1)", 1, 1, 1), ("Q(3)", 1, 3, 1)]


def test_fiber_minus16_level4():
    # derived via the graph oracle: psi(4) = 6 split as 4 + 1 + 1
    assert fiber_summary(-4, 2, 2, 2) == [
        ("Q(2)", 1, 1, 1),
        ("Q(2)", 1, 1, 1),
        ("Q(8)", 4, 1, 1),
    ]


@pytest.mark.parametrize("dK", [-3, -4])
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 13])
def test_psi_sum_shallow(dK, ell):
    for f in range(1, 7):
        order = OrderDisc.from_parts(dK, f)
        for a in range(1, 6):
            classes = prime_power_classes(order, ell, a)
            assert sum(c.e * c.d * c.count for c in classes) == psi(ell**a)


@pytest.mark.parametrize("dK", [-3, -4])
@pytest.mark.parametrize("ell", [2, 3])
def test_psi_sum_deep_towers(dK, ell):
    # exercises the deep-conductor rows (V2, V3, V4, VI2, VI3, VIII2)
    for L in range(7):
        order = OrderDisc.from_parts(dK, ell**L)
        for a in range(1, 8):
            classes = prime_power_classes(order, ell, a)
            assert sum(c.e * c.d * c.count for c in classes) == psi(ell**a)


def test_ramification_rule():
    # e > 1 only over the maximal orders and only off the horizontal part
    order = OrderDisc.from_parts(-4, 1)
    for c in prime_power_classes(order, 5, 2):
        b, h, d = c.path_type
        assert (c.e == 2) == (d > 0)
    order = OrderDisc.from_parts(-3, 2)
    assert all(c.e == 1 for c in prime_power_classes(order, 5, 2))


def test_conductor_divisibility_invariant():
    # class field conductor divisible by lcm of endpoint conductors
    from math import lcm

    for dK in (-3, -4):
        for f in range(1, 9):
            order = OrderDisc.from_parts(dK, f)
            for ell in (2, 3, 5):
                L = order.ell_valuation(ell)
                for a in range(1, 6):
                    for c in path_classes(order, ell, a):
                        b, h, d = c.bhd
                        terminal = order.f // ell**L * ell ** (
                            L - b + d
                        )
                        assert c.field.m % lcm(order.f, terminal) == 0


def test_rejects_bad_inputs():
    order = OrderDisc.from_parts(-4, 1)
    with pytest.raises(ValidationError):
        path_classes(order, 4, 1)
    with pytest.raises(ValidationError):
        path_classes(order, 2, 0)
    with pytest.raises(ValidationError):
        fiber_X0MN(OrderDisc.from_parts(-7, 1), 1, 2)


def test_path_classes_are_a_shared_tuple():
    order = OrderDisc.from_parts(-4, 3)
    first = path_classes(order, 5, 2)
    assert isinstance(first, tuple)
    assert path_classes(order, 5, 2) is first


def test_path_classes_rejections_are_not_cached():
    order = OrderDisc.from_parts(-4, 1)
    for _ in range(2):
        with pytest.raises(ValidationError):
            path_classes(order, 4, 2)
