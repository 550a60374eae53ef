import pytest

from cmlocus.arith import OrderDisc, ValidationError, euler_phi
from cmlocus.locus import elliptic_compatible, x1_fiber

O4 = OrderDisc.from_parts(-4, 1)
O3 = OrderDisc.from_parts(-3, 1)


def test_elliptic_examples():
    assert x1_fiber(O4, 1, 5, "elliptic") == (2, 1, 1)
    assert x1_fiber(O3, 1, 7, "elliptic") == (3, 1, 1)
    # (Z/N)^*/{+-1} is trivial for N <= 3, so the units fix every point:
    # Z/3 over Q at j = 0 and Z/2 over Q at j = 1728, Olson's d = 1 cases
    assert x1_fiber(O3, 1, 3, "elliptic") == (1, 1, 1)
    assert x1_fiber(O4, 1, 2, "elliptic") == (1, 1, 1)
    assert x1_fiber(O3, 1, 1, "elliptic") == (1, 1, 1)
    assert x1_fiber(O4, 1, 1, "elliptic") == (1, 1, 1)


def test_inert_cases():
    o16 = OrderDisc.from_parts(-4, 2)
    assert x1_fiber(o16, 1, 7) == (1, 3, 1)  # delta < -4: always inert
    assert x1_fiber(O4, 7, 7) == (1, 3, 1)  # M >= 2: inert
    assert x1_fiber(O4, 1, 2) == (1, 1, 1)  # N <= 2: isomorphism
    assert x1_fiber(O3, 1, 3) == (1, 1, 1)


def test_elliptic_sweep_products():
    for dK in (-3, -4):
        order = OrderDisc.from_parts(dK, 1)
        seen = 0
        for N in range(4, 51):
            if not elliptic_compatible(order, 1, N):
                with pytest.raises(ValidationError):
                    x1_fiber(order, 1, N, "elliptic")
                continue
            seen += 1
            e, f, count = x1_fiber(order, 1, N, "elliptic")
            assert count == 1
            assert e * f == euler_phi(N) // 2
            if dK == -4:
                assert (e, f) == (2, euler_phi(N) // 4)
            else:
                assert (e, f) == (3, euler_phi(N) // 6)
        assert seen > 5


def test_elliptic_flag_validation():
    with pytest.raises(ValidationError):
        x1_fiber(OrderDisc.from_parts(-4, 2), 1, 5, "elliptic")  # delta < -4
    with pytest.raises(ValidationError):
        x1_fiber(O4, 1, 3, "elliptic")  # 3 is inert in Z[i]
    with pytest.raises(ValidationError):
        x1_fiber(O3, 1, 2, "elliptic")  # 2 is inert in Z[zeta_3]
    o7 = OrderDisc.from_parts(-7, 1)
    assert not elliptic_compatible(o7, 1, 2)  # 2 splits, but O^* = {+-1}
    with pytest.raises(ValidationError):
        x1_fiber(o7, 1, 2, "elliptic")
    with pytest.raises(ValidationError):
        x1_fiber(O4, 1, 4, "elliptic")  # 2^2: no horizontal continuation
    with pytest.raises(ValidationError):
        x1_fiber(O4, 1, 5, "sideways")
