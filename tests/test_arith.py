import pytest
from hypothesis import given, strategies as st

from cmlocus.arith import (
    OrderDisc,
    ValidationError,
    euler_phi,
    factorize,
    kronecker,
    psi,
    split_discriminant,
    valuation,
)


def legendre_bruteforce(a, p):
    """Independent oracle: quadratic residues of an odd prime by enumeration."""
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_kronecker_spec_examples():
    assert kronecker(-4, 2) == 0  # 2 divides -4
    assert kronecker(-4, 5) == legendre_bruteforce(-4, 5) == 1
    assert kronecker(-3, 2) == -1  # -3 = 5 mod 8


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29])
def test_kronecker_matches_legendre(p):
    for a in range(-30, 31):
        assert kronecker(a, p) == legendre_bruteforce(a, p)


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 200))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(-200, 200), st.integers(1, 60), st.integers(1, 60))
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    big = 10**12 + 39  # prime beyond the trial-division wheel
    assert factorize(big) == {big: 1}
    assert factorize(big * 7) == {7: 1, big: 1}
    # strong pseudoprime to the prime bases 2..37 (psi_12, Sorenson-Webster)
    assert factorize(318665857834031151167461) == {399165290221: 1, 798330580441: 1}
    # two primes near 10^11 and 10^12: Pollard rho past the trial-division wheel
    assert factorize(999999999989 * 99999999977) == {999999999989: 1, 99999999977: 1}
    with pytest.raises(ValidationError):
        factorize(0)
    with pytest.raises(ValidationError):
        factorize(10**25)


def cyclic_subgroup_count(n):
    """Oracle: number of cyclic order-n subgroups of (Z/n)^2, by counting
    generators up to unit scaling."""
    pts = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if lcm_order(x, y, n) == n
    ]
    return len(pts) // euler_phi(n)


def lcm_order(x, y, n):
    from math import gcd

    return n // gcd(gcd(x, y), n)


def test_psi_phi():
    assert psi(2) == 3
    assert psi(12) == 24
    assert euler_phi(5) == 4
    for n in range(1, 40):
        assert psi(n) == cyclic_subgroup_count(n)


def test_split_discriminant_examples():
    assert split_discriminant(-16) == OrderDisc(-16, -4, 2)
    assert split_discriminant(-27) == OrderDisc(-27, -3, 3)
    # Example 4.3 level two has discriminant -3 * 3^4
    assert split_discriminant(-3 * 3**4) == OrderDisc(-243, -3, 9)


@pytest.mark.parametrize("delta", [-3, -4, -7, -8, -11, -12, -15, -16, -20])
def test_split_roundtrip(delta):
    for f in range(1, 12):
        od = split_discriminant(delta * f * f)
        assert od.f**2 * od.delta_K == delta * f * f


def test_split_rejects_bad_input():
    for bad in (5, 0, -6, -13):
        with pytest.raises(ValidationError):
            split_discriminant(bad)


def test_order_disc_accessors():
    od = OrderDisc.from_parts(-3, 12)
    assert od.ell_valuation(2) == 2
    assert od.ell_valuation(3) == 1


def test_order_disc_refuses_a_non_fundamental_delta_K():
    # -3 and -4 skip the factorizing test; every other delta_K still takes it
    for delta, delta_K, f in ((-48, -12, 2), (-64, -16, 2), (-108, -27, 2), (-112, -28, 2),
                              (-12, -12, 1), (-16, -16, 1)):
        with pytest.raises(ValidationError, match="not fundamental"):
            OrderDisc(delta, delta_K, f)
        with pytest.raises(ValidationError, match="not fundamental"):
            OrderDisc.from_parts(delta_K, f)
    for delta_K in (-3, -4, -7, -8):
        for f in (1, 2, 3):
            assert OrderDisc.from_parts(delta_K, f) == (f * f * delta_K, delta_K, f)


def test_valuation_refuses_what_it_cannot_count():
    # ell in {1, -1} or n = 0 never left the loop, and ell = 0 divided by zero
    assert valuation(48, 2) == 4 and valuation(7, 3) == 0
    od = OrderDisc.from_parts(-4, 2)
    for ell in (1, -1, 0, -2):
        with pytest.raises(ValidationError):
            od.ell_valuation(ell)
    for n, ell in ((0, 2), (-8, 2), (0, 1)):
        with pytest.raises(ValidationError):
            valuation(n, ell)


def test_factorize_returns_a_fresh_dict():
    fac = factorize(12)
    fac[2] = 99
    fac[7] = 1
    assert factorize(12) == {2: 2, 3: 1}
