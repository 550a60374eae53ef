"""Exact elementary arithmetic: Kronecker symbols, multiplicative functions,
factorization, and imaginary quadratic discriminants split into a fundamental
part and a conductor.

Everything here is plain integer arithmetic; no floats anywhere.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd

TRIAL_LIMIT = 10**12
FACTOR_LIMIT = 10**24


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def _check_consistent(ok: bool, message: str) -> None:
    # an internal consistency check that, unlike ``assert``, still runs
    # under ``python -O``; the CLI maps AssertionError to exit code 3
    if not ok:
        raise AssertionError(message)


def _check_int(*values) -> None:
    # the one type guard of the public edge: each value must be an int
    # proper, so a float, a bool or another int subclass is refused before
    # an untyped cache can file 15.0 or True under the key of 15 or 1
    for v in values:
        if type(v) is not int:
            raise ValidationError(f"expected an int, got {v!r}")


def _check_power(ell: int, a: int) -> None:
    # ell^a within FACTOR_LIMIT, the prime powers a level can hold; a huge
    # exponent is refused before the power is formed
    _check_int(ell, a)
    if a > 0 and (a >= FACTOR_LIMIT.bit_length() or abs(ell) ** a > FACTOR_LIMIT):
        raise ValidationError(f"{ell}^{a} exceeds the factorization guard {FACTOR_LIMIT}")


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully extended: n of either sign, with the
    usual supplementary rules at 2, -1 and 0."""
    _check_int(a, n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        t = (n & -n).bit_length() - 1  # ord_2(n)
        n >>= t
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _pollard_rho(n: int) -> int:
    # Brent's cycle, one gcd per 128 differences multiplied mod n, with a
    # deterministic constant sweep; n odd composite.  A batch whose product
    # is 0 mod n is replayed one gcd per step from its start.
    for c in range(1, 100):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = gcd(q, n)
                if d != 1:
                    break
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = gcd(abs(x - ys), n)
        if d != n:
            return d
    raise ValidationError(f"failed to factor {n}")


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41 and below 43^2: prime
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # the first 13 primes are a deterministic Miller-Rabin witness set for
    # n < psi_13 ~ 3.3e24 > FACTOR_LIMIT (Sorenson-Webster 2017); without 41
    # the bound is psi_12 ~ 3.18e23
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(ell: int) -> None:
    _check_int(ell)
    if not _is_probable_prime(ell):
        raise ValidationError(f"{ell} is not prime")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n`` >= 1 as {prime: exponent}.

    Trial division handles the bulk; Pollard rho takes over for large
    semiprime cofactors (inputs past 10^24 are rejected outright).  The
    result is a fresh dict, which the caller may mutate.
    """
    return dict(_factor_pairs(n))


def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    # the guard of factorize, euler_phi and psi, then the cached pairs,
    # shared rather than copied; the type test is inline, as every level
    # and conductor passes through here
    if type(n) is not int or n < 1:
        raise ValidationError(f"expected an int n >= 1, got {n!r}")
    if n > FACTOR_LIMIT:
        raise ValidationError(f"n = {n} exceeds the factorization guard {FACTOR_LIMIT}")
    return _factor_items(n)


@lru_cache(maxsize=1024, typed=True)
def _factor_items(n: int) -> tuple[tuple[int, int], ...]:
    # (prime, exponent) pairs in the order found; factorize checks n first
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p * p <= TRIAL_LIMIT:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < p * p or _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(out.items())


def euler_phi(n: int) -> int:
    """Euler totient."""
    result = n
    for p, _ in _factor_pairs(n):
        result = result // p * (p - 1)
    return result


def psi(n: int) -> int:
    """Degree of X0(n) -> X(1): multiplicative with psi(l^a) = l^(a-1)(l+1)."""
    result = 1
    for p, e in _factor_pairs(n):
        result *= p ** (e - 1) * (p + 1)
    return result


def valuation(n: int, ell: int) -> int:
    """ord_ell(n) for n >= 1 and ell >= 2; anything else would never return
    (n = 0, ell = 1 or -1) or divide by zero (ell = 0), so it is refused."""
    if n < 1 or ell < 2:
        raise ValidationError(f"valuation needs n >= 1 and ell >= 2, got n={n}, ell={ell}")
    v = 0
    while n % ell == 0:
        v += 1
        n //= ell
    return v


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def is_fundamental(d: int) -> bool:
    """True iff ``d`` is a fundamental imaginary quadratic discriminant."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    if d % 4 == 0:
        m = d // 4
        return (-m) % 4 in (1, 2) and _squarefree(-m)
    return False


def _check_disc(delta: int) -> None:
    _check_int(delta)
    if delta >= 0 or delta % 4 not in (0, 1):
        raise ValidationError(f"not an imaginary quadratic discriminant: {delta}")


class OrderDisc(namedtuple("OrderDisc", "delta delta_K f")):
    """An imaginary quadratic discriminant split as delta = f^2 * delta_K."""

    __slots__ = ()

    def __new__(cls, delta: int, delta_K: int, f: int):
        self = tuple.__new__(cls, (delta, delta_K, f))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __post_init__
        return cls(*iterable)

    def __post_init__(self):
        _check_disc(self.delta)
        _check_int(self.delta_K, self.f)
        if self.f <= 0 or self.f * self.f * self.delta_K != self.delta:
            raise ValidationError(
                f"conductor mismatch: {self.f}^2 * {self.delta_K} != {self.delta}"
            )
        # -3 and -4, the two fields the fibers accept, are fundamental; any
        # other delta_K takes the factorizing test
        if self.delta_K not in (-3, -4) and not is_fundamental(self.delta_K):
            raise ValidationError(f"{self.delta_K} is not fundamental")

    @staticmethod
    @lru_cache(maxsize=256, typed=True)
    def from_parts(delta_K: int, f: int) -> "OrderDisc":
        # built and checked once per order; typed, so True never finds 1's entry
        return OrderDisc(f * f * delta_K, delta_K, f)

    def ell_valuation(self, ell: int) -> int:
        """ord_ell of the conductor."""
        return valuation(self.f, ell)


def split_discriminant(delta: int) -> OrderDisc:
    """Split ``delta`` into (delta_K, f) with delta_K fundamental."""
    _check_disc(delta)
    f = 1
    for p, e in factorize(-delta).items():
        f *= p ** (e // 2)
    d0 = delta // (f * f)
    # |d0| is squarefree; if d0 = 2, 3 mod 4 the fundamental part is 4*d0
    if d0 % 4 != 1:
        d0 *= 4
        f //= 2
    return OrderDisc(delta, d0, f)
