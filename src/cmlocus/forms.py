"""Binary quadratic forms: reduction, censuses, genus theory, Gaussian
composition.

The reduced-form census, one sieve that factors every (b^2 - delta)/4,
backs only ``reduced_forms`` and ``class_number``.  The 2-torsion order
of the form class group, which is also the per-level count of
conjugation-fixed vertices in the isogeny graph, comes from genus theory
and needs only a factorization of delta.
"""

from functools import lru_cache
from math import gcd, isqrt

from .arith import (
    ValidationError,
    _check_consistent,
    _check_disc,
    _check_int,
    _check_power,
    _check_prime,
    factorize,
    kronecker,
)

DISC_CAP = 10**7  # census guard; a census beyond this is refused


def reduced_forms(delta: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b, c) of discriminant ``delta``, sorted.

    Conventions: -a < b <= a <= c, b >= 0 when a == c, gcd(a, b, c) = 1.
    A reduced form has 0 <= |b| <= a <= sqrt(|delta|/3), and for each
    b >= 0 its a are the divisors of m = (b^2 - delta)/4 in
    [max(b, 1), sqrt(m)], which puts a <= c.  One sieve over b factors
    every such m (``_census_divisors``), so a census takes about
    O(sqrt(|delta|) log |delta|) steps and tries only the divisors of m.
    """
    _check_disc(delta)
    if -delta > DISC_CAP:
        raise ValidationError(f"|delta| exceeds census cap {DISC_CAP}")
    p = delta % 2
    out = []
    for t, (m, divisors) in enumerate(_census_divisors(delta)):
        b = p + 2 * t
        for a in divisors:
            c = m // a
            if a >= b and gcd(a, b, c) == 1:
                out.append((a, b, c))
                if 0 < b < a < c:
                    out.append((a, -b, c))
    out.sort()
    return out


def _census_divisors(delta: int) -> list[tuple[int, list[int]]]:
    # (m, the divisors a of m with a^2 <= m) for m(t) = (b^2 - delta)/4 at
    # every b = p + 2t <= sqrt(|delta|/3), p = delta mod 2.  m(t) is the
    # quadratic t^2 + p*t + (p - delta)/4 of discriminant delta, so an odd
    # prime q divides m(t) exactly when t = (-p +- s)/2 (mod q) for
    # s^2 = delta (mod q).  One sieve pass per prime q <= sqrt(m(T)) finds
    # every prime factor of each m(t) but at most one, and that one exceeds
    # sqrt(m(t)), so it is a factor of no a <= sqrt(m(t)).
    p = delta % 2
    top = (isqrt(-delta // 3) - p) // 2
    ms = [t * t + p * t + (p - delta) // 4 for t in range(top + 1)]
    roots = [isqrt(m) for m in ms]
    divs = [[1] for _ in ms]
    for q in _primes_upto(roots[-1]):
        if q == 2:
            starts = [t for t in (0, 1) if t <= top and ms[t] % 2 == 0]
        elif delta % q == 0:
            starts = [-p * (q + 1) // 2 % q]
        elif pow(delta % q, (q - 1) // 2, q) == 1:
            s = _sqrt_mod(delta, q)
            starts = [(-p + s) * (q + 1) // 2 % q, (-p - s) * (q + 1) // 2 % q]
        else:
            continue
        for start in starts:
            for t in range(start, top + 1, q):
                m, layer = ms[t], divs[t]
                _check_consistent(m % q == 0, "census sieve: q misses m(t) on its root class")
                # multiply in q, q^2, ... while q^k | m; a divisor above
                # sqrt(m) has only larger multiples, so it is dropped
                last, qk = roots[t] // q, q
                while layer and m % qk == 0:
                    layer = [d * q for d in layer if d <= last]
                    divs[t] += layer
                    qk *= q
    return list(zip(ms, divs))


def _primes_upto(k: int) -> list[int]:
    # the primes <= k (sieve of Eratosthenes)
    sieve = bytearray(2) + bytearray([1]) * (k - 1)
    for i in range(2, isqrt(k) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, k + 1, i)))
    return [i for i in range(k + 1) if sieve[i]]


@lru_cache(maxsize=256)
def class_number(delta: int) -> int:
    """h(delta) by exhaustive reduced-form enumeration."""
    return len(reduced_forms(delta))


@lru_cache(maxsize=1024)
def two_torsion_count(delta: int) -> int:
    """Order of Pic(O(delta))[2] by genus theory: 2^(mu - 1), where mu is
    the number of assigned characters of delta (Cox, *Primes of the Form
    x^2 + ny^2*, Prop. 3.11 and Thm. 3.15).  It equals the number of
    ambiguous reduced forms, but needs only a factorization of delta."""
    _check_disc(delta)
    mu = sum(1 for p in factorize(-delta) if p != 2)
    if delta % 4 == 0:
        n = -delta // 4
        if n % 8 == 0:
            mu += 2
        elif n % 4 != 3:  # n = 1, 2 (mod 4) or n = 4 (mod 8)
            mu += 1
    return 2 ** (mu - 1)


def _check_form(form, delta=None) -> None:
    # a positive definite form (a, b, c) of ints, of discriminant ``delta``
    # when one is given; reduction would never end on an indefinite form
    if not isinstance(form, tuple) or len(form) != 3:
        raise ValidationError(f"a form is a tuple (a, b, c), got {form!r}")
    _check_int(*form)
    a, b, c = form
    disc = b * b - 4 * a * c
    if a <= 0 or disc >= 0:
        raise ValidationError(f"not a positive definite form: {form!r}")
    if delta is not None and disc != delta:
        raise ValidationError(f"{form!r} does not have discriminant {delta}")


def reduce_form(form: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss reduction of a positive definite form."""
    _check_form(form)
    return _reduce(*form)


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    while True:
        if -a < b <= a <= c:
            if a == c and b < 0:
                b = -b
            return (a, b, c)
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
        else:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c


def principal_form(delta: int) -> tuple[int, int, int]:
    _check_disc(delta)
    b = delta % 2
    return (1, b, (b * b - delta) // 4)


def inverse_form(form: tuple[int, int, int]) -> tuple[int, int, int]:
    _check_form(form)
    a, b, c = form
    return _reduce(a, -b, c)


def _ext_gcd(x, y):
    if y == 0:
        return (abs(x), 1 if x >= 0 else -1, 0)
    g, u, v = _ext_gcd(y, x % y)
    return (g, v, u - (x // y) * v)


def compose(f1, f2, delta: int) -> tuple[int, int, int]:
    """Gaussian composition of primitive forms of discriminant ``delta``
    (Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 5.4.7)."""
    _check_disc(delta)
    _check_form(f1, delta)
    _check_form(f2, delta)
    return _compose(f1, f2, delta)


def _compose(f1, f2, delta: int) -> tuple[int, int, int]:
    # the unchecked core of compose: two forms of discriminant delta
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    d, y1, _ = _ext_gcd(a2, a1)  # d = y1*a2 + v*a1
    d1, x2, y2 = _ext_gcd(s, d)  # d1 = x2*s + y2*d
    v1 = a1 // d1
    v2 = a2 // d1
    r = (-y1 * y2 * (b2 - s) - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    _check_consistent((b3 * b3 - delta) % (4 * a3) == 0, "composition left a non-integral c")
    return _reduce(a3, b3, (b3 * b3 - delta) // (4 * a3))


def prime_form(delta: int, ell: int) -> tuple[int, int, int]:
    """A reduced form of leading coefficient ``ell`` (the class of a prime
    ideal above a non-inert prime ell)."""
    _check_disc(delta)
    _check_power(ell, 1)  # Miller-Rabin is deterministic up to FACTOR_LIMIT
    _check_prime(ell)
    if kronecker(delta, ell) == -1:
        raise ValidationError(f"{ell} is inert in discriminant {delta}")
    if ell == 2:
        b = next(b for b in range(4) if (b * b - delta) % 8 == 0)
    else:
        # b^2 = delta (mod 4 ell) means b = +-sqrt(delta) (mod ell) and
        # b = delta (mod 2); the least such b in [0, 2 ell), which is the
        # first hit of a scan over b
        r = _sqrt_mod(delta, ell)
        b = min(s if (s - delta) % 2 == 0 else s + ell for s in (r, (ell - r) % ell))
    return _reduce(ell, b, (b * b - delta) // (4 * ell))


def _sqrt_mod(n: int, p: int) -> int:
    # a square root of n modulo an odd prime p, n a square mod p
    # (Tonelli-Shanks)
    n %= p
    if n == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    t, r = pow(n, q, p), pow(n, (q + 1) // 2, p)
    if t == 1:
        return r
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def is_ambiguous(form: tuple[int, int, int]) -> bool:
    _check_form(form)
    a, b, c = _reduce(*form)
    return b == 0 or a == b or a == c
