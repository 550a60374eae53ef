"""Binary quadratic forms: reduction, censuses, genus theory, Gaussian
composition.

The O(|delta|) reduced-form census backs only ``reduced_forms`` and
``class_number``.  The 2-torsion order of the form class group, which is
also the per-level count of conjugation-fixed vertices in the isogeny
graph, comes from genus theory and needs only a factorization of delta.
"""

from functools import lru_cache
from math import gcd, isqrt

from .arith import ValidationError, _check_disc, factorize

DISC_CAP = 10**7  # census guard; O(|delta|) enumeration beyond this is refused


def reduced_forms(delta: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b, c) of discriminant ``delta``, sorted.

    Conventions: -a < b <= a <= c, b >= 0 when a == c, gcd(a, b, c) = 1.
    The loop is b-major: a reduced form has 0 <= |b| <= a <= sqrt(|delta|/3),
    and for each b >= 0 its a are the divisors of (b^2 - delta)/4 in
    [max(b, 1), sqrt((b^2 - delta)/4)], which puts a <= c.
    """
    _check_disc(delta)
    if -delta > DISC_CAP:
        raise ValidationError(f"|delta| exceeds census cap {DISC_CAP}")
    n = -delta
    out = []
    for b in range(delta % 2, isqrt(n // 3) + 1, 2):
        m = (b * b + n) // 4
        for a in [a for a in range(max(b, 1), isqrt(m) + 1) if m % a == 0]:
            c = m // a
            if gcd(a, b, c) == 1:
                out.append((a, b, c))
                if 0 < b < a < c:
                    out.append((a, -b, c))
    out.sort()
    return out


@lru_cache(maxsize=None)
def class_number(delta: int) -> int:
    """h(delta) by exhaustive reduced-form enumeration."""
    return len(reduced_forms(delta))


@lru_cache(maxsize=None)
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


def reduce_form(form: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss reduction of a positive definite form."""
    a, b, c = form
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
    a, b, c = form
    return reduce_form((a, -b, c))


def _represent_coprime_to(form, bound_val):
    # Find a primitive (x, y) whose represented value is coprime to bound_val.
    a, b, c = form
    for r in range(1, 40):
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                if gcd(x, y) != 1:
                    continue
                v = a * x * x + b * x * y + c * y * y
                if v != 0 and gcd(v, bound_val) == 1:
                    return x, y
    raise ValidationError("no coprime representation found")


def _transform_to_leading(form, x, y):
    # Change of basis sending (x, y) to the leading coefficient slot.
    a, b, c = form
    g, u, v = _ext_gcd(x, y)
    assert g == 1
    # matrix [[x, -v], [y, u]] has det 1
    a2 = a * x * x + b * x * y + c * y * y
    b2 = 2 * a * x * (-v) + b * (x * u - v * y) + 2 * c * y * u
    c2 = a * v * v - b * v * u + c * u * u
    return (a2, b2, c2)


def _ext_gcd(x, y):
    if y == 0:
        return (abs(x), 1 if x >= 0 else -1, 0)
    g, u, v = _ext_gcd(y, x % y)
    return (g, v, u - (x // y) * v)


def compose(f1, f2, delta: int) -> tuple[int, int, int]:
    """Gaussian composition of primitive forms of discriminant ``delta``."""
    a1, b1, _ = f1
    if gcd(a1, f2[0]) != 1:
        x, y = _represent_coprime_to(f2, a1)
        f2 = _transform_to_leading(f2, x, y)
    a2, b2, _ = f2
    assert gcd(a1, a2) == 1
    # Dirichlet composition: B = b1 (mod 2a1), B = b2 (mod 2a2); the moduli
    # share a factor 2, but b1 = b2 = delta (mod 2) keeps this solvable.
    t = (((b2 - b1) // 2) * pow(a1, -1, a2)) % a2
    B = b1 + 2 * a1 * t
    a3 = a1 * a2
    assert (B * B - delta) % (4 * a3) == 0
    c3 = (B * B - delta) // (4 * a3)
    return reduce_form((a3, B, c3))


def form_pow(form, k: int, delta: int) -> tuple[int, int, int]:
    result = principal_form(delta)
    base = reduce_form(form)
    if k < 0:
        base = inverse_form(base)
        k = -k
    while k:
        if k & 1:
            result = compose(result, base, delta)
        base = compose(base, base, delta)
        k >>= 1
    return result


def prime_form(delta: int, ell: int) -> tuple[int, int, int]:
    """A reduced form of leading coefficient ``ell`` (the class of a prime
    ideal above a non-inert prime ell)."""
    _check_disc(delta)
    for b in range(2 * ell):
        if (b * b - delta) % (4 * ell) == 0:
            return reduce_form((ell, b, (b * b - delta) // (4 * ell)))
    raise ValidationError(f"{ell} is inert in discriminant {delta}")


def is_ambiguous(form: tuple[int, int, int]) -> bool:
    a, b, c = reduce_form(form)
    return b == 0 or a == b or a == c


def class_group_order_of(form, delta: int) -> int:
    """Order of a form class in Pic(O(delta)) by iterated composition."""
    one = principal_form(delta)
    cur = reduce_form(form)
    n = 1
    while cur != one:
        cur = compose(cur, form, delta)
        n += 1
        if n > 4 * class_number(delta):
            raise AssertionError("runaway order computation")
    return n
