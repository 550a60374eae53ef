"""Pure-Python reduced-form census: the one loop that lists the reduced
forms, and the ``form_census`` count derived from it.

``form_census`` mirrors the compiled extension in ``_fastcore.pyx``;
``_kernel`` selects it at import time when the extension is unavailable.
"""

from math import gcd, isqrt

BACKEND = "pure"


def reduced_forms(delta: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b, c) of discriminant ``delta``, sorted.

    Conventions: -a < b <= a <= c, b >= 0 when a == c, gcd(a, b, c) = 1.
    The loop is b-major: a reduced form has 0 <= |b| <= a <= sqrt(|delta|/3),
    and for each b >= 0 its a are the divisors of (b^2 - delta)/4 in
    [max(b, 1), sqrt((b^2 - delta)/4)], which puts a <= c.
    """
    if delta >= 0 or delta % 4 not in (0, 1):
        raise ValueError(f"not an imaginary quadratic discriminant: {delta}")
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


def form_census(delta: int) -> tuple[int, int]:
    """Count reduced primitive forms of discriminant ``delta``.

    Returns ``(h, ambiguous)`` where ``h`` is the class number and
    ``ambiguous`` counts the reduced forms with b = 0, a = b or a = c.
    """
    forms = reduced_forms(delta)
    return len(forms), sum(1 for a, b, c in forms if b == 0 or a == b or a == c)
