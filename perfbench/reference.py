"""Reference arithmetic for checking cmlocus answers.

Nothing here imports cmlocus.  Each function is written from the textbook
formula, not from the library's code, so an agreement between the two is
evidence rather than a tautology:

* psi and phi from their prime-power definitions, over a plain trial
  division that only ever sees the benchmark's small-prime inputs;
* the Legendre/Kronecker symbol of -3 and -4 from Euler's criterion and
  the supplementary rule at 2 (the library uses quadratic reciprocity);
* h(f^2 dK) = f * prod_{p | f} (1 - (dK/p)/p) / [O_K^x : O^x] for the two
  fundamental discriminants with h_K = 1;
* #Pic(O)[2] = 2^(mu - 1) from genus theory (Cox, Primes of the Form
  x^2 + ny^2, Prop. 3.11 and Thm. 3.15).
"""

UNITS = {-3: 6, -4: 4}  # w_K = #O_K^x


def factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division; ``n`` must have no prime
    factor above 10^6 (the benchmark builds its inputs that way)."""
    if n < 1:
        raise ValueError(f"factor expects n >= 1, got {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
        if p > 10**6:
            raise ValueError("reference factorization limited to small primes")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def psi(n: int) -> int:
    """Index of Gamma_0(n) in SL_2(Z): n * prod_{p | n} (1 + 1/p)."""
    out = n
    for p in factor(n):
        out = out // p * (p + 1)
    return out


def phi(n: int) -> int:
    """Euler totient: n * prod_{p | n} (1 - 1/p)."""
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def chi(dK: int, p: int) -> int:
    """(dK / p) for dK in {-3, -4} and p prime."""
    if p == 2:
        if dK % 2 == 0:
            return 0
        return 1 if dK % 8 in (1, 7) else -1
    if dK % p == 0:
        return 0
    return 1 if pow(dK % p, (p - 1) // 2, p) == 1 else -1


def class_number(dK: int, f: int) -> int:
    """h(f^2 dK) by the class-number formula for orders (h_K = 1)."""
    num = f
    for p in factor(f):
        num = num // p * (p - chi(dK, p))
    index = 1 if f == 1 else UNITS[dK] // 2
    if num % index:
        raise ArithmeticError(f"non-integral class number for f={f}, dK={dK}")
    return num // index


def field_degree(base: str, m: int, dK: int) -> int:
    """[F : Q] for F = Q(m) (the rational ring class field, degree h) or
    K(m) (the ring class field, degree 2h)."""
    h = class_number(dK, m)
    if base == "K":
        return 2 * h
    if base == "Q":
        return h
    raise ValueError(f"unknown field base {base!r}")


def two_torsion(delta: int) -> int:
    """#Pic(O(delta))[2] = number of genera = 2^(mu - 1)."""
    if delta >= 0 or delta % 4 not in (0, 1):
        raise ValueError(f"not an imaginary quadratic discriminant: {delta}")
    if delta % 4 == 1:
        mu = sum(1 for p in factor(-delta) if p != 2)
    else:
        n = -delta // 4
        r = sum(1 for p in factor(n) if p != 2)
        if n % 4 == 3:
            mu = r
        elif n % 4 in (1, 2) or n % 8 == 4:
            mu = r + 1
        else:  # n = 0 mod 8
            mu = r + 2
    return 2 ** (mu - 1)


def x1_over_x0(N: int) -> tuple[int, int, int]:
    """(e, f, points) of X1(M,N) -> X0(M,N) over a non-elliptic CM point:
    unramified, one point, residual degree the full degree phi(N)/2 of the
    cover (1 when -1 is trivial mod N)."""
    return (1, phi(N) // 2 if N >= 3 else 1, 1)


def is_reduced_form(a: int, b: int, c: int, delta: int) -> bool:
    """Reduced primitive positive definite form of discriminant delta."""
    if b * b - 4 * a * c != delta or a <= 0:
        return False
    g = a
    for x in (abs(b), c):
        while x:
            g, x = x, g % x
    if g != 1:
        return False
    if not -a < b <= a <= c:
        return False
    return not (a == c and b < 0)
