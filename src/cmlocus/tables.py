"""Normative path-type tables for the fiber of X0(l^a) -> X(1) over a CM
point of the orders inside Q(i) and Q(sqrt(-3)).

Every closed point class of the fiber is listed with its path shape
(b, h, d) = (ascents, horizontal steps, descents), the number of classes of
that exact shape and field, and the residue field.  Dispatch is on
L = ord_l(conductor), the splitting symbol of the fundamental discriminant
at l, and (for l = 2) whether 2 is inert (delta_K = -3) or ramified
(delta_K = -4) in K; 2 never splits, since delta_K is not 1 mod 8.

The isogeny-graph walker in ``pathstats`` rederives the path totals from
graph structure; these tables stay the source of truth for the Galois
grouping into closed points.
"""

from collections import Counter, namedtuple
from functools import lru_cache

from .arith import (
    OrderDisc,
    ValidationError,
    _check_consistent,
    _check_power,
    _check_prime,
    psi,
)
from .fields import K, Q, _chi, check_delta_K, field_degree, rcf_rel_degree, unit_count


class PathClass(namedtuple("PathClass", "bhd field count type_tag")):
    """One closed point class: path shape (b, h, d), residue field,
    multiplicity and table type tag."""

    __slots__ = ()

    @property
    def descents(self) -> int:
        return self.bhd[2]

    @property
    def horizontal(self) -> int:
        return self.bhd[1]


@lru_cache(maxsize=1024, typed=True)
def path_classes(order: OrderDisc, ell: int, a: int) -> tuple[PathClass, ...]:
    """All closed point classes of X0(ell^a) -> X(1) over the CM point of
    ``order``, for delta_K in {-3, -4}.

    Each table is built and checked against psi(ell^a) once per process and
    then shared, hence a tuple; a rejected input raises on every call.
    """
    check_delta_K(order.delta_K)
    _check_prime(ell)
    _check_power(ell, a)
    if a < 1:
        raise ValidationError("a must be >= 1")
    dK = order.delta_K
    f = order.f
    L = order.ell_valuation(ell)
    sym = _chi(dK, ell)
    out: list[PathClass] = []

    def add(tag, b, h, d, field, count):
        if count > 0:
            out.append(PathClass((b, h, d), field, count, tag))

    # types shared by every prime
    add("I", 0, 0, a, Q(ell**a * f, dK), 1)
    if a <= L:
        add("II", a, 0, 0, Q(f, dK), 1)
    if L == 0 and sym == 0:
        add("III", 0, 1, a - 1, Q(ell ** (a - 1) * f, dK), 1)
    if L == 0 and sym == 1:
        for h in range(1, a + 1):
            add("IV", 0, h, a - h, K(ell ** (a - h) * f, dK), 1)
    if L >= 1 and a - L >= 1 and sym == 1:
        add("X", L, a - L, 0, K(f, dK), 1)

    if ell > 2:
        if L >= 2:
            for b in range(1, min(a - 1, L - 1) + 1):
                n = (ell - 1) // 2 * ell ** (min(b, a - b) - 1)
                add("V", b, 0, a - b, K(ell ** max(a - 2 * b, 0) * f, dK), n)
        if a > L >= 1 and sym == -1:
            m = ell ** max(a - 2 * L, 0) * f
            add("VI", L, 0, a - L, Q(m, dK), 1)
            add("VI", L, 0, a - L, K(m, dK), (ell ** min(L, a - L) - 1) // 2)
        if a >= L + 1 >= 2 and sym == 0:
            m = ell ** max(a - 2 * L, 0) * f
            n = (ell - 1) // 2 * ell ** (min(L, a - L) - 1)
            add("VII", L, 0, a - L, K(m, dK), n)
            m1 = ell ** max(a - 2 * L - 1, 0) * f
            add("VIII", L, 1, a - L - 1, Q(m1, dK), 1)
            add("VIII", L, 1, a - L - 1, K(m1, dK), (ell ** min(L, a - L - 1) - 1) // 2)
        if a >= L + 1 >= 2 and sym == 1:
            m = ell ** max(a - 2 * L, 0) * f
            add("IX", L, 0, a - L, Q(m, dK), 1)
            add("IX", L, 0, a - L, K(m, dK), ((ell - 2) * ell ** (min(L, a - L) - 1) - 1) // 2)
            for h in range(1, a - L):
                mh = ell ** max(a - 2 * L - h, 0) * f
                add("XI", L, h, a - L - h, K(mh, dK), (ell - 1) * ell ** (min(L, a - L - h) - 1))
    else:
        _ell2_classes(dK, f, L, a, sym, add)

    total = sum(_weight(order, c, ell) for c in out)
    if total != psi(ell**a):
        raise AssertionError(
            f"table inconsistency at (dK={dK}, f={f}, l={ell}, a={a}): "
            f"sum e*d*count = {total} != psi = {psi(ell ** a)}"
        )
    return tuple(out)


def _ell2_classes(dK: int, f: int, L: int, a: int, sym: int, add) -> None:
    if sym == -1:
        # delta_K = -3: 2 is inert
        if L >= 2 and a >= 2:
            add("V1", 1, 0, a - 1, Q(2 ** (a - 2) * f, dK), 1)
        if L >= a >= 3:
            add("V2", a - 1, 0, 1, Q(f, dK), 1)
        if a > L >= 3:
            m = 2 ** max(a - 2 * L + 2, 0) * f
            add("V3", L - 1, 0, a - L + 1, Q(m, dK), 2)
            add("V3", L - 1, 0, a - L + 1, K(m, dK), 2 ** (min(a - L + 1, L - 1) - 2) - 1)
        for b in range(2, min(L - 2, a - 2) + 1):
            add("V4", b, 0, a - b, K(2 ** max(a - 2 * b, 0) * f, dK), 2 ** (min(b, a - b) - 2))
        if a > L >= 1:
            add("VI", L, 0, a - L, K(2 ** max(a - 2 * L, 0) * f, dK), 2 ** (min(L, a - L) - 1))
        return

    # delta_K = -4: 2 is ramified
    if L >= 2 and a >= 2:
        add("V1", 1, 0, a - 1, Q(2 ** (a - 2) * f, dK), 1)
    if L >= a >= 3:
        add("V2", a - 1, 0, 1, Q(f, dK), 1)
    for b in range(2, min(L - 1, a - 2) + 1):
        add("V3", b, 0, a - b, K(2 ** max(a - 2 * b, 0) * f, dK), 2 ** (min(b, a - b) - 2))
    if a > L >= 1:
        if L == 1:
            add("VI1", L, 0, a - L, Q(2 ** max(a - 2, 0) * f, dK), 1)
        elif a == L + 1:
            add("VI2", L, 0, a - L, Q(f, dK), 1)
        else:  # a >= L+2 >= 4
            m = 2 ** max(a - 2 * L, 0) * f
            add("VI3", L, 0, a - L, Q(m, dK), 2)
            add("VI3", L, 0, a - L, K(m, dK), 2 ** (min(L, a - L) - 2) - 1)
    if a >= L + 1 >= 2:
        if a == L + 1:
            add("VIII1", L, 1, 0, Q(f, dK), 1)
        else:
            m = 2 ** max(a - 2 * L - 1, 0) * f
            add("VIII2", L, 1, a - L - 1, K(m, dK), 2 ** (min(L, a - 1 - L) - 1))


def class_e(order: OrderDisc, cls: PathClass) -> int:
    """Ramification index over X(1): w_K/2 for a non-horizontal class over
    the maximal orders, 1 otherwise."""
    if order.f != 1:
        return 1
    if cls.descents == 0:
        return 1
    return 2 if order.delta_K == -4 else 3


def class_d(order: OrderDisc, cls: PathClass) -> int:
    """Residual degree over Q(J_delta)."""
    num = field_degree(cls.field)
    den = rcf_rel_degree(order.delta_K, order.f)
    _check_consistent(num % den == 0, "residual degree is not an integer")
    return num // den


def _weight(order: OrderDisc, cls: PathClass, ell: int) -> int:
    # class_d from the class's ell-part k = m / f, as locus._prime_rows takes
    # it, so no conductor f ell^j past the guard is factorized
    f, k = order.f, cls.field.m // order.f
    d = k - k // ell * (0 if f % ell == 0 else _chi(order.delta_K, ell))
    if f == 1 < k:
        d //= unit_count(order.delta_K) // 2
    return class_e(order, cls) * d * (2 if cls.field.contains_K else 1) * cls.count


def type_weights(order: OrderDisc, ell: int, a: int) -> Counter:
    """Sum of e * d * count over the classes of each path shape (b, h, d):
    the per-shape path totals the walker in ``pathstats`` rederives."""
    out = Counter()
    for c in path_classes(order, ell, a):
        out[c.bhd] += _weight(order, c, ell)
    return out


def real_points(order: OrderDisc, ell: int, a: int) -> Counter:
    """Real geometric points of each path shape (b, h, d): every rational
    class times the real conjugates of its j-invariant, #Pic[2] of
    m^2 delta_K for the class's conductor m."""
    from .forms import two_torsion_count

    out = Counter()
    for c in path_classes(order, ell, a):
        if not c.field.contains_K:
            out[c.bhd] += c.count * two_torsion_count(c.field.m**2 * order.delta_K)
    return out
