"""CM loci on X0(M,N): fibers over a CM point of X(1), residue fields,
point counts, primitive residue fields and degrees, and the transfer to
X1(M,N).

Each prime's path table gives its classes, ``lift_residue_prime_power``
lifts them to X0(ell^a', ell^a), and ``_prime_rows`` keeps both fields of
every lifted part as integers; ``_folds`` combines one row per prime and
multiplies the rows' conductor factors and their degree factors.
"""

from collections import namedtuple
from functools import lru_cache
from math import lcm

from .arith import (
    OrderDisc,
    ValidationError,
    _check_consistent,
    _check_int,
    _check_power,
    _factor_pairs,
    euler_phi,
    psi,
    valuation,
)
from .fields import (
    K,
    Q,
    _chi,
    _symbol,
    check_delta_K,
    minimal_fields,
    rcf_rel_degree,
    unit_count,
)
from .tables import PathClass, path_classes


ClosedPointClass = namedtuple(
    "ClosedPointClass", "field d e count path_type", defaults=(None,)
)
_Row = namedtuple("_Row", "count bhd m_down K_down d_down m_up K_up d_up descends")


class FiberReport(namedtuple("FiberReport", "M N order classes check_total")):
    __slots__ = ()

    @property
    def expected_total(self) -> int:
        return psi(self.N) * self.M * euler_phi(self.M)

    @property
    def psi_ok(self) -> bool:
        return self.check_total == self.expected_total


def _class_key(c: ClosedPointClass):
    return (c.field.base, c.field.m, c.path_type or (0, 0, 0))


def lift_residue_prime_power(order: OrderDisc, ell: int, a_prime: int, a: int):
    """The classes of X0(ell^a) lifted to X0(ell^a', ell^a): a tuple of
    (class, lifted field, count) in the order of path_classes(order, ell, a),
    with one part per class, or two where its points lift to two fields."""
    _check_int(a_prime)
    _check_power(ell, a)
    if not 0 <= a_prime <= a:
        raise ValidationError("need 0 <= a' <= a")
    return tuple(_lifts(order, ell, a_prime, a, path_classes(order, ell, a)))


def _lifts(order: OrderDisc, ell: int, a_prime: int, a: int, classes):
    """The unchecked core of lift_residue_prime_power over ``classes`` =
    path_classes(order, ell, a).

    Over a' = 0 a class keeps its field.  Otherwise the lift adjoins the
    ell^a'-torsion: K(lcm(ell^a' f, m)) for ell^a' >= 3 or an odd delta.  On
    X0(2, 2^a) over an even delta, scalarizing the 2-torsion adjoins the
    2-division field of the source curve, which is real: the field becomes
    lcm(2f, m) over the class's own base, except for the points that
    ``_K_lifts`` counts, which lift to K.
    """
    f, dK = order.f, order.delta_K
    for cls in classes:
        field, count = cls.field, cls.count
        if a_prime == 0:
            yield cls, field, count
        elif ell**a_prime > 2 or order.delta % 2:
            yield cls, K(lcm(ell**a_prime * f, field.m), dK), count
        else:
            m = lcm(2 * f, field.m)
            k = _K_lifts(order, a, cls)
            if k < count:
                yield cls, _symbol(field.base, m, dK), count - k
            if k:
                yield cls, K(m, dK), k


def _K_lifts(order: OrderDisc, a: int, cls: PathClass) -> int:
    """How many of the points of one class on X0(2^a) lift to a point of
    X0(2, 2^a) with field K(m) rather than two with the field of its base,
    for an even delta.

    All of them do where a surface horizontal step of a -4 f^2 tower, f odd,
    separates the two descents (a >= 2).  Otherwise only a class that starts
    by ascending (b >= 1, no horizontal step) with field Q(m), m > f, has such
    points.  X0(2, 2^a) is X0(2^(a+1)) by (E, C, Q) -> (E/<Q>, E/<Q> -> E ->
    E/C).  Here C[2] is the ascending kernel, so Q spans one of the two
    descending lines, and the lift of a (b, 0, d) path at conductor f is a
    (b + 1, 0, d) path at conductor 2f, in the tables of 2 at L + 1.  Below
    the top b (L over delta_K = -4, L - 1 over -3) that path is a K-class of
    count 1 (type V3 over -4, V4 over -3), so every point lifts to K(m).  At
    the top it is the mixed type (VI3 over -4, V3 over -3) at L + 1, whose
    K-points exceed twice the class's own (each of which lifts to two) by
    one fewer than the class's rational points: one of the two of VI3 and
    V3, none of the one of VI1 (L = 1) and of V1 over -3 at L = 2.  In the
    ring: on E[2] = O/2O = F2[eps], c is trivial and alpha = x + y tau swaps
    the two lines other than C[2] exactly when y is odd, so a lift holds K
    exactly when "y odd" and "not in the Cartan" agree on the stabilizer of
    C.  ``orbits.fiber_orbits`` checks the rule.
    """
    L = order.ell_valuation(2)
    if cls.horizontal:
        # L = 0 is an odd conductor: delta_K = -4
        return cls.count if a >= 2 and L == 0 else 0
    if cls.field.contains_K or cls.descents == a or cls.field.m == order.f:
        return 0
    top = L if order.delta_K == -4 else L - 1
    return cls.count if a - cls.descents < top else cls.count - 1


def _check_divides(M, N):
    _check_int(M, N)
    if M < 1 or N < 1 or N % M != 0:
        raise ValidationError(f"need M | N, got M={M}, N={N}")


@lru_cache(maxsize=1024, typed=True)
def _level(M: int, N: int):
    """The plan of a level M | N, shared by every order: its sorted (ell,
    a' = ord_ell M, a) with ell^a || N, scale = M phi(M), and the psi total
    psi(N) scale.  Read after _check_divides."""
    scale = M * euler_phi(M)
    primes = tuple((ell, valuation(M, ell), a) for ell, a in sorted(_factor_pairs(N)))
    return primes, scale, psi(N) * scale


@lru_cache(maxsize=2048, typed=True)
def _prime_rows(order: OrderDisc, ell: int, a_prime: int, a: int, classes):
    """One prime's rows of the fiber, one ``_Row`` per lifted part of
    ``classes`` = path_classes(order, ell, a); the caller reads that table
    itself, so each fiber reads each prime's table once.

    m_down and m_up are the ell-parts k = m / f of the conductors of the
    class's field and of its lift, d_down and d_up their degree factors
    [K(k f_ell) : K(f_ell)] = k - (k // ell) chi, chi = (delta_K / ell) or 0 if ell | f.
    """
    f = order.f
    chi = 0 if f % ell == 0 else _chi(order.delta_K, ell)
    rows = []
    for cls, up, count in _lifts(order, ell, a_prime, a, classes):
        k, k_up = cls.field.m // f, up.m // f
        rows.append(_Row(count, cls.bhd, k, cls.field.contains_K, k - k // ell * chi,
                         k_up, up.contains_K, k_up - k_up // ell * chi, cls.descents > 0))
    return tuple(rows)


def _folds(order: OrderDisc, M: int, scale: int, per_prime) -> dict:
    """The fiber's classes as {(contains_K, m, e, tag, d): count}, folded on
    integers from every combination of the per-prime rows, in the order in
    which ``product`` over the rows first reaches each class; scale =
    M phi(M) and d = [field : Q(f)].

    Downstairs (on X0(N)) and lifted (on X0(M,N)) alike, a combination's
    field holds K when any of its rows does, and its conductor m is f times
    the product of the rows' m's.  By the class number formula [K(m) : K(f)]
    is the product of their d's, over w_K / 2 where f = 1 < m; d doubles it
    for K.  The count is 2^(s-1) M phi(M) e_down d_down / (e_up d_up), with
    s the number of downstairs classes that hold K.  ``orbits.fiber_orbits``
    is the independent check of this rule.

    The rows of every prime but the last fold, prime by prime, into partial
    states (multiplicity, the two factors and degrees, the lifted K flag, s,
    descends), one per combination so far; a single prime's rows meet the
    one empty state.
    """
    f, dK = order.f, order.delta_K
    w2 = unit_count(dK) // 2 if f == 1 else 1
    states = [(1, 1, 1, 1, False, 1, 0, False)]
    for rows in per_prime[:-1]:
        states = [
            (n * c, md * md2, dd * dd2, mu * mu2, ku or ku2, du * du2, s + kd2, ds or ds2)
            for n, md, dd, mu, ku, du, s, ds in states
            for c, _, md2, kd2, dd2, mu2, ku2, du2, ds2 in rows
        ]
    single = len(per_prime) == 1
    merged: dict = {}
    for n, md, dd, mu, ku, du, s, ds in states:
        for c, tag, md2, kd2, dd2, mu2, ku2, du2, ds2 in per_prime[-1]:
            s_down, m_down = s + kd2, f * md * md2
            d_down = (dd * dd2 // w2 if m_down > f else 1) * (2 if s_down else 1)
            e_down = w2 if ds or ds2 else 1
            if M == 1:
                k_up, m_up, d_up, e_up = s_down > 0, m_down, d_down, e_down
            else:
                k_up, m_up, e_up = ku or ku2, f * mu * mu2, w2
                d_up = (du * du2 // w2 if m_up > f else 1) * (2 if k_up else 1)
            num = 2 ** max(s_down - 1, 0) * scale * e_down * d_down
            den = e_up * d_up
            if num % den != 0:
                raise ValidationError("non-integral point count: inconsistent data")
            key = (k_up, m_up, e_up, tag if single else None, d_up)
            merged[key] = merged.get(key, 0) + num // den * n * c
    return merged


def fiber_X0MN(order: OrderDisc, M: int, N: int) -> FiberReport:
    """The full fiber of X0(M,N) -> X(1) over the CM point of ``order``."""
    _check_divides(M, N)
    f, dK = order.f, order.delta_K
    if N == 1:
        cls = ClosedPointClass(Q(f, dK), 1, 1, 1, (0, 0, 0))
        return FiberReport(M, N, order, (cls,), 1)
    primes, scale, expected = _level(M, N)
    # each prime's table is read here, outside the cached _prime_rows: the
    # perfbench tracer counts a fiber's combinations from these reads
    per_prime = [
        _prime_rows(order, ell, a_prime, a, path_classes(order, ell, a))
        for ell, a_prime, a in primes
    ]
    out, total = [], 0
    for (has_K, m, e, tag, d), count in _folds(order, M, scale, per_prime).items():
        out.append(ClosedPointClass(_symbol("K" if has_K else "Q", m, dK), d, e, count, tag))
        total += e * d * count
    if total != expected:
        raise AssertionError(
            f"fiber degree check failed for (delta={order.delta}, M={M}, N={N}): "
            f"{total} != {expected}"
        )
    return FiberReport(M, N, order, tuple(sorted(out, key=_class_key)), total)


# -- primitive residue fields ------------------------------------------------


def enumerated_primitive(order: OrderDisc, M: int, N: int):
    """Minimal residue fields of the enumerated X0(M,N) fiber; the
    independent route against the casework in :func:`primitive_X0MN`."""
    return minimal_fields([c.field for c in fiber_X0MN(order, M, N).classes])


@lru_cache(maxsize=2048, typed=True)
def _primitive_row(order: OrderDisc, ell: int, a_prime: int, a: int):
    """One prime's primitive casework as integers (b, c, split_deep, q,
    q_deg, k, k_deg): the primitive fields on X0(ell^a', ell^a) are
    Q(ell^b f) and K(ell^c f), each where its exponent is not None, and
    split_deep is ``_split_deep_level``.  q = ell^b and k = ell^c (ell^b
    where c is None) are the parts of the conductors over the primes, with
    the degree factors of ``_prime_rows``.  The unchecked core of
    primitive_X0MN, which takes ell^a from a level that passed factorize."""
    # no field is built here, so a refused delta_K must raise before caching
    check_delta_K(order.delta_K)
    if a_prime == 0:
        b, c = _primitive_base(order, ell, a)
    elif ell**a_prime >= 3:
        chiK = _chi(order.delta_K, ell)
        L = order.ell_valuation(ell)
        b, c = None, a_prime if chiK == 1 else max(a_prime, a - 2 * L - (chiK == 0))
    elif order.delta % 2 != 0:
        # ell^{a'} = 2; an odd delta = -3 f^2 has 2 inert in its order
        b, c = None, a
    else:
        b, c = _primitive_two_even(order, a)
    chi = 0 if order.f % ell == 0 else _chi(order.delta_K, ell)
    q, k = None if b is None else ell**b, ell ** (b if c is None else c)
    q_deg = None if b is None else q - q // ell * chi
    return b, c, _split_deep_level(order, ell, a), q, q_deg, k, k - k // ell * chi


def _primitive_base(order: OrderDisc, ell: int, a: int):
    """(b, c) on X0(ell^a)."""
    L = order.ell_valuation(ell)
    chiK = _chi(order.delta_K, ell)
    chi = 0 if L else chiK  # (delta / ell)
    if ell**a == 2:
        return int(chi == -1), None
    if L == 0:
        return a - (chi == 0), 0 if chi == 1 else None
    if ell > 2:
        t = a - 2 * L - (chiK == 0)
        if t <= 0:
            return 0, None
        return t, 0 if chiK == 1 else None
    # ell = 2, a >= 2, L >= 1; 2 is inert (delta_K = -3) or ramified (-4)
    if chiK == -1:
        if a <= 2 * L - 2:
            return 0, None
        return a - 2 * L + 2, max(a - 2 * L, 0)
    if a <= 2 * L:
        return 0, None
    return a - 2 * L, a - 2 * L - 1


def _primitive_two_even(order: OrderDisc, a: int):
    """(b, c) on X0(2, 2^a) over an even discriminant."""
    L = order.ell_valuation(2)
    if a == 1:
        return 1, None
    if L == 0:  # an odd conductor: delta_K = -4
        return a, a - 1
    if order.delta_K == -3:
        if a <= 2 * L - 1:
            return 1, None
        if a == 2 * L:
            return 2, 1
        return a - 2 * L + 2, a - 2 * L
    if a <= 2 * L + 1:
        return 1, None
    return a - 2 * L, a - 2 * L - 1


def _split_deep_level(order: OrderDisc, ell: int, a: int) -> bool:
    """The one regime where the rational and ring-class primitive degrees
    stay incomparable: ell odd and split, below-surface start, path length
    beyond twice the starting depth."""
    L = order.ell_valuation(ell)
    return ell > 2 and L >= 1 and _chi(order.delta_K, ell) == 1 and a > 2 * L


def primitive_X0MN(order: OrderDisc, M: int, N: int):
    """Primitive residue fields and primitive degrees on X0(M,N)."""
    _check_divides(M, N)
    dK, f = order.delta_K, order.f
    rows = [_primitive_row(order, ell, a_prime, a) for ell, a_prime, a in _level(M, N)[0]]
    # the degrees multiply the rows' factors, as in _folds
    base, w2 = rcf_rel_degree(dK, f), (unit_count(dK) // 2 if f == 1 else 1)
    C = dC = 1
    for *_, k, k_deg in rows:
        C, dC = C * k, dC * k_deg
    kdeg = 2 * base * (dC // w2 if C > 1 else 1)
    if M == 1 or (M == 2 and order.delta % 2 == 0):
        # every prime lists a rational field on this branch, so b is an int
        B = dB = 1
        split_deep = []
        for _, c, sd, q, q_deg, _, _ in rows:
            B, dB = B * q, dB * q_deg
            if c is not None:
                split_deep.append(sd)
        qfield, qdeg = Q(B * f, dK), base * (dB // w2 if B > 1 else 1)
        if not split_deep:
            return ([qfield], [qdeg])
        degrees = sorted({qdeg, kdeg}) if all(split_deep) else [kdeg]
        return ([qfield, K(C * f, dK)], degrees)
    return ([K(C * f, dK)], [kdeg])


# -- X1(M,N) transfer ---------------------------------------------------------


def elliptic_compatible(order: OrderDisc, M: int, N: int) -> bool:
    """Whether X0(M,N) has an elliptic CM point over this order: the order
    has extra units (delta in {-3, -4}), M = 1, and every prime of N admits a
    completely horizontal path."""
    if order.delta not in (-3, -4) or M != 1:
        return False
    for ell, a in _factor_pairs(N):
        chi = _chi(order.delta, ell)
        if chi == -1 or (chi == 0 and a >= 2):
            return False
    return True


def x1_fiber(order: OrderDisc, M: int, N: int, point_kind: str = "non-elliptic"):
    """(e, f, 1) for the unique point of X1(M,N) over a CM point of X0(M,N)."""
    _check_divides(M, N)
    if point_kind not in ("elliptic", "non-elliptic"):
        raise ValidationError(f"unknown point kind {point_kind!r}")
    if point_kind == "elliptic":
        if not elliptic_compatible(order, M, N):
            raise ValidationError(
                f"X0({M},{N}) has no elliptic point over discriminant {order.delta}"
            )
        if N <= 3:
            # the units act through (Z/N)^*/{+-1}, which is trivial here
            return (1, 1, 1)
        e = 2 if order.delta == -4 else 3
        phi = euler_phi(N)
        _check_consistent(phi % (2 * e) == 0, f"phi({N}) is not a multiple of w_K")
        return (e, phi // (2 * e), 1)
    f_deg = euler_phi(N) // 2 if N >= 3 else 1
    return (1, f_deg, 1)

