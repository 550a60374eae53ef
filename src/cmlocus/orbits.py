"""Galois orbits of CM points on X0(M,N): an oracle for the fiber of
X0(M,N) -> X(1) over J_delta that reads no path table and no field rule.

The curve.  X0(M,N), for M | N, is the modular curve X_H of level N with

    H = {g in GL2(Z/N) : g = [[a, b], [0, d]] mod N, g = scalar mod M},

the Borel group B(N) cut down to the matrices that are scalar mod M.  A
basis (e1, e2) of E[N] up to H is the same as a pair (C, [P, Q]): C = <e1>
is cyclic of order N, (P, Q) = (N/M)(e1, e2) is a basis of E[M] with
<P> = C[M], and [P, Q] is the pair up to a common scalar of (Z/M)^*.  There
are [GL2(Z/N) : H] = psi(N) M phi(M) such pairs, the degree of
X0(M,N) -> X(1) (``FiberReport.expected_total``); M = 1 is X0(N).

The action.  Let O = Z[tau] of discriminant delta = f^2 delta_K, with
tau = (delta + sqrt(delta))/2, so tau^2 = delta tau - (delta^2 - delta)/4.
A curve with CM by O is C/O, and E[N] = N^-1 O / O = O/NO, with E[M] the
classes of (N/M) O, so that C[M] is v mod M in O/MO when C = <v>.  By
Shimura reciprocity (Stevenhagen; Bourdon-Clark, "Torsion points and Galois
representations on CM elliptic curves") Gal(Qbar/Q(j)) acts on E[N] modulo
Aut(E) = O^* through the full group (O/NO)^* x| <c>: the Cartan (O/NO)^*
by multiplication, and c by x + y tau -> x + y conj(tau), with
conj(tau) = delta - tau.

The fiber.  A geometric point over J_delta is an O^*-orbit of pairs, and
its ramification index e is the size of that orbit.  A closed point is an
orbit of the whole group; d = |orbit| / e is its residual degree over
Q(J_delta).  K lies in its residue field F exactly when no c alpha maps a
pair x into O^* x, that is when c(x) is not in the Cartan orbit of x.  The
stabilizer S of O^* x in the Cartan is, modulo O^*, the Galois group over
K F of the ray class field of conductor N of O, and K F is the ring class
field K(m f) for the m | N with H_m = {alpha = r u mod mO : r in Z,
u in O^*} inside S of least degree; the oracle checks
[Cartan : S] = [K(m f) : K(f)] by the class number formula, so a residue
field that were no ring class field would fail loudly.

Nothing here reads a path table: the oracle imports only ``arith``.  It
walks orbits with a union-find over a few generators of each group, so its
cost is about psi(N) M phi(M) times the number of generators.
"""

from collections import Counter
from functools import lru_cache
from math import gcd

from .arith import (
    OrderDisc,
    ValidationError,
    _check_consistent,
    _check_int,
    euler_phi,
    factorize,
    kronecker,
    psi,
)

# the oracle walks psi(N) M phi(M) pairs (C, [P, Q]) and a table of the N^2
# vectors of (Z/N)^2; it refuses a level where either passes this bound
OBJECT_LIMIT = 10**5


def _mul(u, v, t, n, N):
    # (a + b tau)(x + y tau) mod N, with tau^2 = t tau - n
    a, b = u
    x, y = v
    return (a * x - b * y * n) % N, (a * y + b * x + b * y * t) % N


@lru_cache(maxsize=8)
def _lines(N: int):
    """The cyclic subgroups of order N of (Z/N)^2: a generator of each, and
    every generator w of every one mapped to (index, s^-1) with
    w = s * reps[index]."""
    units = [s for s in range(N) if gcd(s, N) == 1]
    inverse = {s: pow(s, -1, N) if N > 1 else 0 for s in units}
    reps, index = [], {}
    for x in range(N):
        for y in range(N):
            if gcd(gcd(x, y), N) != 1 or (x, y) in index:
                continue
            for s in units:
                index[(s * x % N, s * y % N)] = (len(reps), inverse[s])
            reps.append((x, y))
    return tuple(reps), index


@lru_cache(maxsize=256)
def _residue_gens(t: int, n: int, ell: int):
    """Generators of (O/ell O)^*, found greedily in the ring O/ell O."""
    gens, seen = [], {(1, 0)}
    for x in range(ell):
        for y in range(ell):
            g = (x, y)
            if g in seen or (x * x + x * y * t + y * y * n) % ell == 0:
                continue
            gens.append(g)
            frontier = list(seen)
            while frontier:
                nxt = []
                for h in frontier:
                    for k in gens:
                        p = _mul(h, k, t, n, ell)
                        if p not in seen:
                            seen.add(p)
                            nxt.append(p)
                frontier = nxt
    return tuple(gens)


def _local_gens(t, n, ell, a, k):
    """Generators of the kernel of (O/ell^a O)^* -> (O/ell^k O)^*, k <= a.

    For k >= 1 that kernel is 1 + ell^k O, generated by 1 + ell^j and
    1 + ell^j tau for j in {k, k + 1} (the logarithm makes 1 + ell^j O free
    on those two for ell odd or j >= 2); for k = 0 it is the whole group,
    so lifts of generators of (O/ell O)^* join the ones of 1 + ell O."""
    q = ell**a
    gens = [(x % q, y % q) for x, y in _residue_gens(t % ell, n % ell, ell)] if k == 0 else []
    for j in (max(k, 1), max(k, 1) + 1):
        if j < a:
            gens += [((1 + ell**j) % q, 0), (1, ell**j % q)]
    return gens


def _crt_lift(g, q, N):
    # the element that is g mod q and 1 mod N/q
    r = N // q
    e = r * pow(r, -1, q) % N if q > 1 else 0  # 1 mod q, 0 mod N/q
    return ((1 + (g[0] - 1) * e) % N, g[1] * e % N)


class _Level:
    """The group data of one (order, N): the multiplication constants, the
    generators of the Cartan and of each H_m, and the unit generator."""

    def __init__(self, order: OrderDisc, N: int):
        delta = order.delta
        self.N = N
        self.t, self.n = delta % N, (delta * delta - delta) // 4 % N
        self.fac = factorize(N)
        # a generator of O^* (tau + 2 is i over -4 and (1 + sqrt(-3))/2 over
        # -3); every other order has O^* = {+1, -1}, which acts trivially
        self.unit = (2 % N, 1 % N) if delta in (-3, -4) else ((-1) % N, 0)
        self.cartan = self.kernel_gens(1)
        # generators of the scalars (Z/N)^*, prime by prime
        self.scalars = [
            _crt_lift((s % ell**a, 0), ell**a, N)
            for ell, a in self.fac.items()
            for s in {_primitive_root(ell), 1 + ell, ell**a - 1, 1 + ell * ell}
        ]

    def kernel_gens(self, m):
        """Generators of {alpha in (O/NO)^* : alpha = 1 mod mO}."""
        gens = []
        for ell, a in self.fac.items():
            q, k = ell**a, 0
            while m % ell ** (k + 1) == 0:
                k += 1
            for g in _local_gens(self.t % q, self.n % q, ell, a, k):
                gens.append(_crt_lift(g, q, self.N))
        return gens

    def h_gens(self, m):
        """Generators of H_m: the kernel mod m, the scalars and the units."""
        return self.kernel_gens(m) + self.scalars + [self.unit]


def _primitive_root(ell):
    # a generator of (Z/ell)^*: no (ell - 1)/p-th power of it is 1
    if ell == 2:
        return 1
    return next(r for r in range(2, ell)
                if all(pow(r, (ell - 1) // p, ell) != 1 for p in factorize(ell - 1)))


def _ring_class_degree(delta_K: int, c: int) -> int:
    """[K(c) : K(1)] = h(c^2 delta_K) / h(delta_K) by the class number
    formula, with the unit index w(delta_K) / 2 for c > 1."""
    if c == 1:
        return 1
    num = c
    for p in factorize(c):
        num = num // p * (p - kronecker(delta_K, p))
    w = {-3: 6, -4: 4}.get(delta_K, 2)
    _check_consistent(num * 2 % w == 0, f"h({c}^2 {delta_K}) is not an integer")
    return num * 2 // w


def fiber_orbits(order: OrderDisc, M: int, N: int) -> dict:
    """The fiber of X0(M,N) -> X(1) over the CM point of ``order`` as
    {(contains_K, m, d, e): count}, with m the canonical conductor of the
    residue field (1 where its ring class field is K(1)), d the residual
    degree over Q(J_delta) and e the ramification index."""
    if not isinstance(order, OrderDisc):
        raise ValidationError(f"expected an OrderDisc, got {order!r}")
    _check_int(M, N)
    if M < 1 or N < 1 or N % M:
        raise ValidationError(f"need M | N, got M={M}, N={N}")
    if N * N > OBJECT_LIMIT or psi(N) * M * euler_phi(M) > OBJECT_LIMIT:
        raise ValidationError(f"X0({M},{N}) is past the oracle's bound of {OBJECT_LIMIT} pairs")
    return dict(Counter(_closed_points(order, M, N)[2]))


def _closed_points(order: OrderDisc, M: int, N: int):
    """(keys, point, points): the pairs as keys C * M^2 + Q1 * M + Q2, with C
    the index of its line in ``_lines(N)``; the closed point of each pair;
    and the (contains_K, m, d, e) of each closed point."""
    lv = _Level(order, N)
    reps, index = _lines(N)
    t, n, MM = lv.t, lv.n, M * M

    # slot[C * M^2 + Q] is the pair's id, or -1 where (v_C, Q) is no basis
    # of (Z/M)^2
    slot, keys = [], []
    for ci, (v1, v2) in enumerate(reps):
        for q1 in range(M):
            for q2 in range(M):
                if gcd(v1 * q2 - v2 * q1, M) == 1:
                    slot.append(len(keys))
                    keys.append(ci * MM + q1 * M + q2)
                else:
                    slot.append(-1)

    def act(alpha, key):
        # alpha = None is c
        ci, q = divmod(key, MM)
        v, Q = reps[ci], divmod(q, M)
        if alpha is None:
            w = ((v[0] + v[1] * t) % N, -v[1] % N)
            Q = ((Q[0] + Q[1] * t) % M, -Q[1] % M)
        else:
            w = _mul(alpha, v, t, n, N)
            Q = _mul(alpha, Q, t, n, M)
        cj, s = index[w]
        return slot[cj * MM + s * Q[0] % M * M + s * Q[1] % M]

    parent = list(range(len(keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in lv.cartan:
        for i, key in enumerate(keys):
            a, b = find(i), find(act(g, key))
            if a != b:
                parent[a] = b
    roots = [find(i) for i in range(len(keys))]
    size = Counter(roots)

    divisors = [c for c in range(1, N + 1) if N % c == 0]
    h_gens = {c: lv.h_gens(c) for c in divisors}
    dK, f = order.delta_K, order.f
    base = _ring_class_degree(dK, f)
    points, point_of = [], {}
    for i, key in enumerate(keys):
        root = roots[i]
        if root in point_of:
            continue
        unit_orbit = {i}
        j = act(lv.unit, key)
        while j not in unit_orbit:
            unit_orbit.add(j)
            j = act(lv.unit, keys[j])
        e = len(unit_orbit)
        index_S, r = divmod(size[root], e)
        _check_consistent(r == 0, "an O^*-orbit does not divide its Cartan orbit")
        conj_root = roots[act(None, key)]
        contains_K = conj_root != root
        m = min(
            (c for c in divisors if all(act(h, key) in unit_orbit for h in h_gens[c])),
            key=lambda c: (_ring_class_degree(dK, c * f), c),
        )
        degree = _ring_class_degree(dK, m * f)
        _check_consistent(
            degree == index_S * base,
            f"the residue field of a point on X0({M},{N}) over {order.delta} "
            "is no ring class field",
        )
        point_of[root] = point_of[conj_root] = len(points)
        points.append((contains_K, 1 if degree == 1 else m * f,
                       index_S * (2 if contains_K else 1), e))
    return keys, [point_of[r] for r in roots], points
