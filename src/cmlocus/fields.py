"""Symbolic algebra of ring class fields K(m) and rational ring class
fields Q(m) over the imaginary quadratic field of fundamental discriminant
delta_K in {-3, -4}, i.e. Q(sqrt(-3)) or Q(i).

Fields are labels, never embedded objects.  Degrees come from the relative
class number formula; the reduced-forms census in ``forms`` is kept as an
independent oracle for it.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

from .arith import ValidationError, _check_consistent, _check_int, factorize

RATIONAL = "Q"
RING_CLASS = "K"


def check_delta_K(delta_K: int) -> None:
    """The one domain guard: everything built on the casework for the two
    class-number-one fields with extra units needs delta_K in {-3, -4};
    the type test is inline, as every FieldSymbol runs it."""
    if type(delta_K) is not int or delta_K not in (-3, -4):
        raise ValidationError(f"delta_K must be -3 or -4, got {delta_K!r}")


def unit_count(delta_K: int) -> int:
    """w_K = #Z_K^x."""
    check_delta_K(delta_K)
    return 6 if delta_K == -3 else 4


def _chi(delta_K: int, ell: int) -> int:
    # (delta_K / ell) at a prime ell for delta_K in {-3, -4}, by ell mod 3 or 4
    return (0, 1, -1)[ell % 3] if delta_K == -3 else (0, 1, 0, -1)[ell % 4]


def in_S(f: int, delta_K: int) -> bool:
    """True iff f^2 * delta_K has class number one, i.e. lies in
    D = {-3, -4, -12, -16, -27}: the conductors 1, 2, 3 over Q(sqrt(-3))
    and 1, 2 over Q(i)."""
    _check_int(delta_K, f)
    if f <= 0:
        raise ValidationError(f"conductor must be positive, got {f}")
    check_delta_K(delta_K)
    return f in ((1, 2, 3) if delta_K == -3 else (1, 2))


@lru_cache(maxsize=2048)
def rcf_rel_degree(delta_K: int, f: int) -> int:
    """d(f) = [K(f):K(1)] via the conductor formula."""
    _check_int(delta_K, f)
    if f <= 0:
        raise ValidationError(f"conductor must be positive, got {f}")
    check_delta_K(delta_K)
    if f == 1:
        return 1
    num = 2 * f
    den = unit_count(delta_K)
    for ell in factorize(f):
        num = num // ell * (ell - _chi(delta_K, ell))
    _check_consistent(num % den == 0, f"d({f}) = {num}/{den} is not an integer")
    return num // den


def canonical_conductor(delta_K: int, m: int) -> int:
    """Smallest divisor m0 | m with K(m0) = K(m) (equivalently equal degree):
    1 if ``in_S(m, delta_K)``, m itself otherwise.

    For 1 < m0 | m, each prime ell dropped from m multiplies d by ell
    (when ell | m0) or by ell - chi(ell) >= 2 (2 splits in neither field),
    so no proper divisor m0 > 1 has the degree of m.  The one collapse is
    to m0 = 1, where the units w_K / 2 enter, and it happens exactly when
    d(m) = d(1) = 1.
    """
    return 1 if in_S(m, delta_K) else m


class FieldSymbol(namedtuple("FieldSymbol", "base m delta_K")):
    """Q(m) or K(m) over the field of discriminant delta_K in {-3, -4};
    ``base`` is RATIONAL or RING_CLASS."""

    __slots__ = ()

    def __new__(cls, base: str, m: int, delta_K: int):
        self = tuple.__new__(cls, (base, m, delta_K))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __post_init__
        return cls(*iterable)

    def __post_init__(self):
        if self.base not in (RATIONAL, RING_CLASS):
            raise ValidationError(f"bad base {self.base!r}")
        if type(self.m) is not int or self.m <= 0:
            raise ValidationError(f"conductor must be a positive int, got {self.m!r}")
        check_delta_K(self.delta_K)

    @property
    def contains_K(self) -> bool:
        return self.base == RING_CLASS

    def canonical_m(self) -> int:
        return canonical_conductor(self.delta_K, self.m)

    def __str__(self):
        return f"{self.base}({self.m})"


@lru_cache(maxsize=4096, typed=True)
def _symbol(base: str, m: int, delta_K: int) -> FieldSymbol:
    # each distinct field is built and checked once and then shared; typed,
    # so 15.0 or True never finds the entry of 15 or 1
    return FieldSymbol(base, m, delta_K)


def Q(m: int, delta_K: int) -> FieldSymbol:
    return _symbol(RATIONAL, m, delta_K)


def K(m: int, delta_K: int) -> FieldSymbol:
    return _symbol(RING_CLASS, m, delta_K)


def field_degree(sym: FieldSymbol) -> int:
    """Absolute degree over Q: h(m^2 delta_K) = [K(m):K(1)] since h(delta_K)
    = 1, doubled for K(m)."""
    h = rcf_rel_degree(sym.delta_K, sym.m)
    return 2 * h if sym.contains_K else h


def is_isomorphic(a: FieldSymbol, b: FieldSymbol) -> bool:
    if a.delta_K != b.delta_K or a.base != b.base:
        return False
    return a.canonical_m() == b.canonical_m()


def embeds(a: FieldSymbol, b: FieldSymbol) -> bool:
    """Whether ``a`` embeds into ``b``: conductor divisibility after
    collapsing, with K(m) never landing in a formally real field."""
    if a.delta_K != b.delta_K:
        return False
    if a.contains_K and not b.contains_K:
        return False
    return b.canonical_m() % a.canonical_m() == 0


def minimal_fields(syms) -> list[FieldSymbol]:
    """Minimal elements under ``embeds``, deduplicated up to isomorphism."""
    uniq: list[FieldSymbol] = []
    for s in syms:
        if not any(is_isomorphic(s, t) for t in uniq):
            uniq.append(s)
    out = [
        s
        for s in uniq
        if not any(embeds(t, s) and not is_isomorphic(t, s) for t in uniq)
    ]
    return sorted(out, key=lambda s: (s.base, s.canonical_m()))


class CompositumResult(namedtuple("CompositumResult", "closure index")):
    """A compositum presented as a subfield of a ring-class closure.

    ``closure`` is the smallest ring-class-type field containing the
    compositum and ``index`` its index in that closure, so the compositum
    has degree field_degree(closure) / index.
    """

    __slots__ = ()

    def degree(self) -> int:
        d = field_degree(self.closure)
        _check_consistent(d % self.index == 0, "compositum index does not divide its degree")
        return d // self.index


def compose_rcf(factors) -> CompositumResult:
    """Compositum of ring class fields K(f_1) ... K(f_r).

    Conductors in S are absorbed; conductors linked by a common factor
    merge with no degree loss; what remains are pairwise coprime conductors
    outside S, each coprime junction costing a factor w_K/2.
    """
    factors = list(factors)
    if not factors:
        raise ValidationError("empty compositum")
    delta_K = factors[0].delta_K
    for s in factors:
        if s.delta_K != delta_K:
            raise ValidationError("mixed fundamental discriminants")
        if not s.contains_K:
            raise ValidationError("compose_rcf expects ring class fields")
    conductors = [s.m for s in factors]
    big = lcm(*conductors)
    live = [m for m in conductors if not in_S(m, delta_K)]
    # merge along shared factors: connected components of the gcd graph
    components: list[int] = []
    for m in live:
        joined = m
        rest = []
        for comp in components:
            if gcd(comp, joined) > 1:
                joined = lcm(comp, joined)
            else:
                rest.append(comp)
        components = rest + [joined]
    comp_degree = 1
    for comp in components:
        comp_degree *= rcf_rel_degree(delta_K, comp)
    total = rcf_rel_degree(delta_K, big)
    _check_consistent(total % comp_degree == 0, "compositum degree does not divide d(lcm)")
    return CompositumResult(K(big, delta_K), total // comp_degree)


def tensor_rcf(f1: FieldSymbol, f2: FieldSymbol) -> list[CompositumResult]:
    """Decompose F1 (x)_{Q(g)} F2 into field factors, g = gcd(m1, m2).

    Returns one entry per factor; entries carry an index > 1 only in the
    coprime case where the factor is a proper subfield of its ring-class
    closure.
    """
    if f1.delta_K != f2.delta_K:
        raise ValidationError("mixed fundamental discriminants")
    delta_K = f1.delta_K
    big = lcm(f1.m, f2.m)
    s = int(f1.contains_K) + int(f2.contains_K)
    base = RING_CLASS if s >= 1 else RATIONAL
    copies = 2 if s == 2 else 1
    if in_S(f1.m, delta_K) or in_S(f2.m, delta_K):
        # a factor in S is absorbed; the other one survives
        keep = f2 if in_S(f1.m, delta_K) else f1
        return [CompositumResult(FieldSymbol(base, keep.m, delta_K), 1)] * copies
    if gcd(f1.m, f2.m) > 1:
        return [CompositumResult(FieldSymbol(base, big, delta_K), 1)] * copies
    # pairwise coprime conductors outside S: proper compositum factors
    w2 = unit_count(delta_K) // 2
    return [CompositumResult(FieldSymbol(base, big, delta_K), w2)] * copies
