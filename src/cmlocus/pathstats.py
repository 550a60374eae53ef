"""Per-type path statistics on the ell-isogeny graph without materializing
vertices: nonbacktracking paths from the marked vertex, split by their
(ascents, horizontal, descents) shape, with real-path counts under the
marked-chain conventions, and geometric-point (orbit) counts for starts at
the surface of a maximal order.

Serves as the brute-force oracle against the normative tables on parameter
ranges where an explicit graph would not fit in memory.
"""

from .arith import (
    ValidationError,
    _check_consistent,
    _check_int,
    _check_power,
    _check_prime,
    kronecker,
)
from .fields import check_delta_K, unit_count
from .forms import two_torsion_count


class _Tower:
    """Real-structure bookkeeping for one (delta_K, ell, f0) tower."""

    def __init__(self, delta_K, ell, f0):
        check_delta_K(delta_K)
        _check_prime(ell)
        _check_int(f0)
        if f0 < 1 or f0 % ell == 0:
            raise ValidationError("f0 must be a positive int coprime to ell")
        self.delta_K = delta_K
        self.ell = ell
        self.f0 = f0
        self.chi = kronecker(delta_K, ell)
        self.w2 = unit_count(delta_K) // 2

    def rtor(self, m: int) -> int:
        return two_torsion_count(self.ell ** (2 * m) * self.f0**2 * self.delta_K)

    def chains(self, m: int, fertile: bool, d: int) -> int:
        """Real descending chains of length d from a real vertex at level m."""
        if d == 0:
            return 1
        if self.ell != 2:
            _check_consistent(
                self.rtor(m + 1) == self.rtor(m), "odd-ell 2-rank jump below surface"
            )
            return 1
        if not fertile:
            return 0
        return self.chains(m + 1, True, d - 1) + self.chains(m + 1, self.fertile(m), d - 1)

    def fertile(self, m: int) -> bool:
        """Whether the second real child at level m + 1 of a real vertex at
        level m has real children of its own: the 2-rank doubles from level
        m + 1 to m + 2."""
        return self.rtor(m + 2) == 2 * self.rtor(m + 1)


def type_counts(delta_K, ell, f0, L, a):
    """{(b, h, d): (paths, real_paths)} for length-``a`` paths from the
    marked vertex at level ``L``."""
    t = _Tower(delta_K, ell, f0)
    _check_power(ell, a)
    _check_power(ell, L)
    if a < 1 or L < 0:
        raise ValidationError("need a >= 1 and L >= 0")
    out: dict[tuple[int, int, int], tuple[int, int]] = {}

    # segments entirely below the surface
    for b in range(0, min(L, a) + 1):
        if b == L:
            continue
        d = a - b
        if d == 0:  # pure ascent, never reaching the surface
            out[(b, 0, 0)] = (1, 1)
            continue
        total = (ell - (1 if b >= 1 else 0)) * ell ** (d - 1)
        if b == 0:
            real = t.chains(L, True, d)
        elif ell != 2:
            real = 0  # the single real child is the marked one we came from
        else:
            m = L - b
            real = t.chains(m + 1, t.fertile(m), d - 1)
        out[(b, 0, d)] = (total, real)

    if L > a:
        return out

    # surface segment: b = L ascents, h horizontal steps, then descents
    for h in range(0, a - L + 1):
        d = a - L - h
        walks, walk_real = _walks(t, h)
        if walks == 0:
            continue
        if d == 0:
            out[(L, h, 0)] = (walks, 1 if walk_real else 0)
            continue
        excl = 1 if (h == 0 and L >= 1) else 0
        total = walks * ((ell - t.chi) - excl) * ell ** (d - 1)
        real = 0
        if walk_real:
            for nedges, fertile in _real_exits(t, h, excl):
                if nedges > 0:
                    real += nedges * t.chains(1, fertile, d - 1)
        out[(L, h, d)] = (total, real)
    return out


def _walks(t: _Tower, h: int):
    """(number of length-h horizontal walks, whether a real one exists)."""
    if h == 0:
        return 1, True
    if t.chi == 1:
        return 2, False  # the two ideal walks are conjugate-swapped
    if t.chi == 0 and h == 1:
        return 1, True
    return 0, False


def _real_exits(t: _Tower, h: int, excl: int):
    """Real descent edges leaving the surface after an ``h``-walk, as
    (edge count, fertility of the level-1 entry vertex) pairs."""
    if t.f0 == 1:
        if t.delta_K == -4:
            if t.ell == 2 and h == 1:
                return []  # far copy of the double cover: both descents complex
            return [(2 - excl, True)]
        exits = [(1 - excl, True)]
        if h == 0 and t.rtor(1) >= 2:
            exits.append((1, True))  # the second real level-1 vertex
        return exits
    k0 = t.ell - t.chi
    if h == 0:
        if k0 % 2 == 1:
            return [(1 - excl, True)]
        return [(1 - excl, True), (1, t.fertile(0))]
    # h == 1 over a ramified suborder surface: we stand at the prime
    # translate of the marked vertex
    if k0 % 2 == 1:
        return [(1, True)]
    if t.rtor(1) // 2 >= 2:
        return [(1, True), (1, t.fertile(0))]
    return []


def orbit_counts(delta_K, ell, a):
    """{(0, h, d): (orbits, real_orbits)} of geometric points for length-a
    paths from the surface vertex of the maximal order (f0 = 1, L = 0)."""
    t = _Tower(delta_K, ell, 1)
    _check_power(ell, a)
    if a < 1:
        raise ValidationError("a must be >= 1")
    n1 = (ell - t.chi) // t.w2
    out: dict[tuple[int, int, int], tuple[int, int]] = {}
    for h in range(0, a + 1):
        d = a - h
        walks, walk_real = _walks(t, h)
        if walks == 0:
            continue
        if d == 0:
            out[(0, h, 0)] = (walks, 1 if walk_real else 0)
            continue
        total = walks * n1 * ell ** (d - 1)
        real = 0
        if walk_real:
            real = t.chains(1, True, d - 1)
            if t.rtor(1) >= 2:
                real += t.chains(1, True, d - 1)
        out[(0, h, d)] = (total, real)
    return out
