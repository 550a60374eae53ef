import hashlib
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cmlocus.arith import (
    FACTOR_LIMIT, OrderDisc, ValidationError, _factor_items, factorize, psi,
)
from cmlocus.fields import K, Q, embeds, field_degree, is_isomorphic, rcf_rel_degree
from cmlocus import locus
from cmlocus.locus import (
    enumerated_primitive,
    fiber_X0MN,
    lift_residue_prime_power,
    primitive_X0MN,
    x1_fiber,
    _Row,
    _prime_rows,
    _primitive_row,
    _split_deep_level,
)
from cmlocus.tables import path_classes

O4 = OrderDisc.from_parts(-4, 1)
O3 = OrderDisc.from_parts(-3, 1)


def _x_nn_fields(order, N):
    # the fields of the fiber of X0(N,N)
    return {c.field for c in fiber_X0MN(order, N, N).classes}


def test_x_nn_residue():
    # X0(N,N) carries the full level-N structure: every point has field
    # K(Nf), except at N = 2 over an even delta, where it is Q(2f)
    assert _x_nn_fields(O4, 2) == {Q(2, -4)}
    assert is_isomorphic(Q(2, -4), Q(1, -4))  # Q(P) = Q
    assert _x_nn_fields(O3, 2) == {K(2, -3)}
    assert is_isomorphic(K(2, -3), K(1, -3))  # Q(P) = K
    assert _x_nn_fields(O4, 3) == {K(3, -4)}
    assert _x_nn_fields(OrderDisc.from_parts(-3, 5), 2) == {K(10, -3)}  # odd
    assert _x_nn_fields(OrderDisc.from_parts(-4, 3), 2) == {Q(6, -4)}  # even
    for dK in (-3, -4):
        for f in range(1, 13):
            order = OrderDisc.from_parts(dK, f)
            for N in range(2, 80):
                want = K(N * f, dK) if N >= 3 or order.delta % 2 else Q(2 * f, dK)
                assert _x_nn_fields(order, N) == {want}, (order, N)


def _lifted(order, ell, a_prime, a):
    # each lifted part as (path shape, lifted field, count)
    return [(cls.bhd, str(up), n) for cls, up, n in
            lift_residue_prime_power(order, ell, a_prime, a)]


def test_lift_examples():
    # a pure descent keeps its field; a surface horizontal step over Z[i]
    # separates the two descents, so its lift holds K
    assert _lifted(O4, 2, 1, 2) == [((0, 0, 2), "Q(4)", 1), ((0, 1, 1), "K(2)", 1)]
    assert _lifted(O3, 3, 1, 2) == [((0, 0, 2), "K(9)", 1), ((0, 1, 1), "K(3)", 1)]
    # X0(2, 2) over Z[i]: the lift of the horizontal class is Q(2) = Q(1)
    assert _lifted(O4, 2, 1, 1) == [((0, 0, 1), "Q(2)", 1), ((0, 1, 0), "Q(2)", 1)]
    # a' = 0 is X0(ell^a) itself
    assert [up for _, up, _ in lift_residue_prime_power(O4, 5, 0, 2)] == [
        c.field for c in path_classes(O4, 5, 2)]
    # the two rational points of VI3 over -64 on X0(2, 32) lift apart: one
    # to K(8), one to two Q(8) points
    vi3 = [p for p in _lifted(OrderDisc.from_parts(-4, 4), 2, 1, 5) if p[0] == (2, 0, 3)]
    assert vi3 == [((2, 0, 3), "Q(8)", 1), ((2, 0, 3), "K(8)", 1)]


def test_lift_is_the_one_prime_fiber():
    # on a prime power level the lifted fields are exactly the fields of the
    # fiber of X0(ell^a', ell^a)
    cases = 0
    for dK in (-3, -4):
        for f in range(1, 9):
            order = OrderDisc.from_parts(dK, f)
            for N in range(2, 161):
                fac = factorize(N)
                if len(fac) > 1:
                    continue
                ((ell, a),) = fac.items()
                for a_prime in range(a + 1):
                    lifted = {up for _, up, _ in lift_residue_prime_power(order, ell, a_prime, a)}
                    fiber = {c.field for c in fiber_X0MN(order, ell**a_prime, N).classes}
                    assert lifted == fiber, (order, ell, a_prime, a)
                    cases += 1
    assert cases == 2112


def _by_path(report):
    # the classes of a one-prime fiber by their path shape (b, h, d)
    return {c.path_type: (str(c.field), c.d, c.e, c.count) for c in report.classes}


def _by_field(report):
    # the counts of a fiber's classes by (field, e)
    return {(str(c.field), c.e): c.count for c in report.classes}


def test_residue_x0n_examples():
    assert _by_path(fiber_X0MN(O4, 1, 4))[(0, 0, 2)][0] == "Q(4)"  # pure descent
    assert _by_path(fiber_X0MN(O4, 1, 5))[(0, 1, 0)][0] == "K(1)"  # split surface edge
    # one descent at 2 and one at 3: Q(6), degree d(6) = 3
    (six,) = [c for c in fiber_X0MN(O3, 1, 6).classes if c.field.m == 6]
    assert str(six.field) == "Q(6)" and field_degree(six.field) == 3 and six.d == 3


def test_residue_x0mn_examples():
    assert _by_path(fiber_X0MN(O4, 2, 8))[(0, 0, 3)][0] == "Q(8)"
    assert _by_path(fiber_X0MN(O4, 2, 8))[(0, 1, 2)][0] == "K(4)"
    assert _by_path(fiber_X0MN(O3, 3, 9))[(0, 0, 2)][0] == "K(9)"


def test_count_fiber_x0n():
    # the K(1) points of the all-horizontal combination number 2^(s-1), s
    # the count of split primes; a ramified descent keeps s = 0 at X0(2)
    assert _by_path(fiber_X0MN(O4, 1, 2))[(0, 0, 1)][3] == 1  # s = 0
    assert _by_field(fiber_X0MN(O4, 1, 10))[("K(2)", 2)] == 1  # s = 1
    assert _by_field(fiber_X0MN(O4, 1, 65))[("K(1)", 1)] == 2  # s = 2
    assert _by_field(fiber_X0MN(O4, 1, 1105))[("K(1)", 1)] == 4  # s = 3


def test_count_fiber_x0mn_examples():
    # X(2) over J_-4 is three rational points, each ramified with e = 2
    assert _by_path(fiber_X0MN(O4, 2, 2)) == {
        (0, 0, 1): ("Q(2)", 1, 2, 2),
        (0, 1, 0): ("Q(2)", 1, 2, 1),
    }
    # 2*4*2 + 2*4*1 = 24 = psi(8) * 2
    assert _by_path(fiber_X0MN(O4, 2, 8)) == {
        (0, 0, 3): ("Q(8)", 4, 2, 2),
        (0, 1, 2): ("K(4)", 4, 2, 1),
    }


def test_deep_two_adic_lift_examples():
    # on X0(2, 2^a) over an even delta, a rational class that starts by
    # ascending lifts to K(m) at depth; X0(2, 8) over delta = -64 has one
    # K(8) point with d = 4 where two Q(8) points with d = 2 stood before
    order = OrderDisc.from_parts(-4, 4)
    assert [(str(c.field), c.d, c.e, c.count, c.path_type)
            for c in fiber_X0MN(order, 2, 8).classes] == [
        ("K(8)", 4, 1, 1, (1, 0, 2)),
        ("Q(8)", 2, 1, 1, (2, 0, 1)),
        ("Q(8)", 2, 1, 1, (2, 1, 0)),
        ("Q(32)", 8, 1, 2, (0, 0, 3)),
    ]
    # the two rational points of VI3 over -64 on X0(2, 32) lift apart: one
    # to K(8), one to two Q(8) points
    vi3 = [(str(c.field), c.d, c.count) for c in fiber_X0MN(order, 2, 32).classes
           if c.path_type == (2, 0, 3)]
    assert vi3 == [("K(8)", 4, 1), ("Q(8)", 2, 2)]
    # over -3 the class V1 lifts to K(m) from L = 3 on, and stays Q(m) at L = 2
    assert _by_path(fiber_X0MN(OrderDisc.from_parts(-3, 8), 2, 8))[(1, 0, 2)] == (
        "K(16)", 4, 1, 1)
    assert _by_path(fiber_X0MN(OrderDisc.from_parts(-3, 4), 2, 8))[(1, 0, 2)] == (
        "Q(8)", 2, 1, 2)


def test_fiber_x0mn_examples():
    r = fiber_X0MN(O4, 1, 2)
    assert [(str(c.field), c.d, c.e, c.count) for c in r.classes] == [
        ("Q(1)", 1, 1, 1),
        ("Q(2)", 1, 2, 1),
    ]
    r = fiber_X0MN(O3, 1, 3)
    assert [(str(c.field), c.d, c.e, c.count) for c in r.classes] == [
        ("Q(1)", 1, 1, 1),
        ("Q(3)", 1, 3, 1),
    ]
    r = fiber_X0MN(O4, 1, 10)
    assert r.check_total == psi(10) == 18 and r.psi_ok


def test_fiber_degenerate_level_one():
    r = fiber_X0MN(O4, 1, 1)
    assert len(r.classes) == 1 and r.classes[0].d == 1 and r.check_total == 1


def test_composite_totals_sweep():
    for dK in (-3, -4):
        for f in (1, 2, 3):
            order = OrderDisc.from_parts(dK, f)
            for N in range(1, 41):
                for M in range(1, N + 1):
                    if N % M:
                        continue
                    r = fiber_X0MN(order, M, N)
                    assert r.psi_ok
                    assert all(c.count > 0 for c in r.classes)


def test_cold_and_warm_caches_agree():
    queries = [
        (OrderDisc.from_parts(dK, f), M, N)
        for dK in (-3, -4)
        for f in range(1, 7)
        for N in range(1, 97)
        for M in range(1, N + 1)
        if N % M == 0
    ]
    cold = []
    for q in queries:
        for cache in (path_classes, _prime_rows, _primitive_row, _factor_items, rcf_rel_degree):
            cache.cache_clear()
        cold.append(repr((fiber_X0MN(*q), primitive_X0MN(*q))))
    warm = [repr((fiber_X0MN(*q), primitive_X0MN(*q))) for q in queries]
    assert path_classes.cache_info().hits > 0 and _prime_rows.cache_info().hits > 0
    assert _primitive_row.cache_info().hits > 0
    assert warm == cold


def test_fields_in_moduli_band():
    # every composite residue field over a maximal order sits between Q and K
    # of the conductor assembled from the prime-local lifts of one class per
    # prime
    for order in (O4, O3):
        for M, N in [(1, 12), (2, 20), (1, 45), (3, 45), (2, 2), (4, 8)]:
            fac = factorize(N)
            per_prime = []
            for ell in sorted(fac):
                parts = lift_residue_prime_power(order, ell, _val(M, ell), fac[ell])
                per_prime.append([ell ** _val(up.m, ell) for _, up, _ in parts])
            conductors = {prod(c) for c in product(*per_prime)}
            for c in fiber_X0MN(order, M, N).classes:
                assert any(
                    embeds(Q(m, order.delta_K), c.field) and embeds(c.field, K(m, order.delta_K))
                    for m in conductors
                ), (order, M, N, c)


def _val(n, ell):
    v = 0
    while n and n % ell == 0:
        v += 1
        n //= ell
    return v


def test_data_validation():
    for ell, a_prime, a in ((5, 2, 1), (5, -1, 1), (4, 1, 2)):  # a' > a, a' < 0, composite
        with pytest.raises(ValidationError):
            lift_residue_prime_power(O4, ell, a_prime, a)
    with pytest.raises(ValidationError):
        fiber_X0MN(O4, 3, 4)


def _prime_powers(n):
    p = 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            yield p, a
        p += 1
    if n > 1:
        yield n, 1


def _psi_phi(n):
    psi_n = phi_n = 1
    for p, a in _prime_powers(n):
        psi_n *= p ** (a - 1) * (p + 1)
        phi_n *= p ** (a - 1) * (p - 1)
    return psi_n, phi_n


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((-3, -4)),
    st.integers(1, 50),
    st.integers(1, 5000),
    st.integers(0, 10**6),
)
def test_psi_identity_property(dK, f, N, pick):
    # sum e*d*count = psi(N) M phi(M) for random (dK, f, M | N), with
    # d = [field : Q(J_delta)] from the class-number formula and e in {1, w_K/2}
    divisors = [m for m in range(1, N + 1) if N % m == 0]
    M = divisors[pick % len(divisors)]
    report = fiber_X0MN(OrderDisc.from_parts(dK, f), M, N)
    w_K = {-3: 6, -4: 4}[dK]
    total = 0
    for c in report.classes:
        assert c.d * rcf_rel_degree(dK, f) == field_degree(c.field)
        assert c.e in (1, w_K // 2)
        total += c.e * c.d * c.count
    assert total == _psi_phi(N)[0] * M * _psi_phi(M)[1]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def _reach_levels(draw):
    # f over a few small primes, and M | N <= FACTOR_LIMIT over primes of f
    # and at most one more, so the fold composes conductors up to f N, past
    # the guard, and so may each prime's own table, up to f ell^a
    f_exps = draw(st.dictionaries(st.sampled_from(_SMALL_PRIMES), st.integers(1, 3),
                                  min_size=1, max_size=3))
    f = prod(ell**k for ell, k in f_exps.items())
    n_primes = draw(st.lists(st.sampled_from(sorted(f_exps)), min_size=1, unique=True))
    n_primes += draw(st.lists(st.sampled_from(_SMALL_PRIMES).filter(
        lambda ell: ell not in f_exps), max_size=1))
    N = M = 1
    for ell in n_primes:
        a = draw(st.integers(1, 40))
        while N * ell**a > FACTOR_LIMIT:
            a -= 1
        N, M = N * ell**a, M * ell ** draw(st.integers(0, a))
    return draw(st.sampled_from((-3, -4))), f_exps, M, N


def _chi(dK, ell):
    return 0 if dK % ell == 0 else (1 if ell % -dK == 1 else -1)


def _degree(dK, m, primes):
    # [K(m) : K(1)] = (2 / w_K) prod ell^(k-1) (ell - chi(ell)) over ell^k || m > 1,
    # m being a product of powers of ``primes``; doubled for K(m)
    num = 2
    for ell in primes:
        k = 0
        while m % ell == 0:
            m, k = m // ell, k + 1
        num *= ell ** (k - 1) * (ell - _chi(dK, ell)) if k else 1
    assert m == 1
    return 1 if num == 2 else num // (6 if dK == -3 else 4)


@settings(max_examples=60, deadline=None)
@given(_reach_levels())
def test_fiber_reaches_every_level_the_guard_accepts(level):
    # the fold and the primitive casework answer from their rows, whatever
    # size their conductors reach; each degree is the class number formula
    # at the primes drawn, factorizing no m
    dK, f_exps, M, N = level
    f = prod(ell**k for ell, k in f_exps.items())
    order = OrderDisc.from_parts(dK, f)
    primes = set(f_exps) | {ell for ell in _SMALL_PRIMES if N % ell == 0}

    def degree(field):
        return _degree(dK, field.m, primes) * (2 if field.contains_K else 1)

    base = _degree(dK, f, primes)
    for c in fiber_X0MN(order, M, N).classes:
        assert c.d * base == degree(c.field), (level, c)
    fields, degrees = primitive_X0MN(order, M, N)
    assert set(fields) == set(enumerated_primitive(order, M, N))
    assert set(degrees) <= {degree(F) for F in fields}


def _row_fields(order, ell, row):
    # the fields a row stands for: Q(ell^b f) first, then K(ell^c f)
    b, c = row[:2]
    f, dK = order.f, order.delta_K
    return ([Q(ell**b * f, dK)] if b is not None else []) + (
        [K(ell**c * f, dK)] if c is not None else []
    )


def test_primitive_row_matches_the_casework():
    # the cached integers are the casework: primitive_X0MN lists exactly
    # the fields the row's exponents name at a prime power, and every row
    # names one
    for dK in (-3, -4):
        for f in range(1, 13):
            order = OrderDisc.from_parts(dK, f)
            for ell in (2, 3, 5, 7, 11, 13):
                for a in range(1, 7):
                    for a_prime in range(a + 1):
                        row = _primitive_row(order, ell, a_prime, a)
                        assert row[:2] != (None, None)
                        fields, _ = primitive_X0MN(order, ell**a_prime, ell**a)
                        assert fields == _row_fields(order, ell, row)
                        assert row[2] == _split_deep_level(order, ell, a)


def test_primitive_casework_grid_is_pinned():
    # SHA-256 of the published casework at the prime powers of a grid that
    # reaches L = 6 at ell = 2 and every branch of the exponent table
    h = hashlib.sha256()
    for dK in (-3, -4):
        for f in range(1, 65):
            order = OrderDisc.from_parts(dK, f)
            for ell in (2, 3, 5, 7, 11, 13):
                for a in range(1, 16):
                    for a_prime in range(a + 1):
                        fields, _ = primitive_X0MN(order, ell**a_prime, ell**a)
                        h.update(repr(fields).encode())
    assert h.hexdigest() == "f1754cfea635c1fdbaa17c2c17d3c7f1766296ab14f6223de5a90adea6a37eda"


def test_refused_delta_K_is_not_cached():
    # the casework builds no field, so it checks delta_K itself before a row
    # can be cached
    order = OrderDisc.from_parts(-7, 1)
    _primitive_row.cache_clear()
    with pytest.raises(ValidationError):
        primitive_X0MN(order, 1, 12)
    with pytest.raises(ValidationError):
        primitive_X0MN(order, 2, 4)
    assert _primitive_row.cache_info().currsize == 0


@pytest.mark.parametrize("f_max, N_max, sha", [
    pytest.param(6, 96, "9050e78b328937556286b9f6b6ef9b7718bf546ffbe7d35ae4702dd2d14d1e42",
                 id="fiber_sweep"),
    pytest.param(8, 160, "ba390e6b294941f8214bbb3c94f4616f41310626184081f18e48898432445a82",
                 id="f8_N160"),
])
def test_fiber_sweep_grid_is_pinned(f_max, N_max, sha):
    # SHA-256 of the reports, one repr per level and no level key, over the
    # benchmark's fiber_sweep grid and over the wider f <= 8, M | N <= 160;
    # any change to a field, degree, count, class order or path shape shows
    # here.  The first was pinned after the deep 2-adic lift on X0(2, 2^a),
    # which changed the 12 reports of delta_K = -4, f = 4, M = 2, N = 8k and
    # no other
    h = hashlib.sha256()
    for dK in (-3, -4):
        for f in range(1, f_max + 1):
            order = OrderDisc.from_parts(dK, f)
            for N in range(1, N_max + 1):
                for M in range(1, N + 1):
                    if N % M == 0:
                        reports = (fiber_X0MN(order, M, N), primitive_X0MN(order, M, N),
                                   x1_fiber(order, M, N))
                        h.update(repr(reports).encode())
    assert h.hexdigest() == sha


def test_fiber_degrees_match_the_field_degrees():
    # each class's d comes out of the fold; over the benchmark's fiber_sweep
    # grid it is still [field : Q] / [Q(f) : Q]
    for dK in (-3, -4):
        for f in range(1, 7):
            order = OrderDisc.from_parts(dK, f)
            base = rcf_rel_degree(dK, f)
            for N in range(1, 97):
                for M in range(1, N + 1):
                    if N % M == 0:
                        for c in fiber_X0MN(order, M, N).classes:
                            assert c.d == field_degree(c.field) // base, (dK, f, M, N, c)


def _fake_rows(monkeypatch, *rows):
    monkeypatch.setattr(locus, "_prime_rows", lambda *args: rows)


def test_fold_refuses_a_non_integral_count(monkeypatch):
    # on X0(5, 5) over Z[i] a lifted K(7) has degree 8 and e = 2, and
    # 5 phi(5) = 20 points do not divide into 16
    _fake_rows(monkeypatch, _Row(count=1, bhd=(0, 0, 1), m_down=1, K_down=False, d_down=1,
                                 m_up=7, K_up=True, d_up=8, descends=False))
    with pytest.raises(ValidationError, match="non-integral"):
        fiber_X0MN(O4, 5, 5)


def test_fold_checks_the_psi_total(monkeypatch):
    # one rational point where X0(5) has psi(5) = 6 points over j = 1728
    _fake_rows(monkeypatch, _Row(count=1, bhd=(0, 0, 1), m_down=1, K_down=False, d_down=1,
                                 m_up=1, K_up=False, d_up=1, descends=False))
    with pytest.raises(AssertionError, match="fiber degree check failed"):
        fiber_X0MN(O4, 1, 5)
