import hashlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cmlocus.arith import OrderDisc, ValidationError, _factor_items, factorize, psi
from cmlocus.fields import FieldSymbol, K, Q, embeds, field_degree, is_isomorphic, rcf_rel_degree
from cmlocus.locus import (
    PrimeLocalDatum,
    count_fiber_X0MN,
    fiber_X0MN,
    lift_residue_prime_power,
    primitive_X0MN,
    primitive_prime_power,
    residue_X0MN,
    x1_fiber,
    x_nn_residue,
    _combination,
    _datum,
    _folds,
    _prime_rows,
    _primitive_row,
    _split_deep_level,
)
from cmlocus.tables import path_classes

O4 = OrderDisc.from_parts(-4, 1)
O3 = OrderDisc.from_parts(-3, 1)


def test_x_nn_residue():
    assert is_isomorphic(x_nn_residue(O4, 2), Q(1, -4))  # Q(P) = Q
    assert is_isomorphic(x_nn_residue(O3, 2), K(1, -3))  # Q(P) = K
    assert str(x_nn_residue(O4, 3)) == "K(3)"
    assert str(x_nn_residue(OrderDisc.from_parts(-3, 5), 2)) == "K(10)"  # odd
    assert str(x_nn_residue(OrderDisc.from_parts(-4, 3), 2)) == "Q(6)"  # even
    with pytest.raises(ValidationError):
        x_nn_residue(O4, 1)


def test_lift_examples():
    pd = PrimeLocalDatum(2, 1, 2, 2, False, False, True)
    assert str(lift_residue_prime_power(O4, pd, Q(4, -4))) == "Q(4)"
    hd = PrimeLocalDatum(2, 1, 2, 1, False, False, False, horizontal=1)
    assert str(lift_residue_prime_power(O4, hd, Q(2, -4))) == "K(2)"
    d3 = PrimeLocalDatum(3, 1, 2, 2, False, False, True)
    assert str(lift_residue_prime_power(O3, d3, Q(9, -3))) == "K(9)"


def test_residue_x0n_examples():
    desc4 = PrimeLocalDatum(2, 0, 2, 2, False, False, True)
    assert str(residue_X0MN(O4, 1, 4, [desc4])) == "Q(4)"
    loop5 = PrimeLocalDatum(5, 0, 1, 0, True, True, False)
    assert str(residue_X0MN(O4, 1, 5, [loop5])) == "K(1)"
    both = [
        PrimeLocalDatum(2, 0, 1, 1, False, False, True),
        PrimeLocalDatum(3, 0, 1, 1, False, False, True),
    ]
    field = residue_X0MN(O3, 1, 6, both)
    assert str(field) == "Q(6)" and field_degree(field) == 3  # checked vs d(6)


def test_residue_x0mn_examples():
    pd = PrimeLocalDatum(2, 1, 3, 3, False, False, True)
    assert str(residue_X0MN(O4, 2, 8, [pd])) == "Q(8)"
    hd = PrimeLocalDatum(2, 1, 3, 2, False, False, False, horizontal=1)
    assert str(residue_X0MN(O4, 2, 8, [hd])) == "K(4)"
    d9 = PrimeLocalDatum(3, 1, 2, 2, False, False, True)
    assert str(residue_X0MN(O3, 3, 9, [d9])) == "K(9)"


def test_count_fiber_x0n():
    split = PrimeLocalDatum(5, 0, 1, 0, True, True, False)
    ram = PrimeLocalDatum(2, 0, 1, 1, False, False, True)
    split13 = PrimeLocalDatum(13, 0, 1, 0, True, True, False)
    assert count_fiber_X0MN(O4, 1, 2, [ram]) == 1  # s = 0
    assert count_fiber_X0MN(O4, 1, 10, [split, ram]) == 1  # s = 1
    assert count_fiber_X0MN(O4, 1, 65, [split, split13]) == 2  # s = 2
    # s = 3 -> 4 points
    split17 = PrimeLocalDatum(17, 0, 1, 0, True, True, False)
    assert count_fiber_X0MN(O4, 1, 1105, [split, split13, split17]) == 4


def test_count_fiber_x0mn_examples():
    desc = PrimeLocalDatum(2, 1, 1, 1, False, False, True)
    assert count_fiber_X0MN(O4, 2, 2, [desc]) == 2
    # X(2) over J_-4 is three rational points, each ramified with e = 2
    loop = PrimeLocalDatum(2, 1, 1, 0, False, False, False, horizontal=1)
    assert count_fiber_X0MN(O4, 2, 2, [loop]) == 1
    pd8 = PrimeLocalDatum(2, 1, 3, 3, False, False, True)
    # full-fiber cross-check pins this at 2 (2*4*2 + 2*4*1 = 24 = psi(8)*2)
    assert count_fiber_X0MN(O4, 2, 8, [pd8]) == 2
    hd8 = PrimeLocalDatum(2, 1, 3, 2, False, False, False, horizontal=1)
    assert count_fiber_X0MN(O4, 2, 8, [hd8]) == 1


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
    # every composite residue field sits between Q and K of the conductor
    # assembled from its prime-local lifts
    for order in (O4, O3, OrderDisc.from_parts(-4, 3)):
        for M, N in [(1, 12), (2, 20), (1, 45), (3, 45), (2, 2), (4, 8)]:
            if N % M:
                continue
            fac = factorize(N)
            primes = sorted(fac)
            per = [path_classes(order, ell, fac[ell]) for ell in primes]
            for combo in product(*per):
                data = [
                    _datum(order, ell, _val(M, ell), fac[ell], cls)
                    for ell, cls in zip(primes, combo)
                ]
                field = residue_X0MN(order, M, N, data)
                m = 1
                for d in data:
                    lifted = lift_residue_prime_power(
                        order,
                        d,
                        K(d.ell**d.field_exp * order.f, order.delta_K)
                        if d.contains_K
                        else Q(d.ell**d.field_exp * order.f, order.delta_K),
                    )
                    m *= d.ell ** _val(lifted.m, d.ell)
                lo, hi = Q(m, order.delta_K), K(m, order.delta_K)
                if order.f == 1:
                    assert embeds(lo, field) and embeds(field, hi)


def _val(n, ell):
    v = 0
    while n and n % ell == 0:
        v += 1
        n //= ell
    return v


def test_data_validation():
    with pytest.raises(ValidationError):
        PrimeLocalDatum(5, 0, 1, 0, False, True, False)  # split edge without K
    with pytest.raises(ValidationError):
        PrimeLocalDatum(5, 2, 1, 0, False, False, False)  # a' > a
    with pytest.raises(ValidationError):
        PrimeLocalDatum(2, 1, 3, 1, False, False, True)  # purely descending, d < a
    loop5 = PrimeLocalDatum(5, 0, 1, 0, True, True, False)
    with pytest.raises(ValidationError):
        fiber_X0MN(O4, 3, 4)
    # the residue and count rules check their data against (M, N)
    desc2 = PrimeLocalDatum(2, 1, 1, 1, False, False, True)
    bad = [
        (1, 7, [loop5]),  # level-7 curve from ell = 5 data
        (2, 10, [loop5]),  # no datum for ell = 2
        (1, 25, [loop5]),  # a = 1, but v_5(25) = 2
        (1, 25, [loop5, loop5]),  # one datum per prime, each with a = v_ell(N)
        (1, 10, [desc2, loop5]),  # a' = 1, but v_2(1) = 0
        (2, 2, [desc2, desc2]),  # one datum per prime
        (1, 2, [desc2]),  # a' = 1 on X0(2)
        (1, 4, [PrimeLocalDatum(4, 0, 1, 1, False, False, True)]),  # composite ell
    ]
    for M, N, data in bad:
        for call in (residue_X0MN, count_fiber_X0MN):
            with pytest.raises(ValidationError):
                call(O4, M, N, data)
    for ell, a_prime, a in ((4, 0, 2), (6, 1, 1)):  # composite ell
        with pytest.raises(ValidationError):
            primitive_prime_power(O4, ell, a_prime, a)


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


def test_integer_fold_matches_the_symbol_route():
    # every combination the fiber loop folds on integers gives the (field,
    # e, count) that _combination computes from the same classes' data, and
    # the report gives the merged class of that field its degree
    branches = {"M = 2, delta = -4": 0, "f > 1 lifted": 0, "f > 1 lifted at 2": 0}
    for dK in (-3, -4):
        for f in range(1, 7):
            order = OrderDisc.from_parts(dK, f)
            base_degree = rcf_rel_degree(dK, f)
            for N in range(2, 61):
                fac = factorize(N)
                for M in (m for m in range(1, N + 1) if N % m == 0):
                    per_prime, per_data = [], []
                    for ell, a in sorted(fac.items()):
                        classes = path_classes(order, ell, a)
                        per_prime.append(_prime_rows(order, ell, _val(M, ell), a, classes))
                        per_data.append([_datum(order, ell, _val(M, ell), a, c) for c in classes])
                    folds = list(_folds(order, M, per_prime))
                    combos = list(product(*per_data))
                    assert len(folds) == len(combos)
                    degree_of = {(c.field, c.e, c.path_type): c.d
                                 for c in fiber_X0MN(order, M, N).classes}
                    for ((has_K, m, e, tag), count, _), data in zip(folds, combos):
                        field = FieldSymbol("K" if has_K else "Q", m, dK)
                        d = degree_of[(field, e, tag)]
                        assert (field, e, count) == _combination(order, M, list(data))
                        assert d * base_degree == field_degree(field)
                        if M == 2 and order.delta == -4:
                            two = data[0]
                            branches["M = 2, delta = -4"] += two.a == 1 or two.purely_descending
                        if f > 1 and M > 1:
                            branches["f > 1 lifted"] += 1
                            branches["f > 1 lifted at 2"] += M % 2 == 0
    assert all(n > 0 for n in branches.values()), branches


def _row_fields(order, ell, row):
    # the fields a row stands for: Q(ell^b f) first, then K(ell^c f)
    b, c = row[:2]
    f, dK = order.f, order.delta_K
    return ([Q(ell**b * f, dK)] if b is not None else []) + (
        [K(ell**c * f, dK)] if c is not None else []
    )


def test_primitive_row_matches_the_casework():
    # the cached integers are the casework: primitive_prime_power lists
    # exactly the fields the row's exponents name, and every row names one
    for dK in (-3, -4):
        for f in range(1, 13):
            order = OrderDisc.from_parts(dK, f)
            for ell in (2, 3, 5, 7, 11, 13):
                for a in range(1, 7):
                    for a_prime in range(a + 1):
                        row = _primitive_row(order, ell, a_prime, a)
                        assert row[:2] != (None, None)
                        assert primitive_prime_power(order, ell, a_prime, a) == _row_fields(
                            order, ell, row
                        )
                        assert row[2] == _split_deep_level(order, ell, a)


def test_primitive_casework_grid_is_pinned():
    # SHA-256 of the published casework over a grid that reaches L = 6 at
    # ell = 2 and every branch of the exponent table
    h = hashlib.sha256()
    for dK in (-3, -4):
        for f in range(1, 65):
            order = OrderDisc.from_parts(dK, f)
            for ell in (2, 3, 5, 7, 11, 13):
                for a in range(1, 16):
                    for a_prime in range(a + 1):
                        h.update(repr(primitive_prime_power(order, ell, a_prime, a)).encode())
    assert h.hexdigest() == "f1754cfea635c1fdbaa17c2c17d3c7f1766296ab14f6223de5a90adea6a37eda"


def test_refused_delta_K_is_not_cached():
    # the casework builds no field, so it checks delta_K itself before a row
    # can be cached
    order = OrderDisc.from_parts(-7, 1)
    _primitive_row.cache_clear()
    with pytest.raises(ValidationError):
        primitive_X0MN(order, 1, 12)
    with pytest.raises(ValidationError):
        primitive_prime_power(order, 2, 0, 2)
    assert _primitive_row.cache_info().currsize == 0


def test_fiber_sweep_grid_is_pinned():
    # SHA-256 of the reports over the benchmark's fiber_sweep grid, as the
    # FieldSymbol fiber loop printed them; any change to a field, degree,
    # count, class order or path shape shows here
    h = hashlib.sha256()
    for dK in (-3, -4):
        for f in range(1, 7):
            order = OrderDisc.from_parts(dK, f)
            for N in range(1, 97):
                for M in range(1, N + 1):
                    if N % M == 0:
                        reports = (fiber_X0MN(order, M, N), primitive_X0MN(order, M, N),
                                   x1_fiber(order, M, N))
                        h.update(repr(reports).encode())
    assert h.hexdigest() == "ab6b28b32ed65f34ec62654d30840187498572328609fe1411817b9d6388a71c"
