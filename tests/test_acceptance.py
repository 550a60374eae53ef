"""Acceptance suite: one test per criterion, exact integer equalities
throughout, with a printed verdict line for each criterion.
"""

from cmlocus.arith import OrderDisc, ValidationError, euler_phi, psi
from cmlocus.fields import (
    K,
    compose_rcf,
    field_degree,
    in_S,
    is_isomorphic,
    rcf_rel_degree,
    unit_count,
)
from cmlocus.forms import class_number
from cmlocus.locus import (
    elliptic_compatible,
    enumerated_primitive,
    fiber_X0MN,
    primitive_X0MN,
    x1_fiber,
)
from cmlocus.pathstats import orbit_counts, type_counts
from cmlocus.tables import real_points, type_weights

from test_pathstats import explicit_counts

PRIMES_200 = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_fiber_x0_2():
    order = OrderDisc.from_parts(-4, 1)
    got = [
        (str(c.field), c.field.canonical_m(), c.d, c.e, c.count)
        for c in fiber_X0MN(order, 1, 2).classes
    ]
    ok = got == [("Q(1)", 1, 1, 1, 1), ("Q(2)", 1, 1, 2, 1)]
    ok = ok and sum(e * d for _, _, d, e, _ in got) == 3 == psi(2)
    verdict(1, ok, "fiber of X0(2) over J_-4 is [J_1728] + 2[J_other]")


def test_criterion_2_fiber_x0_3():
    order = OrderDisc.from_parts(-3, 1)
    got = [
        (str(c.field), c.field.canonical_m(), c.d, c.e, c.count)
        for c in fiber_X0MN(order, 1, 3).classes
    ]
    ok = got == [("Q(1)", 1, 1, 1, 1), ("Q(3)", 1, 1, 3, 1)]
    ok = ok and sum(e * d for _, _, d, e, _ in got) == 4 == psi(3)
    verdict(2, ok, "fiber of X0(3) over J_-3 is [J_0] + 3[J_other]")


def test_criterion_3_psi_sum_sweep():
    checked = 0
    ok = True
    for dK in (-3, -4):
        for f in range(1, 7):
            order = OrderDisc.from_parts(dK, f)
            for ell in (2, 3, 5, 7, 13):
                for a in range(1, 6):
                    total = sum(type_weights(order, ell, a).values())
                    ok = ok and total == psi(ell**a)
                    checked += 1
    verdict(3, ok and checked >= 300, f"psi-sum exact on {checked} prime-power fibers")


def test_criterion_4_class_number_oracle():
    ok = class_number(-4) == 1 and class_number(-64) == 2 and class_number(-243) == 3
    for dK in (-3, -4):
        for f in range(1, 501):
            if rcf_rel_degree(dK, f) != class_number(f * f * dK):
                ok = False
                break
    verdict(4, ok, "reduced-forms census equals the conductor formula, f <= 500")


def test_criterion_5_compositum_anomaly():
    r = compose_rcf([K(2, -3), K(3, -3)])
    ok = r.closure == K(6, -3) and r.index == 3 and rcf_rel_degree(-3, 6) == 3
    # coprime non-S pairs have index exactly w_K/2
    for dK in (-3, -4):
        w2 = unit_count(dK) // 2
        pairs = 0
        for f1 in range(2, 20):
            for f2 in range(f1 + 1, 20):
                from math import gcd

                if gcd(f1, f2) != 1 or in_S(f1, dK) or in_S(f2, dK):
                    continue
                pairs += 1
                if compose_rcf([K(f1, dK), K(f2, dK)]).index != w2:
                    ok = False
        ok = ok and pairs > 20
    verdict(5, ok, "K(2)K(3) = K(1) inside K(6) of index 3; coprime index w_K/2")


def test_criterion_6_x1_transfer():
    ok = True
    for dK, e_want in ((-4, 2), (-3, 3)):
        order = OrderDisc.from_parts(dK, 1)
        for N in range(4, 51):
            if not elliptic_compatible(order, 1, N):
                try:
                    x1_fiber(order, 1, N, "elliptic")
                    ok = False
                except ValidationError:
                    pass
                continue
            e, f, count = x1_fiber(order, 1, N, "elliptic")
            phi = euler_phi(N)
            ok = ok and count == 1 and e == e_want and e * f == phi // 2
            ok = ok and f == phi // (2 * e_want)
    # inert cases
    o16 = OrderDisc.from_parts(-4, 2)
    ok = ok and x1_fiber(o16, 1, 7) == (1, 3, 1)
    ok = ok and x1_fiber(OrderDisc.from_parts(-3, 1), 7, 7) == (1, 3, 1)
    verdict(6, ok, "X1 transfer: (2, phi/4) and (3, phi/6) over elliptic points")


def test_criterion_7_casework_cross_validation():
    ok = True
    checked = 0
    for dK in (-3, -4):
        for f in range(1, 13):
            order = OrderDisc.from_parts(dK, f)
            for ell in PRIMES_200:
                a = 1
                while ell**a <= 200:
                    for ap in range(0, a + 1):
                        cw, _ = primitive_X0MN(order, ell**ap, ell**a)
                        en = enumerated_primitive(order, ell**ap, ell**a)
                        match = len(cw) == len(en) and all(
                            any(is_isomorphic(x, y) for y in en) for x in cw
                        )
                        ok = ok and match
                        checked += 1
                    a += 1
    verdict(7, ok, f"published casework equals enumerated minima ({checked} cells)")


def test_criterion_8_oracle_equivalence():
    ok = True
    # per-type path totals: structural walker against the tables,
    # all ells and conductors, L + a <= 6
    for dK in (-3, -4):
        for f0 in range(1, 7):
            for ell in (2, 3, 5, 7, 13):
                if f0 % ell == 0:
                    continue
                for L in range(0, 6):
                    for a in range(1, 7 - L):
                        order = OrderDisc.from_parts(dK, ell**L * f0)
                        table = type_weights(order, ell, a)
                        walker = type_counts(dK, ell, f0, L, a)
                        ok = ok and {t: v[0] for t, v in walker.items()} == table
    # explicit brute force agrees with the walker (paths and real paths)
    for dK in (-3, -4):
        for f0 in (1, 2, 3):
            for ell in (2, 3, 5):
                if f0 % ell == 0:
                    continue
                for L in (0, 1):
                    for a in range(1, 5 - L):
                        exp = explicit_counts(dK, ell, f0, L, a)
                        ok = ok and exp == type_counts(dK, ell, f0, L, a)
    # real geometric points per type = rational classes x real conjugates
    for dK in (-3, -4):
        for ell in (2, 3, 5, 7, 13):
            for a in range(1, 7):
                want = real_points(OrderDisc.from_parts(dK, 1), ell, a)
                for t, (_tot, real) in orbit_counts(dK, ell, a).items():
                    ok = ok and real == want[t]
    verdict(8, ok, "graph oracle reproduces table totals and real counts")


def test_criterion_9_composite_totals():
    ok = True
    fibers = 0
    for dK in (-3, -4):
        for f in (1, 2, 3):
            order = OrderDisc.from_parts(dK, f)
            for N in range(1, 61):
                for M in range(1, N + 1):
                    if N % M:
                        continue
                    report = fiber_X0MN(order, M, N)
                    ok = (
                        ok
                        and report.check_total == psi(N) * M * euler_phi(M)
                        and all(c.count > 0 for c in report.classes)
                    )
                    fibers += 1
    verdict(9, ok, f"sum e*d*count = psi(N) M phi(M) on {fibers} composite fibers")


def test_criterion_10_primitive_degree_dichotomy():
    ok = True
    two_field = 0
    for dK in (-3, -4):
        for f in range(1, 13):
            order = OrderDisc.from_parts(dK, f)
            for M in (1, 2):
                for N in range(M, 201):
                    if N % M:
                        continue
                    fields, degrees = primitive_X0MN(order, M, N)
                    if len(fields) != 2:
                        continue
                    two_field += 1
                    qf = next(s for s in fields if not s.contains_K)
                    kf = next(s for s in fields if s.contains_K)
                    b, c = field_degree(qf), field_degree(kf)
                    ok = ok and c <= b and (2 * b) % c == 0
                    # two primitive degrees exactly when every two-field
                    # prime sits in the split, deep-level regime
                    from cmlocus.arith import factorize, kronecker, valuation

                    all_split_deep = True
                    any_two = False
                    for ell, a in factorize(N).items():
                        local, _ = primitive_X0MN(order, ell ** valuation(M, ell), ell**a)
                        if len(local) == 2:
                            any_two = True
                            L = order.ell_valuation(ell)
                            split_deep = (
                                ell > 2
                                and L >= 1
                                and kronecker(dK, ell) == 1
                                and a > 2 * L
                            )
                            all_split_deep = all_split_deep and split_deep
                    ok = ok and any_two
                    ok = ok and (len(degrees) == 2) == all_split_deep
    verdict(
        10,
        ok and two_field > 100,
        f"c <= b, c | 2b, and the degree dichotomy on {two_field} two-field cases",
    )
