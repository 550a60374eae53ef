from itertools import combinations
from math import gcd, isqrt, lcm

import pytest

from cmlocus.arith import OrderDisc, ValidationError, _is_probable_prime, kronecker
from cmlocus.fields import (
    FieldSymbol,
    K,
    Q,
    _chi,
    canonical_conductor,
    check_delta_K,
    compose_rcf,
    embeds,
    field_degree,
    in_S,
    is_isomorphic,
    minimal_fields,
    rcf_rel_degree,
    tensor_rcf,
    unit_count,
)
from cmlocus.forms import class_number


def test_rel_degree_examples():
    assert rcf_rel_degree(-3, 1) == 1
    assert rcf_rel_degree(-4, 1) == 1
    assert rcf_rel_degree(-3, 6) == 3  # the K(2)K(3) anomaly footnote
    assert rcf_rel_degree(-4, 2) == 1 == class_number(-16)


def test_rel_degree_matches_form_count():
    # oracle agreement on a modest range; the f <= 500 sweep runs in acceptance
    for dK in (-3, -4):
        for f in range(1, 121):
            assert rcf_rel_degree(dK, f) == class_number(f * f * dK)


def test_degree_multiplicativity_identity():
    # d(gcd) d(lcm) = d(f1) d(f2) needs gcd > 1; at gcd = 1 the degree of
    # the compositum picks up the extra-unit factor w_K/2 instead.
    for dK in (-3, -4):
        w2 = unit_count(dK) // 2
        for f1 in range(2, 40):
            for f2 in range(2, 40):
                lhs = rcf_rel_degree(dK, gcd(f1, f2)) * rcf_rel_degree(dK, lcm(f1, f2))
                rhs = rcf_rel_degree(dK, f1) * rcf_rel_degree(dK, f2)
                if gcd(f1, f2) > 1:
                    assert lhs == rhs
                else:
                    assert lhs == rhs * w2


def test_field_degree_examples():
    assert field_degree(Q(1, -4)) == 1
    assert class_number(-108) == 3  # oracle for K(6) over Q(sqrt(-3))
    assert field_degree(K(6, -3)) == 6
    assert class_number(-256) == 4  # oracle for Q(8) over Q(i)
    assert field_degree(Q(8, -4)) == 4


def test_in_S():
    assert in_S(2, -4) and in_S(3, -3) and not in_S(5, -4)
    assert [f for f in range(1, 10) if in_S(f, -3)] == [1, 2, 3]
    assert [f for f in range(1, 10) if in_S(f, -4)] == [1, 2]
    for f in (0, -1, -2):  # (-1)^2 * -4 and (-2)^2 * -4 lie in D, but no conductor is < 1
        with pytest.raises(ValidationError):
            in_S(f, -4)


def test_in_S_is_class_number_one():
    for dK in (-3, -4):
        for m in range(1, 2001):
            assert in_S(m, dK) == (rcf_rel_degree(dK, m) == 1), (dK, m)


def test_canonical_conductor_collapses():
    assert canonical_conductor(-3, 2) == 1
    assert canonical_conductor(-3, 3) == 1
    assert canonical_conductor(-4, 2) == 1
    # answered without factorizing, so past FACTOR_LIMIT too
    assert canonical_conductor(-4, 2 * 10**30) == 2 * 10**30
    assert K(2 * 10**30, -4).canonical_m() == 2 * 10**30
    assert canonical_conductor(-3, 6) == 6
    # the definition, by brute force: the smallest divisor of m whose ring
    # class field has the same degree
    for dK in (-3, -4):
        for m in range(1, 3001):
            d = rcf_rel_degree(dK, m)
            divisors = {c for a in range(1, isqrt(m) + 1) if m % a == 0 for c in (a, m // a)}
            least = min(c for c in divisors if rcf_rel_degree(dK, c) == d)
            assert canonical_conductor(dK, m) == least, (dK, m)


def test_isomorphism_and_embedding():
    assert is_isomorphic(Q(2, -3), Q(1, -3))
    assert is_isomorphic(K(2, -4), K(1, -4))
    assert not is_isomorphic(Q(4, -4), K(4, -4))
    assert embeds(Q(4, -4), Q(20, -4))
    assert embeds(Q(4, -4), K(4, -4))
    assert not embeds(K(1, -4), Q(20, -4))  # K never lands in a real field
    assert not embeds(Q(4, -3), Q(18, -3))


def test_minimal_fields():
    # Q = Q(2) embeds into everything here, so it is the unique minimum
    fields = [Q(8, -4), K(2, -4), Q(2, -4), K(8, -4)]
    assert [str(s) for s in minimal_fields(fields)] == ["Q(2)"]
    # without the rational copy the two sides are incomparable
    assert [str(s) for s in minimal_fields([Q(8, -4), K(2, -4)])] == [
        "K(2)",
        "Q(8)",
    ]


def test_compose_examples():
    r = compose_rcf([K(2, -3), K(3, -3)])
    assert str(r.closure) == "K(6)" and r.index == 3  # compositum is K(1)
    r = compose_rcf([K(6, -3), K(10, -3)])
    assert str(r.closure) == "K(30)" and r.index == 1
    r = compose_rcf([K(5, -4), K(7, -4)])
    assert str(r.closure) == "K(35)" and r.index == 2


def test_compose_invariants():
    for dK in (-3, -4):
        w2 = unit_count(dK) // 2
        for fs in combinations(range(1, 16), 2):
            r = compose_rcf([K(f, dK) for f in fs])
            assert w2 ** (len(fs) - 1) % r.index == 0
            if any(gcd(a, b) > 1 for a, b in combinations(fs, 2)):
                assert r.index == 1
        for fs in combinations(range(2, 12), 3):
            r = compose_rcf([K(f, dK) for f in fs])
            assert w2 ** (len(fs) - 1) % r.index == 0


def test_compose_rejects():
    with pytest.raises(ValidationError):
        compose_rcf([K(2, -3), K(3, -4)])
    with pytest.raises(ValidationError):
        compose_rcf([Q(2, -3), K(3, -3)])


def test_tensor_examples():
    parts = tensor_rcf(K(2, -4), K(3, -4))
    assert [str(p.closure) for p in parts] == ["K(3)", "K(3)"]
    assert all(p.index == 1 for p in parts)
    parts = tensor_rcf(Q(6, -3), Q(10, -3))
    assert [str(p.closure) for p in parts] == ["Q(30)"] and parts[0].index == 1
    parts = tensor_rcf(K(6, -3), K(10, -3))
    assert [str(p.closure) for p in parts] == ["K(30)", "K(30)"]


def test_tensor_degree_sum():
    for dK in (-3, -4):
        for f1 in range(1, 20):
            for f2 in range(1, 20):
                m = gcd(f1, f2)
                for b1 in "QK":
                    for b2 in "QK":
                        F1 = FieldSymbol(b1, f1, dK)
                        F2 = FieldSymbol(b2, f2, dK)
                        parts = tensor_rcf(F1, F2)
                        total = sum(p.degree() for p in parts)
                        base = field_degree(Q(m, dK))
                        assert total * base == field_degree(F1) * field_degree(F2)


@pytest.mark.parametrize("dK", [-7, -8, -12, -16, 0, 1])
def test_domain_guard(dK):
    # one guard for every entry point built on the -3/-4 casework
    for call in (
        lambda: check_delta_K(dK),
        lambda: unit_count(dK),
        lambda: in_S(1, dK),
        lambda: rcf_rel_degree(dK, 2),
        lambda: FieldSymbol("Q", 1, dK),
    ):
        with pytest.raises(ValidationError):
            call()


def test_closed_form_symbol_is_kronecker():
    # (delta_K / ell) by ell mod 3 or mod 4 replaces kronecker on the
    # per-prime paths; it must agree at every prime, 2 and delta_K's own included
    for dK in (-3, -4):
        for ell in range(2, 10**4):
            if _is_probable_prime(ell):
                assert _chi(dK, ell) == kronecker(dK, ell), (dK, ell)


def test_interned_records_are_shared():
    assert Q(15, -4) is Q(15, -4) and K(1, -4) is K(1, -4)
    assert OrderDisc.from_parts(-4, 1) is OrderDisc.from_parts(-4, 1)
    assert Q(15, -4) is not K(15, -4) and Q(15, -4) is not Q(15, -3)


def test_interned_records_still_refuse_what_their_key_equals():
    # the caches are typed: 15.0 and True hash and compare equal to 15 and
    # 1, but never find their entries, so the record's own check still runs
    Q(15, -4), K(1, -4), OrderDisc.from_parts(-4, 1)
    for call in (
        lambda: Q(15.0, -4),
        lambda: K(True, -4),
        lambda: OrderDisc.from_parts(-4, True),
        lambda: OrderDisc.from_parts(-4, 1.0),
        lambda: Q(15, -4.0),
    ):
        with pytest.raises(ValidationError):
            call()
    # calling the record type directly checks on every call
    with pytest.raises(ValidationError):
        FieldSymbol("Q", 15.0, -4)
    with pytest.raises(ValidationError):
        OrderDisc(-4, -4, True)
