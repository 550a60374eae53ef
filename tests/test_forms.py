import time
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from cmlocus import forms
from cmlocus.arith import ValidationError
from cmlocus.fields import rcf_rel_degree
from cmlocus.forms import (
    class_number,
    compose,
    inverse_form,
    is_ambiguous,
    prime_form,
    principal_form,
    reduce_form,
    reduced_forms,
    two_torsion_count,
)


def test_class_number_paper_examples():
    assert class_number(-4) == 1  # one j-invariant: 1728
    assert class_number(-64) == 2  # quadratic J_-64
    assert class_number(-243) == 3  # cubic Galois orbit in Example 4.3


def test_class_number_known_values():
    known = {-3: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -47: 5, -71: 7}
    for d, h in known.items():
        assert class_number(d) == h


def test_two_torsion_examples():
    assert two_torsion_count(-4) == 1
    assert two_torsion_count(-100) == 2
    assert two_torsion_count(-243) == 1
    # 399165290221 * 798330580441 is a strong pseudoprime to the prime
    # bases 2..37 (psi_12); with the factor 3, mu = 3
    assert two_torsion_count(-3 * 318665857834031151167461) == 4


def test_two_torsion_divides_and_squares_trivial():
    for delta in range(-3, -2000, -1):
        if delta % 4 not in (0, 1):
            continue
        h = class_number(delta)
        r2 = two_torsion_count(delta)
        assert h % r2 == 0
        one = principal_form(delta)
        for f in reduced_forms(delta):
            if is_ambiguous(f):
                assert compose(f, f, delta) == one


def test_two_torsion_genus_theory_matches_census():
    for delta in range(-3, -20000, -1):
        if delta % 4 in (0, 1):
            ambiguous = sum(map(is_ambiguous, reduced_forms(delta)))
            assert two_torsion_count(delta) == ambiguous, delta


@settings(deadline=None)
@given(st.integers(3, 10**6).filter(lambda n: n % 4 in (0, 3)))
def test_two_torsion_divides_class_number_and_counts_ambiguous_forms(n):
    r2 = two_torsion_count(-n)
    assert class_number(-n) % r2 == 0
    assert r2 == sum(map(is_ambiguous, reduced_forms(-n)))


def _a_major_reduced_forms(delta):
    # reference census: a outer, every b in (-a, a] inner
    out = []
    for a in range(1, isqrt(-delta // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - delta) % (4 * a) == 0:
                c = (b * b - delta) // (4 * a)
                if c >= a and gcd(a, b, c) == 1 and not (a == c and b < 0):
                    out.append((a, b, c))
    return out


# discriminants that reach each branch of the census sieve's root classes:
# a 2-power, a 3-power (q | delta), 3*5*7*11*13*17, delta = 5 (mod 8), so
# 2 divides no (b^2 - delta)/4, and one of each family in oracle_sweep's band
SIEVE_BRANCHES = [-4 * 512**2, -3 * 243**2, -4 * 255255, -999995, -3 * 361**2, -4 * 313**2]


def test_reduced_forms_match_a_major_census():
    deltas = [d for d in range(-3, -5000, -1) if d % 4 in (0, 1)]
    for delta in deltas + [-404100, -404103] + SIEVE_BRANCHES:
        assert reduced_forms(delta) == _a_major_reduced_forms(delta), delta


@settings(deadline=None, max_examples=20)
@given(st.integers(3, 10**6).filter(lambda n: n % 4 in (0, 3)))
def test_reduced_forms_match_a_major_census_anywhere(n):
    assert reduced_forms(-n) == _a_major_reduced_forms(-n)


def test_census_sieve_checks_its_root_classes(monkeypatch):
    # a wrong square root puts the sieve on t where q does not divide
    # (b^2 - delta)/4; the check raises under python -O too
    monkeypatch.setattr(forms, "_sqrt_mod", lambda n, p: 0)
    with pytest.raises(AssertionError, match="census sieve"):
        reduced_forms(-4 * 313**2)


def test_sqrt_mod_squares_back():
    # every square n mod every odd prime p < 500: those with n^q = 1 for
    # p - 1 = 2^s q (every n when p = 3 mod 4) take the early return, the
    # others the Tonelli-Shanks loop
    for p in range(3, 500, 2):
        if any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            continue
        for n in {x * x % p for x in range(p)}:
            assert forms._sqrt_mod(n, p) ** 2 % p == n, (n, p)


def test_census_at_the_cap():
    # two discriminants just under DISC_CAP = 10^7, against the conductor
    # formula, in bounded time
    t0 = time.perf_counter()
    assert class_number(-3 * 1825**2) == rcf_rel_degree(-3, 1825) == 720
    assert class_number(-4 * 1581**2) == rcf_rel_degree(-4, 1581) == 1024
    assert time.perf_counter() - t0 < 1.0


def test_reduction_idempotent_and_canonical():
    assert reduce_form((5, 2, 2)) == (2, 2, 5)
    assert reduce_form((1, 0, 4)) == (1, 0, 4)
    for delta in (-84, -231, -420):
        for f in reduced_forms(delta):
            assert reduce_form(f) == f


def test_composition_group_laws():
    for delta in (-84, -120, -231, -328):
        forms = reduced_forms(delta)
        one = principal_form(delta)
        for f in forms:
            assert compose(f, one, delta) == f
            assert compose(f, inverse_form(f), delta) == one
        # associativity spot check on the first few forms
        for f in forms[:3]:
            for g in forms[:3]:
                for k in forms[:3]:
                    assert compose(compose(f, g, delta), k, delta) == compose(
                        f, compose(g, k, delta), delta
                    )


def test_composition_with_shared_leading_factors():
    # gcd(a1, a2) > 1: the cases a coprime change of basis used to handle
    assert compose((3, -2, 5), (3, -2, 5), -56) == (2, 0, 7)
    assert compose((2, 2, 33), (6, -2, 11), -260) == (3, -2, 22)
    assert compose((3, 3, 97), (15, 15, 23), -1155) == (5, 5, 59)


def test_class_group_order_lagrange():
    for delta in (-84, -104, -231):
        h = class_number(delta)
        one = principal_form(delta)
        for f in reduced_forms(delta):
            # the order of each class, by iterated composition, divides h
            power, order = f, 1
            while power != one:
                power = compose(power, f, delta)
                order += 1
            assert h % order == 0


def test_prime_form():
    f = prime_form(-36, 5)
    assert f[0] in (2, 5) and (f[1] ** 2 - 4 * f[0] * f[2]) == -36
    assert compose(f, f, -36) == principal_form(-36)
    with pytest.raises(ValidationError):
        prime_form(-36, 7)  # inert


def _prime_form_by_scan(delta, ell):
    # the reference: the first b in [0, 2 ell) with b^2 = delta (mod 4 ell)
    for b in range(2 * ell):
        if (b * b - delta) % (4 * ell) == 0:
            return reduce_form((ell, b, (b * b - delta) // (4 * ell)))
    return None


def test_prime_form_matches_the_scan():
    primes = [p for p in range(2, 98) if all(p % q for q in range(2, isqrt(p) + 1))]
    for delta in range(-3, -2001, -1):
        if delta % 4 not in (0, 1):
            continue
        for ell in primes:
            want = _prime_form_by_scan(delta, ell)
            if want is None:
                with pytest.raises(ValidationError, match="inert"):
                    prime_form(delta, ell)
            else:
                assert prime_form(delta, ell) == want, (delta, ell)


def test_prime_form_at_a_large_prime_is_fast():
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="inert"):
        prime_form(-84, 999999999989)
    a, b, c = prime_form(-84, 1000000000039)  # split
    assert time.perf_counter() - t0 < 1.0
    assert b * b - 4 * a * c == -84 and reduce_form((a, b, c)) == (a, b, c)
    with pytest.raises(ValidationError, match="factorization guard"):
        prime_form(-84, 10**24 + 7)


def test_census_guard():
    for census in (class_number, reduced_forms):
        for delta in (-(10**7) - 3, -5, 0, 4):
            with pytest.raises(ValidationError):
                census(delta)
