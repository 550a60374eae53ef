"""The Galois-orbit oracle against the fiber of X0(M,N): the oracle reads no
path table and no field rule, so agreement on (K flag, canonical conductor,
d, e) -> count checks the multi-prime fold of ``locus`` independently."""

import os
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cmlocus
from cmlocus import orbits
from cmlocus.arith import OrderDisc, ValidationError
from cmlocus.locus import fiber_X0MN
from cmlocus.orbits import _Level, _mul, _residue_gens, _ring_class_degree, fiber_orbits


def library(order, M, N):
    out = Counter()
    for c in fiber_X0MN(order, M, N).classes:
        out[(c.field.contains_K, c.field.canonical_m(), c.d, c.e)] += c.count
    return dict(out)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_degree_one_fibers_of_criteria_1_and_2():
    # X0(2) over j = 1728 and X0(3) over j = 0: two rational points each, the
    # second ramified with e = w_K / 2
    assert fiber_orbits(OrderDisc.from_parts(-4, 1), 1, 2) == {
        (False, 1, 1, 1): 1,
        (False, 1, 1, 2): 1,
    }
    assert fiber_orbits(OrderDisc.from_parts(-3, 1), 1, 3) == {
        (False, 1, 1, 1): 1,
        (False, 1, 1, 3): 1,
    }


# the three blocks of the comparison: every prime combination of X0(N); the
# lifts to M >= 2; and the deep 2-adic conductors, where the lift of
# X0(2, 2^a) once read two Q(m) points for one K(m) point
BLOCKS = {
    "M = 1, f <= 6, N <= 60": [
        (dK, f, 1, N) for dK in (-3, -4) for f in range(1, 7) for N in range(1, 61)
    ],
    "M >= 2, f <= 4, M | N <= 16": [
        (dK, f, M, N) for dK in (-3, -4) for f in range(1, 5) for N in range(2, 17)
        for M in _divisors(N)[1:]
    ],
    "f in {8, 12, 16}, M in {1, 2, 4}, N in {8, 16, 24, 32}": [
        (dK, f, M, N) for dK in (-3, -4) for f in (8, 12, 16) for M in (1, 2, 4)
        for N in (8, 16, 24, 32)
    ],
}


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_oracle_matches_the_fiber(block):
    # level by level, so each level's table of lines is built once
    for dK, f, M, N in sorted(BLOCKS[block], key=lambda q: q[3]):
        order = OrderDisc.from_parts(dK, f)
        assert fiber_orbits(order, M, N) == library(order, M, N), (dK, f, M, N)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((-3, -4)), st.integers(1, 6), st.integers(1, 40), st.integers(0, 10**6))
def test_oracle_matches_the_fiber_property(dK, f, N, pick):
    divisors = _divisors(N)
    M = divisors[pick % len(divisors)]
    order = OrderDisc.from_parts(dK, f)
    assert fiber_orbits(order, M, N) == library(order, M, N)


def _closure(gens, t, n, N):
    seen, frontier = {(1 % N, 0)}, [(1 % N, 0)]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = _mul(h, g, t, n, N)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


@pytest.mark.parametrize("dK", [-3, -4])
def test_generators_span_the_groups(dK):
    # the Cartan generators reach all of (O/NO)^*, and each H_m has index
    # [K(m f) : K(f)] in it, the class number formula
    for f in (1, 2, 3, 4):
        order = OrderDisc.from_parts(dK, f)
        for N in (2, 3, 4, 6, 8, 9, 12, 16, 18, 20):
            lv = _Level(order, N)
            # x + y tau is a unit mod N exactly when its norm is
            units = {
                (x, y) for x in range(N) for y in range(N)
                if gcd(x * x + x * y * lv.t + y * y * lv.n, N) == 1
            }
            assert _closure(lv.cartan, lv.t, lv.n, N) == units, (dK, f, N)
            for m in _divisors(N):
                h = _closure(lv.h_gens(m), lv.t, lv.n, N)
                index = _ring_class_degree(dK, m * f) // _ring_class_degree(dK, f)
                assert len(units) == len(h) * index, (dK, f, N, m)


def test_residue_generators_are_at_most_two():
    # (O/lO)^* has rank at most 2, so at most two generators reach it, for l
    # inert, split and ramified alike (X^2 - tX + n with 0, 2 or 1 roots)
    for ell in (p for p in range(2, 101) if all(p % q for q in range(2, p))):
        kinds = {}
        for t, n in ((t, n) for t in range(ell) for n in range(ell)):
            roots = sum((x * x - t * x + n) % ell == 0 for x in range(ell))
            kinds.setdefault(roots, (t, n))
            if len(kinds) == 3:
                break
        assert len(kinds) == 3, ell
        for roots, (t, n) in kinds.items():
            gens = _residue_gens(t, n, ell)
            assert len(gens) <= 2, (ell, t, n, gens)
            if ell <= 31:  # the span, on groups of at most 31^2 elements
                units = {
                    (x, y) for x in range(ell) for y in range(ell)
                    if (x * x + t * x * y + n * y * y) % ell
                }
                assert _closure(gens, t, n, ell) == units, (ell, t, n)


def test_a_residue_field_that_is_no_ring_class_field_fails_loudly(monkeypatch):
    # the index check is a plain if, so it also runs under python -O
    monkeypatch.setattr(orbits, "_ring_class_degree", lambda dK, c: 7 * c)
    with pytest.raises(AssertionError, match="no ring class field"):
        fiber_orbits(OrderDisc.from_parts(-4, 1), 1, 5)


def test_refused_inputs():
    order = OrderDisc.from_parts(-4, 1)
    for M, N in ((2, 3), (0, 4), (1, 0), (2.0, 4), (1, True)):
        with pytest.raises(ValidationError):
            fiber_orbits(order, M, N)
    with pytest.raises(ValidationError):
        fiber_orbits((-4, -4, 1), 1, 2)
    # past the bound on pairs (psi(200) 200 phi(200) = 5,760,000) or on the
    # N^2 table of vectors, before anything is built
    for M, N in ((200, 200), (1, 317), (1, 10**12)):
        with pytest.raises(ValidationError):
            fiber_orbits(order, M, N)


def test_the_oracle_loads_only_arith():
    # independent of the tables, the graphs, the walker, the fields and locus
    code = "import sys, cmlocus.orbits\nprint(sorted(m for m in sys.modules if 'cmlocus.' in m))"
    src = str(Path(cmlocus.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out == "['cmlocus.arith', 'cmlocus.orbits']\n"
