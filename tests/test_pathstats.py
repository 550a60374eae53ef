from collections import Counter

import pytest

from cmlocus.arith import OrderDisc, ValidationError, psi
from cmlocus.graph import conjugation_graph, enumerate_paths, geometric_points
from cmlocus.pathstats import orbit_counts, type_counts
from cmlocus.tables import real_points, type_weights

GRID = [
    (dK, ell, f0, L, a)
    for dK in (-3, -4)
    for ell in (2, 3, 5)
    for f0 in (1, 2, 3, 15)
    if f0 % ell
    for L in (0, 1, 2)
    for a in range(1, 5 - L)
]


def explicit_counts(dK, ell, f0, L, a):
    # paths and real paths per type on the materialized graph; acceptance
    # criterion 8 reads the same view
    g = conjugation_graph(dK, ell, f0, L + a)
    tot, real = Counter(), Counter()
    for p in enumerate_paths(g, L, a):
        tot[p.bhd] += 1
        if g.path_real(p):
            real[p.bhd] += 1
    return {t: (tot[t], real[t]) for t in tot}


@pytest.mark.parametrize("dK,ell,f0,L,a", GRID)
def test_walker_matches_explicit_graph(dK, ell, f0, L, a):
    assert type_counts(dK, ell, f0, L, a) == explicit_counts(dK, ell, f0, L, a)


@pytest.mark.parametrize("dK", [-3, -4])
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 13])
def test_walker_totals_match_tables(dK, ell):
    for f0 in (1, 2, 3, 5, 6):
        if f0 % ell == 0:
            continue
        for L in (0, 1, 2):
            for a in range(1, 6 - L):
                order = OrderDisc.from_parts(dK, ell**L * f0)
                walker = type_counts(dK, ell, f0, L, a)
                assert {t: v[0] for t, v in walker.items()} == type_weights(order, ell, a)
                assert sum(v[0] for v in walker.values()) == psi(ell**a)


@pytest.mark.parametrize("dK", [-3, -4])
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_orbits_match_explicit(dK, ell):
    for a in (1, 2, 3, 4):
        g = conjugation_graph(dK, ell, 1, a)
        pts = geometric_points(g, enumerate_paths(g, 0, a))
        tot, real = Counter(), Counter()
        for p in pts:
            tot[p.bhd] += 1
            if p.real:
                real[p.bhd] += 1
        assert orbit_counts(dK, ell, a) == {t: (tot[t], real[t]) for t in tot}


def test_real_orbits_count_rational_classes():
    # real geometric points per type = (rational classes) x (real conjugates
    # of the terminal j-invariant)
    for dK in (-3, -4):
        for ell in (2, 3, 5, 7, 13):
            for a in range(1, 7):
                want = real_points(OrderDisc.from_parts(dK, 1), ell, a)
                for t, (_tot, real) in orbit_counts(dK, ell, a).items():
                    assert real == want[t]


@pytest.mark.parametrize(
    "dK,ell,f0", [(-4, 2, 1), (-3, 2, 1), (-3, 3, 1), (-4, 3, 1), (-3, 2, 3)]
)
def test_walker_matches_explicit_deep_levels(dK, ell, f0):
    for L in (2, 3):
        for a in (1, 2, 3):
            assert type_counts(dK, ell, f0, L, a) == explicit_counts(
                dK, ell, f0, L, a
            )


def test_frozen_real_path_counts():
    # hand-derived from the conjugation rules on the marked chain
    expect_44 = {1: 2, 2: 4, 3: 4, 4: 4}  # (-4,2,1) purely descending
    for a, r in expect_44.items():
        assert type_counts(-4, 2, 1, 0, a)[(0, 0, a)][1] == r
    for a in (1, 2, 3, 4):  # (-3,3,1): single real chain
        counts = type_counts(-3, 3, 1, 0, a)
        assert counts[(0, 0, a)][1] == 1
        assert counts[(0, 1, a - 1)][1] == 1
    expect_32 = {1: 1, 2: 2, 3: 4, 4: 4}  # (-3,2,1) doubling then pairing
    for a, r in expect_32.items():
        assert type_counts(-3, 2, 1, 0, a)[(0, 0, a)][1] == r


def test_walker_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        type_counts(-4, 4, 1, 0, 2)  # composite ell
    with pytest.raises(ValidationError):
        type_counts(-7, 2, 1, 0, 2)  # outside the two maximal orders
    with pytest.raises(ValidationError):
        type_counts(-4, 2, 2, 0, 2)  # f0 not coprime to ell
