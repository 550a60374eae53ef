import hashlib
from collections import Counter

import pytest

from cmlocus import graph as G
from cmlocus.arith import ValidationError, psi
from cmlocus.fields import rcf_rel_degree
from cmlocus.forms import two_torsion_count
from cmlocus.graph import (
    build_graph,
    conjugation_graph,
    double_cover,
    enumerate_paths,
    geometric_points,
    to_dot,
)

SWEEP = [
    (dK, ell, f0)
    for dK in (-3, -4)
    for ell in (2, 3, 5, 7)
    for f0 in (1, 2, 3)
    if f0 % ell
]


def test_example_42_structure():
    g = build_graph(-4, 2, 1, 2)
    assert g.level_counts == (1, 1, 2)
    v0 = g.marked(0)
    assert len(g.out[v0]) == 3  # outward degree 3: loop + two descents
    assert sum(1 for e in g.out[v0] if e.kind == "horiz") == 1


def test_example_43_structure():
    g = build_graph(-3, 3, 1, 2)
    v0 = g.marked(0)
    assert len(g.out[v0]) == 4  # loop plus three parallel descents
    assert sum(1 for e in g.out[v0] if e.kind == "down") == 3


def test_split_surface_structure():
    g = build_graph(-4, 5, 1, 1)
    v0 = g.marked(0)
    loops = [e for e in g.out[v0] if e.kind == "horiz"]
    downs = [e for e in g.out[v0] if e.kind == "down"]
    assert len(loops) == 2 and g.level_counts[1] == 2
    targets = Counter(e.dst for e in downs)
    assert sorted(targets.values()) == [2, 2]
    # the two surface loops are interchanged by conjugation
    assert all(not g.edge_real(e) for e in loops)


def test_minus3_ell7_one_fixed_edge_per_triple():
    g = build_graph(-3, 7, 1, 1)
    v0 = g.marked(0)
    for t in range(g.level_counts[1]):
        edges = [e for e in g.out[v0] if e.kind == "down" and e.dst.index == t]
        assert len(edges) == 3
        fixed = sum(1 for e in edges if g.edge_real(e))
        assert fixed == (1 if g.vertex_real(edges[0].dst) else 0)


def test_minus3_ell2_real_counts():
    g = build_graph(-3, 2, 1, 4)
    assert [g.real_vertex_count(m) for m in range(4)] == [1, 1, 2, 4]


@pytest.mark.parametrize("dK,ell,f0", SWEEP)
def test_vertex_counts_and_conjugation(dK, ell, f0):
    from cmlocus.forms import class_number

    depth = 3
    g = build_graph(dK, ell, f0, depth)
    for m in range(depth + 1):
        disc = ell ** (2 * m) * f0 * f0 * dK
        assert g.level_counts[m] == class_number(disc)
        assert g.real_vertex_count(m) == two_torsion_count(disc)
        assert g.vertex_real(g.marked(m))
    # conjugation is an involution on vertices and on edges
    for v, w in g.conj_v.items():
        assert g.conj_v[w] == v
    for a, b in g.conj_e.items():
        assert g.conj_e[b] == a


@pytest.mark.parametrize("dK,ell,f0", SWEEP)
def test_path_count_identity(dK, ell, f0):
    for L in (0, 1):
        for a in (1, 2, 3):
            g = conjugation_graph(dK, ell, f0, L + a)
            paths = enumerate_paths(g, L, a)
            assert len(paths) == psi(ell**a)
            for p in paths:
                b, h, d = p.bhd
                assert b + h + d == a
                if h:  # horizontal steps only at the surface
                    assert all(
                        e.src.level == 0 for e in p.edges if e.kind == "horiz"
                    )


@pytest.mark.parametrize("dK,ell,f0", SWEEP)
def test_conjugation_permutes_paths(dK, ell, f0):
    g = conjugation_graph(dK, ell, f0, 3)
    paths = enumerate_paths(g, 0, 3)
    keyset = {tuple(e.eid for e in p.edges) for p in paths}
    for p in paths:
        q = g.conjugate_path(p)
        assert tuple(e.eid for e in q.edges) in keyset
        assert q.bhd == p.bhd


def test_geometric_points_examples():
    g = conjugation_graph(-4, 2, 1, 1)
    pts = geometric_points(g, enumerate_paths(g, 0, 1))
    assert sorted(p.e for p in pts) == [1, 2]
    g = conjugation_graph(-3, 3, 1, 1)
    pts = geometric_points(g, enumerate_paths(g, 0, 1))
    assert sorted(p.e for p in pts) == [1, 3]
    g = conjugation_graph(-4, 5, 1, 1)
    pts = geometric_points(g, enumerate_paths(g, 0, 1))
    assert len(pts) == 4
    assert sum(p.e for p in pts if p.e == 2) + sum(1 for p in pts if p.e == 1) == 6


def test_geometric_conjugation_action():
    # conjugation permutes the geometric points, preserves (b,h,d) and e,
    # and fixes exactly the points marked real
    for params in [(-4, 5, 1), (-3, 7, 1), (-4, 2, 1), (-3, 2, 1)]:
        g = conjugation_graph(*params, 3)
        pts = geometric_points(g, enumerate_paths(g, 0, 3))
        orbits = {
            frozenset(tuple(x.eid for x in q.edges) for q in p.paths): p
            for p in pts
        }
        for key, p in orbits.items():
            conj = frozenset(
                tuple(x.eid for x in g.conjugate_path(q).edges) for q in p.paths
            )
            assert conj in orbits
            mate = orbits[conj]
            assert mate.bhd == p.bhd and mate.e == p.e
            assert (conj == key) == p.real


def test_double_cover_structure():
    g = double_cover(-4, 2, 1, 2)
    assert g.doubled
    cross = [
        e
        for e in g.edges.values()
        if e.kind == "horiz"
    ]
    assert len(cross) == 2  # both directions of the unwrapped loop
    assert all(g.edge_real(e) for e in cross)
    # far-copy surface descents are complex
    import cmlocus.graph as G

    far = [
        e
        for e in g.edges.values()
        if e.kind == "down" and e.src == G.Vertex(1, 0, 0)
    ]
    assert len(far) == 2 and all(not g.edge_real(e) for e in far)
    near = [
        e
        for e in g.edges.values()
        if e.kind == "down" and e.src == G.Vertex(0, 0, 0)
    ]
    assert len(near) == 2 and all(g.edge_real(e) for e in near)


def test_double_cover_projects_onto_base():
    base = build_graph(-4, 2, 1, 2)
    cover = double_cover(-4, 2, 1, 2)
    base_edges = Counter(
        (e.src.level, e.src.index, e.dst.level, e.dst.index, e.kind)
        for e in base.edges.values()
        if e.kind != "horiz"
    )
    for copy in (0, 1):
        proj = Counter(
            (e.src.level, e.src.index, e.dst.level, e.dst.index, e.kind)
            for e in cover.edges.values()
            if e.kind != "horiz" and e.src.copy == copy
        )
        assert proj == base_edges


def test_double_cover_same_enumeration_for_minus3():
    # the (-3, 3, 1) enumeration is the same with or without the cover
    base = build_graph(-3, 3, 1, 3)
    cover = double_cover(-3, 3, 1, 3)
    for a in (1, 2, 3):
        pb = enumerate_paths(base, 0, a)
        pc = enumerate_paths(cover, 0, a)
        assert len(pb) == len(pc)
        rb = Counter((p.bhd, base.path_real(p)) for p in pb)
        rc = Counter((p.bhd, cover.path_real(p)) for p in pc)
        assert rb == rc


def test_cached_graphs_are_read_only():
    g = build_graph(-4, 5, 1, 2)
    v0 = g.marked(0)
    with pytest.raises(TypeError):
        g.level_counts[1] = 99
    with pytest.raises(AttributeError):
        g.out[v0].append(g.out[v0][0])
    with pytest.raises(TypeError):
        g.out[v0] = ()
    with pytest.raises(TypeError):
        g.conj_e[0] = 1
    with pytest.raises(AttributeError):
        g.level_counts = [1, 99, 10]
    again = build_graph(-4, 5, 1, 2)
    assert again is g
    assert again.level_counts == (1, 2, 10)
    assert len(again.out[v0]) == 6  # two loops and two bundles of two descents
    cover = double_cover(-4, 2, 1, 2)
    with pytest.raises(TypeError):
        cover.dual[0] = 0
    with pytest.raises(AttributeError):
        cover.depth = 5
    assert double_cover(-4, 2, 1, 2) is cover


def test_double_cover_rejects_other_params():
    with pytest.raises(ValidationError):
        double_cover(-4, 5, 1, 2)


def test_dot_export():
    g = build_graph(-4, 2, 1, 1)
    dot = to_dot(g)
    assert dot.startswith("digraph") and "orange" in dot


def test_build_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        build_graph(-7, 2, 1, 2)  # outside the two maximal orders
    with pytest.raises(ValidationError):
        build_graph(-4, 4, 1, 2)  # composite ell
    with pytest.raises(ValidationError):
        build_graph(-4, 2, 2, 2)  # f0 not coprime to ell
    with pytest.raises(ValidationError):
        build_graph(-4, 2, 1, 0)
    with pytest.raises(ValidationError):
        build_graph(-4, 13, 1, 12)  # about 1.2e13 vertices, past VERTEX_LIMIT


def test_x0nn_consistency():
    # on X0(N,N) every class carries the scalar-structure field: K(Nf), or
    # Q(2f) at N = 2 over an even delta
    from cmlocus.arith import OrderDisc
    from cmlocus.fields import K, Q
    from cmlocus.locus import fiber_X0MN

    for dK in (-3, -4):
        for f in (1, 2):
            order = OrderDisc.from_parts(dK, f)
            for N in (2, 3, 4, 6, 9, 10):
                want = K(N * f, dK) if N >= 3 or order.delta % 2 else Q(2 * f, dK)
                for c in fiber_X0MN(order, N, N).classes:
                    assert c.field == want


def test_backtracking_rule_loop_then_descend():
    # after the (self-dual) surface loop: no second loop, both descents open
    g = conjugation_graph(-4, 2, 1, 2)
    shapes = Counter(p.bhd for p in enumerate_paths(g, 0, 2))
    assert shapes == {(0, 0, 2): 4, (0, 1, 1): 2}


def test_backtracking_after_ascend():
    # ascend then descend: the designated dual edge is excluded
    g = build_graph(-4, 5, 1, 3)
    paths = enumerate_paths(g, 1, 2)
    shapes = Counter(p.bhd for p in paths)
    assert shapes[(1, 0, 1)] == 3  # 4 parallel exits minus the dual
    assert len(paths) == psi(25)
    # length 0: the one empty path at the marked vertex
    assert [(p.start_level, p.edges) for p in enumerate_paths(g, 1, 0)] == [(1, ())]


def _structure(g):
    return (
        g.level_counts,
        tuple(g.out.items()),
        tuple(g.edges.items()),
        sorted(g.dual.items()),
        sorted(g.conj_v.items()),
        sorted(g.conj_e.items()),
        g.surface_forms,
    )


def _small_graphs():
    # every conjugation graph of at most 2,000 vertices over ell in
    # {2, 3, 5, 7, 13}, f0 <= 5 and depth <= 4
    for dK in (-3, -4):
        for ell in (2, 3, 5, 7, 13):
            for f0 in range(1, 6):
                if f0 % ell == 0:
                    continue
                for depth in range(1, 5):
                    size = sum(rcf_rel_degree(dK, ell**m * f0) for m in range(depth + 1))
                    if size <= 2000:
                        yield (dK, ell, f0, depth), conjugation_graph(dK, ell, f0, depth)


def test_graph_structure_is_pinned():
    # vertices, edges and eids, duals, conjugation, and the order of out
    # and edges
    h = hashlib.sha256()
    built = 0
    for key, g in _small_graphs():
        h.update(repr((key, _structure(g))).encode())
        built += 1
    assert built == 142
    assert h.hexdigest() == (
        "5da30be11b79a4f8517d047562194b4e969b7b846e8ef0031fb555cb9997d68f"
    )


def test_paths_number_at_most_four_times_the_deepest_level():
    # the bound that lets enumerate_paths go without a limit of its own;
    # it is reached
    ratios = []
    for _, g in _small_graphs():
        deepest = g.level_counts[g.depth]
        for s in range(g.depth + 1):
            for a in range(g.depth - s + 1):
                n = len(enumerate_paths(g, s, a))
                assert n <= 4 * deepest
                ratios.append(n / deepest)
    assert len(ratios) == 1078 and max(ratios) == 4


def test_vertex_limit_refuses_before_building(monkeypatch):
    # 2^17 = 131,072 vertices is past VERTEX_LIMIT = 10^5: refused before
    # any graph, and so any vertex, is made; so is the 177,148-vertex cover
    # of an 88,574-vertex base, before either graph
    build_graph.cache_clear()
    double_cover.cache_clear()

    def no_graph(*args):
        raise AssertionError("a graph was made past VERTEX_LIMIT")

    with monkeypatch.context() as mp:
        mp.setattr(G, "IsogenyGraph", no_graph)
        with pytest.raises(ValidationError, match="exceeds the limit 100000"):
            build_graph(-3, 2, 1, 17)
        with pytest.raises(ValidationError, match="graph of 177148 vertices exceeds"):
            double_cover(-3, 3, 1, 11)
    g = build_graph(-3, 2, 1, 16)
    assert len(g.out) == sum(g.level_counts) == 2**16
    build_graph.cache_clear()


GROWN = [(-4, 2, 1), (-3, 3, 1), (-4, 5, 1), (-3, 2, 5), (-4, 3, 2)]


@pytest.mark.parametrize("dK,ell,f0", GROWN)
def test_grown_graph_equals_cold_build(dK, ell, f0):
    build_graph.cache_clear()
    cold = build_graph(dK, ell, f0, 5)
    assert build_graph.cache_info().currsize <= 4
    build_graph.cache_clear()
    for depth in range(1, 5):
        build_graph(dK, ell, f0, depth)
    grown = build_graph(dK, ell, f0, 5)
    assert grown is not cold
    for name in ("out", "edges", "dual", "conj_v", "conj_e"):
        assert dict(getattr(grown, name)) == dict(getattr(cold, name)), name
    assert tuple(grown.out) == tuple(cold.out)
    assert tuple(grown.edges) == tuple(cold.edges)
    assert to_dot(grown) == to_dot(cold)


def test_grow_checks_that_conjugation_commutes_with_up(monkeypatch):
    # swap the conjugates of the first child of parent 0 and the first child
    # of parent 1, indices 0 and c in blocks of c: conjugation no longer
    # maps siblings to siblings
    real_mark_level = G._mark_level

    def swapped(g, m, conj_prev, level):
        conj = real_mark_level(g, m, conj_prev, level)
        c = len(level) // len(conj_prev)
        conj[0], conj[c] = conj[c], conj[0]
        return conj

    build_graph.cache_clear()
    build_graph(-4, 5, 1, 1)
    assert build_graph(-3, 2, 5, 1).level_counts == (2, 6)  # h = 2, c = 2 + 1
    monkeypatch.setattr(G, "_mark_level", swapped)
    with pytest.raises(AssertionError, match="level 2: conjugation does not commute"):
        build_graph(-4, 5, 1, 2)
    # a suborder's level 1 grows from its surface through the same check
    build_graph.cache_clear()
    with pytest.raises(AssertionError, match="level 1: conjugation does not commute"):
        build_graph(-3, 2, 5, 1)
    build_graph.cache_clear()


def test_double_covers_are_pinned():
    # both covers at depth 1-8: vertices, edges and eids, duals,
    # conjugation, and the order of out and edges
    h = hashlib.sha256()
    for dK, ell, f0 in G.COVER_PARAMS:
        for depth in range(1, 9):
            g = double_cover(dK, ell, f0, depth)
            h.update(repr(((dK, ell, f0, depth, g.doubled), _structure(g))).encode())
    assert h.hexdigest() == (
        "e0d53db77ed39ee2386101156f484ceffdcaaaa0e471d17a965a49a26775105d"
    )
