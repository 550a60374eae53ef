"""Truncated ell-power isogeny graphs with their complex-conjugation action.

Vertices are abstract (copy, level, index) triples; index 0 of every level
is the marked vertex, whose lattice chain pins down the real structure.
Below the surface the graph is the usual volcano; over the maximal orders
of Q(i) and Q(sqrt(-3)) the surface descents come in parallel bundles of
w_K/2 and two parameter sets require passing to a double cover before the
conjugation action means anything.

Each level's vertices lie in contiguous index blocks under their parents.
A graph grows one level at a time: the graph of depth d is the cached
graph of depth d - 1 with one more level added, and a suborder's level 1
grows the same way from its bare surface.  A double cover is two
positional copies of its cached base graph, joined by the two lifts of
the surface loop.

This module materializes graphs for brute-force enumeration; the
non-materializing counter lives in ``pathstats``.
"""

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .arith import ValidationError, _check_consistent, _check_int, _check_prime, kronecker
from .fields import check_delta_K, rcf_rel_degree, unit_count
from .forms import (
    compose,
    inverse_form,
    prime_form,
    principal_form,
    reduced_forms,
    two_torsion_count,
)

COVER_PARAMS = ((-4, 2, 1), (-3, 3, 1))


Vertex = namedtuple("Vertex", "copy level index")
Edge = namedtuple("Edge", "eid src dst kind parallel")  # kind: up | down | horiz


class GraphPath(namedtuple("GraphPath", "start_level edges")):
    __slots__ = ()

    @property
    def bhd(self) -> tuple[int, int, int]:
        kinds = [e.kind for e in self.edges]
        return (kinds.count("up"), kinds.count("horiz"), kinds.count("down"))


class GeometricPoint(namedtuple("GeometricPoint", "paths e real")):
    __slots__ = ()

    @property
    def bhd(self):
        return self.paths[0].bhd


class IsogenyGraph:
    """Explicit truncated graph; built by :func:`build_graph`.

    The builders share each finished graph through their caches, so they
    freeze it: tuples for its lists, read-only views for its dicts, and no
    attribute may be rebound.
    """

    _frozen = False

    def __init__(self, delta_K, ell, f0, depth, doubled=False):
        self.delta_K = delta_K
        self.ell = ell
        self.f0 = f0
        self.depth = depth
        self.doubled = doubled
        self.level_counts: list[int] = []
        self.out: dict[Vertex, list[Edge]] = {}
        self.edges: dict[int, Edge] = {}
        self.dual: dict[int, int] = {}
        self.conj_v: dict[Vertex, Vertex] = {}
        self.conj_e: dict[int, int] = {}
        self.surface_forms: list[tuple[int, int, int]] = []

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"a built IsogenyGraph is read-only; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def _freeze(self) -> "IsogenyGraph":
        self.level_counts = tuple(self.level_counts)
        self.surface_forms = tuple(self.surface_forms)
        out = self.out
        for v, es in out.items():
            if type(es) is list:  # a grown graph shares its base's tuples
                out[v] = tuple(es)
        for name in ("out", "edges", "dual", "conj_v", "conj_e"):
            setattr(self, name, MappingProxyType(getattr(self, name)))
        self._frozen = True
        return self

    # -- basic queries -------------------------------------------------

    def marked(self, level: int) -> Vertex:
        return Vertex(0, level, 0)

    def vertex_real(self, v: Vertex) -> bool:
        return self.conj_v[v] == v

    def edge_real(self, e: Edge) -> bool:
        return self.conj_e[e.eid] == e.eid

    def real_vertex_count(self, level: int) -> int:
        n = self.level_counts[level]
        return sum(
            1 for i in range(n) if self.vertex_real(Vertex(0, level, i))
        )

    def conjugate_path(self, path: GraphPath) -> GraphPath:
        return GraphPath(
            path.start_level,
            tuple(self.edges[self.conj_e[e.eid]] for e in path.edges),
        )

    def path_real(self, path: GraphPath) -> bool:
        conj_e = self.conj_e
        return all(conj_e[e.eid] == e.eid for e in path.edges)

    # -- construction helpers -------------------------------------------

    def _add_edge(self, src, dst, kind, parallel=0):
        e = Edge(len(self.edges), src, dst, kind, parallel)
        self.edges[e.eid] = e
        self.out.setdefault(src, []).append(e)
        return e

    def level_disc(self, level: int) -> int:
        return self.ell ** (2 * level) * self.f0 * self.f0 * self.delta_K


@lru_cache(maxsize=4)
def build_graph(delta_K, ell, f0, depth) -> IsogenyGraph:
    """Build the truncated graph down to ``depth`` levels below the surface.

    A graph of depth 2 or more grows one level from the graph of depth - 1,
    which it takes from this cache; see :func:`_grow`.
    """
    level_counts = _checked_level_counts(delta_K, ell, f0, depth)
    if depth > 1:
        return _grow(build_graph(delta_K, ell, f0, depth - 1), level_counts)
    if f0 == 1:
        return _build_max_order(delta_K, ell, level_counts)
    return _grow(_build_surface_suborder(delta_K, ell, f0, level_counts[:1]), level_counts)


def _checked_level_counts(delta_K, ell, f0, depth, copies=1) -> list[int]:
    """Each level's vertex count, once the parameters pass the guards and
    ``copies`` graphs of these levels fit in ``VERTEX_LIMIT`` vertices."""
    check_delta_K(delta_K)
    _check_prime(ell)
    _check_int(f0, depth)
    if f0 % ell == 0:
        raise ValidationError("f0 must be coprime to ell")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    # level m holds the h(ell^(2m) f0^2 delta_K) = [K(ell^m f0):K(1)] classes
    level_counts = [rcf_rel_degree(delta_K, ell**m * f0) for m in range(depth + 1)]
    size = copies * sum(level_counts)
    if size > VERTEX_LIMIT:
        raise ValidationError(f"graph of {size} vertices exceeds the limit {VERTEX_LIMIT}")
    return level_counts


def _build_max_order(dK, ell, level_counts) -> IsogenyGraph:
    """The depth-1 graph over a maximal order: one surface vertex, its
    loops, and a bundle of w_K/2 parallel descents to each level-1 vertex."""
    g = IsogenyGraph(dK, ell, 1, 1)
    g.level_counts = level_counts
    chi = kronecker(dK, ell)
    w2 = unit_count(dK) // 2
    v0 = Vertex(0, 0, 0)
    g.out[v0] = []
    # horizontal loops; conjugation, like the dual, swaps the two where
    # ell splits
    if chi == 1:
        p = g._add_edge(v0, v0, "horiz", 0)
        q = g._add_edge(v0, v0, "horiz", 1)
        g.dual[p.eid] = g.conj_e[p.eid] = q.eid
        g.dual[q.eid] = g.conj_e[q.eid] = p.eid
    elif chi == 0:
        p = g._add_edge(v0, v0, "horiz", 0)
        g.dual[p.eid] = g.conj_e[p.eid] = p.eid
    # descent bundles
    n1 = (ell - chi) // w2
    _check_consistent(n1 == level_counts[1], "surface descent bundles miss level 1")
    ups, bundles = [], []
    for t in range(n1):
        tv = Vertex(0, 1, t)
        up = g._add_edge(tv, v0, "up")
        downs = [g._add_edge(v0, tv, "down", k) for k in range(w2)]
        g.dual[up.eid] = downs[0].eid
        for e in downs:
            g.dual[e.eid] = up.eid
        ups.append(up.eid)
        bundles.append(downs)

    g.conj_v[v0] = v0
    conj = _mark_level(g, 1, [0], [Vertex(0, 1, t) for t in range(n1)])
    # a bundle maps onto its conjugate's bundle in parallel order; within a
    # real bundle conjugation swaps the two descents over Q(i), but for the
    # marked bundle, and fixes the first of the three over Q(sqrt(-3))
    for t, ct in enumerate(conj):
        g.conj_e[ups[t]] = ups[ct]
        if ct != t or (dK == -4 and t == 0):
            perm = range(w2)
        else:
            perm = (1, 0) if dK == -4 else (0, 2, 1)
        for e, k in zip(bundles[t], perm):
            g.conj_e[e.eid] = bundles[ct][k].eid
    return g._freeze()


def _build_surface_suborder(dK, ell, f0, level_counts) -> IsogenyGraph:
    """The depth-0 graph over a suborder: its surface forms, horizontal
    edges and their conjugation; :func:`_grow` adds level 1."""
    g = IsogenyGraph(dK, ell, f0, 0)
    g.level_counts = level_counts
    disc0 = f0 * f0 * dK
    chi = kronecker(disc0, ell)
    forms = reduced_forms(disc0)
    one = principal_form(disc0)
    order = [one]
    if chi != -1:
        pcls = prime_form(disc0, ell)
        if pcls != one and pcls in forms:
            order.append(pcls)
    order += sorted(f for f in forms if f not in order)
    _check_consistent(len(order) == g.level_counts[0], "surface forms miss the class number")
    g.surface_forms = order
    index_of = {f: i for i, f in enumerate(order)}

    conj0 = [index_of[inverse_form(f)] for f in order]
    _check_consistent(
        sum(1 for i, j in enumerate(conj0) if i == j) == _rtor(g, 0),
        "ambiguous forms miss #Pic[2]",
    )
    for i, j in enumerate(conj0):
        g.out[Vertex(0, 0, i)] = []
        g.conj_v[Vertex(0, 0, i)] = Vertex(0, 0, j)
    p_edge: dict[int, Edge] = {}
    pbar_edge: dict[int, Edge] = {}
    if chi != -1:
        pbar = inverse_form(pcls)
        for i, f in enumerate(order):
            tgt = index_of[compose(f, pcls, disc0)]
            p_edge[i] = g._add_edge(Vertex(0, 0, i), Vertex(0, 0, tgt), "horiz", 0)
            if chi == 1:
                tgt2 = index_of[compose(f, pbar, disc0)]
                pbar_edge[i] = g._add_edge(
                    Vertex(0, 0, i), Vertex(0, 0, tgt2), "horiz", 1
                )
        # an edge conjugates to the edge at its conjugate source, the other
        # parallel where ell splits
        for i in range(len(order)):
            ti = p_edge[i].dst.index
            if chi == 1:
                g.dual[p_edge[i].eid] = pbar_edge[ti].eid
                g.dual[pbar_edge[i].eid] = p_edge[pbar_edge[i].dst.index].eid
                g.conj_e[p_edge[i].eid] = pbar_edge[conj0[i]].eid
                g.conj_e[pbar_edge[i].eid] = p_edge[conj0[i]].eid
            else:
                g.dual[p_edge[i].eid] = p_edge[ti].eid
                g.conj_e[p_edge[i].eid] = p_edge[conj0[i]].eid
    return g._freeze()


def _grow(base: IsogenyGraph, level_counts) -> IsogenyGraph:
    """The graph one level deeper than ``base``.

    Every vertex of ``base``'s deepest level m - 1 gets c children, the
    block of level-m indices c*i ... c*i + c - 1 under vertex i, each with
    its down edge and then its up edge, so the down edge into child k has
    eid first + 2k and its up edge first + 2k + 1.  Below the surface c is
    ell; from a suborder's surface it is ell - chi, as 1 + chi of a surface
    vertex's ell + 1 edges are horizontal.  The levels above are copied
    from ``base``, sharing its vertices, edges and out tuples.
    """
    ell, m = base.ell, base.depth + 1
    c = ell if m > 1 else ell - kronecker(base.level_disc(0), ell)
    g = IsogenyGraph(base.delta_K, ell, base.f0, m)
    g.level_counts = level_counts
    g.surface_forms = base.surface_forms
    g.out, g.edges, g.dual, g.conj_v, g.conj_e = (
        dict(d) for d in (base.out, base.edges, base.dual, base.conj_v, base.conj_e)
    )
    out, edges, dual, conj_e = g.out, g.edges, g.dual, g.conj_e
    cnt = level_counts[m - 1]
    _check_consistent(level_counts[m] == c * cnt, f"level {m} is not {c} times level {m - 1}")
    parents = [Vertex(0, m - 1, i) for i in range(cnt)]
    level = [Vertex(0, m, k) for k in range(c * cnt)]
    first = len(edges)
    for i, src in enumerate(parents):
        downs = []
        for k in range(c * i, c * i + c):
            eid, tv = first + 2 * k, level[k]
            down = Edge(eid, src, tv, "down", 0)
            up = Edge(eid + 1, tv, src, "up", 0)
            edges[eid] = down
            edges[eid + 1] = up
            downs.append(down)
            out[tv] = (up,)
            dual[eid] = eid + 1
            dual[eid + 1] = eid
        out[src] += tuple(downs)

    conj_prev = [g.conj_v[v].index for v in parents]
    conj = _mark_level(g, m, conj_prev, level)
    # the down edge into child k conjugates to the down edge into conj(k),
    # which starts at the conjugate of k's parent only if conjugation
    # commutes with the up map
    _check_consistent(
        all(ck // c == conj_prev[k // c] for k, ck in enumerate(conj)),
        f"level {m}: conjugation does not commute with the up map",
    )
    for k, ck in enumerate(conj):
        conj_e[first + 2 * k] = first + 2 * ck
        conj_e[first + 2 * k + 1] = first + 2 * ck + 1
    return g._freeze()


def _rtor(g: IsogenyGraph, m: int) -> int:
    return two_torsion_count(g.level_disc(m))


def _mark_level(g: IsogenyGraph, m: int, conj_prev: list[int], level: list) -> list[int]:
    """Conjugate the vertices of level ``m`` (``level``, in index order) into
    ``g.conj_v`` and return each one's conjugate index.

    ``conj_prev[p]`` is the conjugate of vertex p of level m - 1, and the
    children of p are the contiguous block p*c ... p*c + c - 1.
    """
    n = len(level)
    c = n // len(conj_prev)
    real_prev = [p for p, q in enumerate(conj_prev) if p == q]
    reals = _distribute_reals(g, m, real_prev, c, _rtor(g, m))
    realset = set(reals)
    # pair complex vertices: children of conjugate parents map blockwise,
    # leftovers inside a real parent's block pair consecutively
    conj = list(range(n))
    for p in real_prev:
        block = [x for x in range(p * c, p * c + c) if x not in realset]
        for x, y in zip(block[0::2], block[1::2]):
            conj[x] = y
            conj[y] = x
        _check_consistent(len(block) % 2 == 0, "odd block of complex vertices")
    for p, q in enumerate(conj_prev):
        if q != p:
            conj[p * c:p * c + c] = range(q * c, q * c + c)
    for v, j in zip(level, conj):
        g.conj_v[v] = level[j]
    return conj


def _distribute_reals(g, m, real_parents, c, r_here):
    """Pick the real vertices at level ``m`` under the marked-first rules;
    the ``c`` children of parent p are p*c ... p*c + c - 1."""
    if m == 1 and g.f0 == 1:
        return list(range(r_here))
    surface_junction = m == 1
    ordered = _priority(g, m - 1, real_parents)
    if c % 2 == 1:
        _check_consistent(r_here == len(ordered), f"level {m}: real children miss parents")
        return sorted(p * c for p in ordered)
    _check_consistent(r_here % 2 == 0, f"level {m}: odd count of real vertices")
    fertile_needed = r_here // 2
    if surface_junction or 2 * len(ordered) == r_here:
        fertile = ordered[:fertile_needed]
    else:
        # pair rule: one fertile parent per sibling pair
        c_up = g.level_counts[m - 1] // g.level_counts[m - 2]
        groups: dict[int, list[int]] = {}
        for p in ordered:
            groups.setdefault(p // c_up, []).append(p)
        fertile = []
        for gp in groups.values():
            _check_consistent(len(gp) == 2, "real parents are not sibling pairs")
            fertile.append(min(gp))
        _check_consistent(len(fertile) == fertile_needed, f"level {m}: wrong fertile count")
    reals: list[int] = []
    for p in fertile:
        reals.extend((p * c, p * c + 1))
    return sorted(reals)


def _priority(g, level, reals):
    """Real vertices of a level in fertility priority: the marked vertex,
    then (on a suborder surface) the prime-translate of it, then index order."""
    out = sorted(reals)
    if 0 in out:
        out.remove(0)
        out.insert(0, 0)
    if level == 0 and g.f0 > 1 and len(g.surface_forms) > 1:
        if 1 in out and out[0] == 0:
            out.remove(1)
            out.insert(1, 1)
    return out


@lru_cache(maxsize=4)
def double_cover(delta_K, ell, f0, depth) -> IsogenyGraph:
    """Unwrap the surface loop of the (-4, 2, 1) / (-3, 3, 1) graphs.

    Edge i of the base graph in its out order, its loop left out, becomes
    eid i in copy 0 and n + i in copy 1; duals and conjugates map through
    the same positions.  The two lifts of the loop join the copies.
    """
    if (delta_K, ell, f0) not in COVER_PARAMS:
        raise ValidationError(f"no double cover for ({delta_K}, {ell}, {f0})")
    _checked_level_counts(delta_K, ell, f0, depth, copies=2)
    base = build_graph(delta_K, ell, f0, depth)
    order = [e for es in base.out.values() for e in es if e.kind != "horiz"]
    pos = {e.eid: i for i, e in enumerate(order)}
    n = len(order)
    g = IsogenyGraph(delta_K, ell, f0, depth, doubled=True)
    g.level_counts = base.level_counts
    for copy in (0, 1):
        lift = {v: Vertex(copy, v.level, v.index) for v in base.out}
        for v in base.out:
            g.out[lift[v]] = []
            g.conj_v[lift[v]] = lift[base.conj_v[v]]
        for i, e in enumerate(order, copy * n):
            ne = Edge(i, lift[e.src], lift[e.dst], e.kind, e.parallel)
            g.edges[i] = ne
            g.out[ne.src].append(ne)
            g.dual[i] = copy * n + pos[base.dual[e.eid]]
            if copy and delta_K == -4 and e.kind == "down" and e.src.level == 0:
                # in the far copy the surface descents are complex: each
                # maps to the other edge of its bundle
                g.conj_e[i] = i + 1 - 2 * e.parallel
            else:
                g.conj_e[i] = copy * n + pos[base.conj_e[e.eid]]
    cross01 = g._add_edge(Vertex(0, 0, 0), Vertex(1, 0, 0), "horiz", 0)
    cross10 = g._add_edge(Vertex(1, 0, 0), Vertex(0, 0, 0), "horiz", 0)
    g.dual[cross01.eid], g.dual[cross10.eid] = cross10.eid, cross01.eid
    g.conj_e[cross01.eid], g.conj_e[cross10.eid] = cross01.eid, cross10.eid
    return g._freeze()


def conjugation_graph(delta_K, ell, f0, depth) -> IsogenyGraph:
    """Graph on which real/complex path counting is meaningful."""
    if (delta_K, ell, f0) == (-4, 2, 1):
        return double_cover(delta_K, ell, f0, depth)
    return build_graph(delta_K, ell, f0, depth)


VERTEX_LIMIT = 100_000  # vertices one build_graph may materialize


def enumerate_paths(graph: IsogenyGraph, start_level: int, a: int) -> list[GraphPath]:
    """All nonbacktracking length-``a`` paths from the marked vertex.

    They need no limit of their own. Every vertex has ell + 1 out-edges, so
    a path has at most (ell + 1) ell^(a-1) choices. The deepest level lies
    at least a levels down and holds at least a quarter of that, so a graph
    within ``VERTEX_LIMIT`` gives at most 4 * 10^5 paths."""
    _check_int(start_level, a)
    if start_level < 0 or a < 0:
        raise ValidationError("need start_level >= 0 and a >= 0")
    if start_level + a > graph.depth:
        raise ValidationError("graph too shallow for this enumeration")
    if a == 0:
        return [GraphPath(start_level, ())]
    out: list[GraphPath] = []
    stack: list[Edge] = []
    edges_from, dual = graph.out, graph.dual

    def rec(v: Vertex, back: int | None, remaining: int):
        # ``back`` is the dual of the edge into v: the one step not allowed;
        # the last step of a path ends it here, without a call
        for e in edges_from[v]:
            if e.eid == back:
                continue
            stack.append(e)
            if remaining > 1:
                rec(e.dst, dual[e.eid], remaining - 1)
            else:
                out.append(GraphPath(start_level, tuple(stack)))
            stack.pop()

    rec(graph.marked(start_level), None, a)
    return out


def geometric_points(graph: IsogenyGraph, paths) -> list[GeometricPoint]:
    """Group paths into geometric points (orbits under the starting curve's
    extra automorphisms) and mark conjugation-stable orbits as real."""

    def key(p: GraphPath):
        parts = []
        for e in p.edges:
            if (
                p.start_level == 0
                and graph.f0 == 1
                and e.kind == "down"
                and e.src.level == 0
            ):
                parts.append(("bundle", e.src, e.dst))
            else:
                parts.append(e.eid)
        return tuple(parts)

    buckets: dict[tuple, list[GraphPath]] = {}
    for p in paths:
        buckets.setdefault(key(p), []).append(p)
    points = []
    for k, orbit in buckets.items():
        real = key(graph.conjugate_path(orbit[0])) == k
        points.append(GeometricPoint(tuple(orbit), len(orbit), real))
    return points


def to_dot(graph: IsogenyGraph) -> str:
    """DOT rendering with conjugation-fixed vertices and edges in orange."""
    lines = ["digraph isogeny {", "  rankdir=TB;"]
    for v in graph.out:
        color = "orange" if graph.vertex_real(v) else "black"
        name = f"v{v.copy}_{v.level}_{v.index}"
        tag = f"{v.level}.{v.index}" + ("'" if v.copy else "")
        lines.append(f'  {name} [label="{tag}", color={color}];')
    for e in graph.edges.values():
        color = "orange" if graph.edge_real(e) else "black"
        style = {"up": "dashed", "down": "solid", "horiz": "bold"}[e.kind]
        a = f"v{e.src.copy}_{e.src.level}_{e.src.index}"
        b = f"v{e.dst.copy}_{e.dst.level}_{e.dst.index}"
        lines.append(f"  {a} -> {b} [color={color}, style={style}];")
    lines.append("}")
    return "\n".join(lines)
