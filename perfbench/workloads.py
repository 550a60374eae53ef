"""The four workloads: inputs made from the seed, the operations of one
round, and the checks of every answer against ``reference``.

A round is a fixed list of operations.  Every round of a run repeats the
same list in the same order, in a fresh interpreter, so rounds differ only
in machine noise.  The seed chooses the inputs (or, for ``fiber_sweep``,
only their order); the program sees nothing but the generated arguments.
"""

import json
import random
from math import isqrt

import reference as ref

WORKLOADS = ("fiber_sweep", "fiber_wide", "oracle_sweep", "cli_cold")

# fiber_sweep: every (dK, f, M | N) with f <= SWEEP_F and N <= SWEEP_N
SWEEP_F = 6
SWEEP_N = 96

# fiber_wide: the per-prime shapes of the levels; one query per template
# per repetition, the seed picks the primes, dK and M
WIDE_TEMPLATES = (
    (("s", 5), ("s", 4), ("s", 3), ("i", 2), ("r", 3)),
    (("s", 5), ("s", 5), ("s", 2), ("i", 1), ("i", 1), ("r", 2)),
    (("s", 4), ("s", 3), ("s", 3), ("s", 2), ("r", 1)),
    (("s", 5), ("s", 4), ("iL", 3), ("r", 2)),
    (("s", 3), ("s", 3), ("s", 3), ("s", 3), ("i", 2)),
    (("s", 4), ("s", 4), ("s", 2), ("iL", 2), ("r", 4), ("i", 1)),
)
WIDE_REPS = 8
WIDE_POOLS = {
    -4: {"s": (5, 13, 17, 29, 37), "i": (3, 7, 11, 19, 23), "r": (2,)},
    -3: {"s": (7, 13, 19, 31, 37), "i": (2, 5, 11, 17, 23), "r": (3,)},
}
FACTOR_LIMIT = 10**24  # the library's factorization guard

# oracle_sweep: census discriminants f^2 dK with |delta| in a narrow band,
# and every small tower (dK, l, f0, L, a): graphs of depth L + a <= 4 for
# l in {2, 3} and <= 3 for l in {5, 7}.  The two parts take about the
# same time.
CENSUS_BAND = (390_000, 420_000)  # 26 discriminants
TOWERS = tuple(
    (dk, ell, f0, L, a)
    for dk in (-3, -4)
    for ell in (2, 3, 5, 7)
    for f0 in (1, 2, 3)
    if f0 % ell
    for L in (0, 1)
    for a in range(1, (5 if ell < 5 else 4) - L)
)

# cli_cold: commands per round
CLI_QUERIES = 7  # each run as fiber, primitive and x1
CLI_CLASSGROUP = 7
CLI_CHECKS = 12
CLI_BAND = (40_000, 44_000)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}/{workload}")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _band_discs(band) -> list[int]:
    lo, hi = band
    out = []
    for dk in (-3, -4):
        f = 1
        while f * f * -dk <= hi:
            if f * f * -dk >= lo:
                out.append(f * f * dk)
            f += 1
    return out


# -- inputs ---------------------------------------------------------------


def fiber_sweep_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    grid = [
        (dk, f, M, N)
        for dk in (-3, -4)
        for f in range(1, SWEEP_F + 1)
        for N in range(1, SWEEP_N + 1)
        for M in _divisors(N)
    ]
    _rng(seed, "fiber_sweep").shuffle(grid)
    return grid


def fiber_wide_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    rng = _rng(seed, "fiber_wide")
    out = []
    for _ in range(WIDE_REPS):
        for template in WIDE_TEMPLATES:
            while True:
                dk = rng.choice((-3, -4))
                pools = WIDE_POOLS[dk]
                kinds = {"s": 0, "i": 0, "r": 0}
                for kind, _a in template:
                    kinds[kind[0]] += 1
                picked = {k: rng.sample(pools[k], n) for k, n in kinds.items()}
                N, f, M = 1, 1, 1
                for kind, a in template:
                    ell = picked[kind[0]].pop()
                    N *= ell**a
                    if kind == "iL":
                        f *= ell
                    if rng.random() < 0.5:
                        M *= ell ** rng.randint(1, min(a, 2))
                if N <= FACTOR_LIMIT:
                    break
            out.append((dk, f, M, N))
    rng.shuffle(out)
    return out


def oracle_sweep_inputs(seed: int) -> list[tuple]:
    # The towers keep one order: build_graph's cache makes a tower's cost
    # depend on which earlier tower built its graph.  The seed orders the
    # census discriminants and places them among the towers.
    rng = _rng(seed, "oracle_sweep")
    census = _band_discs(CENSUS_BAND)
    rng.shuffle(census)
    ops = [("tower",) + t for t in TOWERS]
    for d in census:
        ops.insert(rng.randint(0, len(ops)), ("census", d))
    return ops


def cli_cold_inputs(seed: int) -> list[list[str]]:
    rng = _rng(seed, "cli_cold")
    cmds = []
    for _ in range(CLI_QUERIES):
        N = rng.randint(2, 200)
        M = rng.choice(_divisors(N))
        dk = rng.choice((-3, -4))
        f = rng.randint(1, 12)
        args = ["--dk", str(dk), "--f", str(f), "--M", str(M), "--N", str(N),
                "--format", "json"]
        cmds += [["fiber"] + args, ["primitive"] + args, ["x1"] + args]
    for d in rng.sample(_band_discs(CLI_BAND), CLI_CLASSGROUP):
        cmds.append(["classgroup", "--disc", str(d), "--format", "json"])
    cmds += [["check", "--sweep"]] * CLI_CHECKS
    rng.shuffle(cmds)
    return cmds


INPUTS = {
    "fiber_sweep": fiber_sweep_inputs,
    "fiber_wide": fiber_wide_inputs,
    "oracle_sweep": oracle_sweep_inputs,
    "cli_cold": cli_cold_inputs,
}


# -- operations (in-process workloads) --------------------------------------
#
# Functions are looked up on their modules at call time, so that a traced
# round sees the wrapped names.


def make_ops(workload: str, inputs):
    """Callables of one round, each returning what its check needs."""
    import cmlocus.arith as A
    import cmlocus.forms as FO
    import cmlocus.graph as G
    import cmlocus.locus as L
    import cmlocus.pathstats as P
    import cmlocus.tables as T

    def sweep_op(dk, f, M, N):
        order = A.OrderDisc.from_parts(dk, f)
        return (L.fiber_X0MN(order, M, N), L.primitive_X0MN(order, M, N),
                L.x1_fiber(order, M, N))

    def wide_op(dk, f, M, N):
        return L.fiber_X0MN(A.OrderDisc.from_parts(dk, f), M, N)

    def census_op(delta):
        return FO.class_number(delta), FO.two_torsion_count(delta)

    def tower_op(dk, ell, f0, L_, a):
        order = A.OrderDisc.from_parts(dk, ell**L_ * f0)
        table = {}
        rational = {}
        field_m = {}
        for c in T.path_classes(order, ell, a):
            w = T.class_e(order, c) * T.class_d(order, c) * c.count
            table[c.bhd] = table.get(c.bhd, 0) + w
            if not c.field.contains_K:
                rational[c.bhd] = rational.get(c.bhd, 0) + c.count
            field_m[c.bhd] = c.field.m
        walker = P.type_counts(dk, ell, f0, L_, a)
        g = G.conjugation_graph(dk, ell, f0, L_ + a)
        paths = G.enumerate_paths(g, L_, a)
        graph = {}
        for p in paths:
            t = p.bhd
            tot, real = graph.get(t, (0, 0))
            graph[t] = (tot + 1, real + (1 if g.path_real(p) else 0))
        orbits = points = None
        if f0 == 1 and L_ == 0:
            orbits = P.orbit_counts(dk, ell, a)
            points = {}
            for pt in G.geometric_points(g, paths):
                tot, real = points.get(pt.bhd, (0, 0))
                points[pt.bhd] = (tot + 1, real + (1 if pt.real else 0))
        return table, rational, field_m, walker, graph, orbits, points

    if workload == "fiber_sweep":
        return [lambda q=q: sweep_op(*q) for q in inputs]
    if workload == "fiber_wide":
        return [lambda q=q: wide_op(*q) for q in inputs]
    if workload == "oracle_sweep":
        return [
            (lambda q=q: census_op(q[1])) if q[0] == "census"
            else (lambda q=q: tower_op(*q[1:]))
            for q in inputs
        ]
    raise ValueError(f"{workload} does not run in-process")


# -- checks -------------------------------------------------------------------


def _classes(report):
    return [
        (c.field.base, c.field.m, c.field.delta_K, c.d, c.e, c.count)
        for c in report.classes
    ]


def check_fiber(dk, f, M, N, classes, check_total=None) -> list[str]:
    """Fiber identities: every class's d from the class-number formula,
    e in {1, w_K/2}, and sum e*d*count = psi(N) * M * phi(M)."""
    bad = []
    h = ref.class_number(dk, f)
    total = 0
    for base, m, cdk, d, e, count in classes:
        deg = ref.field_degree(base, m, dk)
        if cdk != dk or deg % h or d != deg // h:
            bad.append(f"class {base}({m}) has d={d}, formula gives {deg}/{h}")
        if e not in (1, ref.UNITS[dk] // 2) or count < 1:
            bad.append(f"class {base}({m}) has e={e}, count={count}")
        total += e * d * count
    want = ref.psi(N) * M * ref.phi(M)
    if total != want:
        bad.append(f"sum e*d*count = {total} != psi(N) M phi(M) = {want}")
    if check_total is not None and check_total != total:
        bad.append(f"checkTotal {check_total} != {total}")
    return [f"fiber dK={dk} f={f} M={M} N={N}: {b}" for b in bad]


def check_primitive(dk, f, M, N, fields, degrees, classes) -> list[str]:
    """Primitive degrees are degrees of the primitive fields, and the least
    one is the least residue-field degree of the fiber."""
    have = {ref.field_degree(base, m, dk) for base, m in fields}
    least = min(ref.field_degree(c[0], c[1], dk) for c in classes)
    bad = []
    if not degrees or not set(degrees) <= have:
        bad.append(f"degrees {degrees} not among field degrees {sorted(have)}")
    elif min(degrees) != least:
        bad.append(f"least primitive degree {min(degrees)} != fiber minimum {least}")
    return [f"primitive dK={dk} f={f} M={M} N={N}: {b}" for b in bad]


def check_x1(dk, f, M, N, got) -> list[str]:
    want = ref.x1_over_x0(N)
    if tuple(got) != want:
        return [f"x1 dK={dk} f={f} M={M} N={N}: {tuple(got)} != {want}"]
    return []


def check_census(delta, h, r2) -> list[str]:
    dk, f = _split(delta)
    bad = []
    if h != ref.class_number(dk, f):
        bad.append(f"class_number({delta}) = {h} != {ref.class_number(dk, f)}")
    if r2 != ref.two_torsion(delta):
        bad.append(f"two_torsion_count({delta}) = {r2} != {ref.two_torsion(delta)}")
    return bad


def _split(delta: int) -> tuple[int, int]:
    """(dK, f) with delta = f^2 dK, dK in {-3, -4} (unique when it exists)."""
    for dk in (-3, -4):
        if delta % dk == 0:
            f = isqrt(delta // dk)
            if f * f * dk == delta:
                return dk, f
    raise ValueError(f"{delta} is not f^2 dK with dK in {{-3, -4}}")


def check_tower(tower, got) -> list[str]:
    """Tables, walker and materialized graph agree per (b, h, d) type; the
    walker and the graph each give psi(l^a) paths; real geometric points
    per type are rational classes times genus-theory 2-torsion."""
    dk, ell, f0, L, a = tower
    table, rational, field_m, walker, graph, orbits, points = got
    bad = []
    want = ref.psi(ell**a)
    if sum(v[0] for v in walker.values()) != want:
        bad.append("walker path total != psi(l^a)")
    if sum(v[0] for v in graph.values()) != want:
        bad.append("graph path total != psi(l^a)")
    if {t: v[0] for t, v in walker.items()} != table:
        bad.append("walker and tables disagree per type")
    if graph != dict(walker):
        bad.append("graph and walker disagree per type (paths or real paths)")
    if orbits is not None:
        if points != dict(orbits):
            bad.append("geometric points and orbit_counts disagree")
        for t, (_tot, real) in orbits.items():
            q = rational.get(t, 0)
            w = q * ref.two_torsion(field_m[t] ** 2 * dk) if q else 0
            if real != w:
                bad.append(f"real orbits of type {t}: {real} != {w}")
    return [f"tower {tower}: {b}" for b in bad]


def check_round(workload: str, inputs, results) -> list[str]:
    """Check every answer of an in-process round; ``results`` holds None
    where the operation raised."""
    bad = []
    for q, got in zip(inputs, results):
        if got is None:
            continue
        if workload == "fiber_sweep":
            rep, (fields, degrees), x1 = got
            classes = _classes(rep)
            bad += check_fiber(*q, classes, rep.check_total)
            bad += check_primitive(*q, [(s.base, s.m) for s in fields], degrees, classes)
            bad += check_x1(*q, x1)
        elif workload == "fiber_wide":
            bad += check_fiber(*q, _classes(got), got.check_total)
        elif q[0] == "census":
            bad += check_census(q[1], *got)
        else:
            bad += check_tower(q[1:], got)
    return bad


def check_cli(cmd: list[str], rc: int, out: str, fibers: dict) -> list[str]:
    """Check one CLI answer.  ``fibers`` maps a query to its fiber classes
    so that a primitive answer can be held against the fiber minimum; the
    fiber command of each query must therefore be checked first."""
    name = " ".join(cmd)
    if rc != 0:
        return [f"{name}: exit {rc}"]
    if cmd[0] == "check":
        lines = out.splitlines()
        if len(lines) != 3 or not all(x.endswith(": ok") for x in lines):
            return [f"{name}: unexpected output {out!r}"]
        return []
    try:
        payload = json.loads(out)
    except ValueError:
        return [f"{name}: stdout is not JSON"]
    if json.dumps(payload, indent=2) + "\n" != out:
        return [f"{name}: JSON does not re-serialise byte for byte"]
    if cmd[0] == "classgroup":
        delta = int(cmd[2])
        bad = check_census(delta, payload["classNumber"], payload["twoTorsion"])
        forms = [tuple(x) for x in payload["forms"]]
        if len(set(forms)) != payload["classNumber"] or not all(
            ref.is_reduced_form(*x, delta) for x in forms
        ):
            bad.append("forms are not the h distinct reduced forms")
        return [f"{name}: {b}" for b in bad]
    opts = dict(zip(cmd[1::2], cmd[2::2]))
    dk, f, M, N = (int(opts[k]) for k in ("--dk", "--f", "--M", "--N"))
    if payload["order"] != {"deltaK": dk, "f": f} or payload["curve"] != {"M": M, "N": N}:
        return [f"{name}: echoed order or curve differs"]
    if cmd[0] == "fiber":
        classes = []
        bad = []
        for c in payload["classes"]:
            fld = c["field"]
            classes.append((fld["base"], fld["m"], dk, c["d"], c["e"], c["count"]))
            cm = fld["canonicalM"]
            if fld["m"] % cm or ref.field_degree(fld["base"], cm, dk) != ref.field_degree(
                fld["base"], fld["m"], dk
            ):
                bad.append(f"canonicalM {cm} of {fld['base']}({fld['m']}) changes the degree")
        bad += check_fiber(dk, f, M, N, classes, payload["checkTotal"])
        if payload["psiCheck"] is not True:
            bad.append("psiCheck is not true")
        fibers[(dk, f, M, N)] = classes
        return bad
    if cmd[0] == "primitive":
        fields = [(x["base"], x["m"]) for x in payload["primitiveFields"]]
        return check_primitive(dk, f, M, N, fields, payload["primitiveDegrees"],
                               fibers[(dk, f, M, N)])
    got = (payload["e"], payload["f"], payload["points"])
    bad = check_x1(dk, f, M, N, got)
    if payload["kind"] != "non-elliptic":
        bad.append(f"{name}: kind {payload['kind']}")
    return bad
