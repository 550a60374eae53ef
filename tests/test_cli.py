import importlib
import io
import json
import os
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cmlocus
from cmlocus import pathstats, tables
from cmlocus.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fiber_json_example(capsys):
    code, out, _ = run(
        capsys, "fiber", "--dk", "-4", "--f", "1", "--M", "1", "--N", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["curve"] == {"M": 1, "N": 2}
    assert payload["psiCheck"] is True
    fields = [(c["field"]["base"], c["field"]["m"], c["d"], c["e"], c["count"])
              for c in payload["classes"]]
    assert fields == [("Q", 1, 1, 1, 1), ("Q", 2, 1, 2, 1)]


def test_json_roundtrip_byte_identical(capsys):
    code, out, _ = run(
        capsys, "fiber", "--dk", "-3", "--f", "2", "--M", "2", "--N", "12",
        "--format", "json",
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("fiber", "primitive", "x1")),
    st.sampled_from((-3, -4)),
    st.integers(1, 50),
    st.integers(1, 5000),
    st.integers(0, 10**6),
)
def test_json_output_reserializes_byte_for_byte(command, dk, f, N, pick):
    divisors = [m for m in range(1, N + 1) if N % m == 0]
    M = divisors[pick % len(divisors)]
    argv = [command, "--dk", str(dk), "--f", str(f), "--M", str(M), "--N", str(N)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    out = buf.getvalue()
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_consistency_checks_survive_python_O():
    # with w_K patched to 7, the degree d(f) = 2f prod(1 - chi(l)/l) / w_K
    # of a conductor-5 field is no integer; python -O must not skip that check
    script = (
        "import sys, cmlocus.cli, cmlocus.fields\n"
        "cmlocus.fields.unit_count = lambda dk: 7\n"
        "sys.exit(cmlocus.cli.main(['fiber', '--dk', '-4', '--f', '5', '--N', '2']))\n"
    )
    src = str(Path(cmlocus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert r.returncode == 3, r.stdout + r.stderr
    assert r.stderr.startswith("internal consistency failure: d(")
    assert "/7 is not an integer" in r.stderr


def test_table_and_json_agree(capsys):
    _, json_out, _ = run(
        capsys, "fiber", "--dk", "-4", "--f", "1", "--N", "10", "--format", "json"
    )
    _, csv_out, _ = run(
        capsys, "fiber", "--dk", "-4", "--f", "1", "--N", "10", "--format", "csv"
    )
    payload = json.loads(json_out)
    json_rows = sorted(
        (c["field"]["base"], c["field"]["m"], c["d"], c["e"], c["count"])
        for c in payload["classes"]
    )
    csv_rows = []
    for line in csv_out.strip().splitlines()[1:]:
        base, m, _deg, d, e, count = line.split(",")
        csv_rows.append((base, int(m), int(d), int(e), int(count)))
    assert sorted(csv_rows) == json_rows


def test_x1_cli(capsys):
    code, out, _ = run(
        capsys, "x1", "--dk", "-3", "--f", "1", "--N", "7", "--elliptic",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 3 and payload["f"] == 1 and payload["points"] == 1


def test_x1_cli_at_elliptic_points_of_small_level(capsys):
    # Z/3 over Q at j = 0 and Z/2 over Q at j = 1728
    assert run(capsys, "x1", "--dk", "-3", "--N", "3", "--elliptic") == (
        0, "X1(1,3) over the point: e=1 f=1 points=1\n", ""
    )
    code, out, _ = run(capsys, "x1", "--dk", "-4", "--N", "2", "--elliptic", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "curve": {"M": 1, "N": 2}, "order": {"deltaK": -4, "f": 1},
        "kind": "elliptic", "e": 1, "f": 1, "points": 1,
    }
    code, _, err = run(capsys, "x1", "--disc", "-7", "--N", "2", "--elliptic")
    assert code == 2
    assert err == "validation error: X0(1,2) has no elliptic point over discriminant -7\n"


def test_classgroup_cli(capsys):
    code, out, _ = run(capsys, "classgroup", "--disc", "-84", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classNumber"] == 4 and payload["twoTorsion"] == 4
    code, out, _ = run(capsys, "classgroup", "--disc", "-56", "--format", "json")
    assert code == 0
    assert out == CLASSGROUP_56


CLASSGROUP_56 = """{
  "disc": -56,
  "classNumber": 4,
  "twoTorsion": 2,
  "forms": [
    [
      1,
      0,
      14
    ],
    [
      2,
      0,
      7
    ],
    [
      3,
      -2,
      5
    ],
    [
      3,
      2,
      5
    ]
  ]
}
"""


def test_rcf_cli(capsys):
    code, out, _ = run(
        capsys, "rcf", "compose", "--dk", "-3", "--conductors", "2,3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"]["m"] == 6 and payload["index"] == 3
    # JSON is the default format, byte for byte
    want = json.dumps({
        "closure": {"base": "K", "m": 6, "canonicalM": 6}, "index": 3, "degree": 2,
    }, indent=2) + "\n"
    for fmt in ((), ("--format", "json")):
        argv = ("rcf", "compose", "--dk", "-3", "--conductors", "2,3", *fmt)
        assert run(capsys, *argv) == (0, want, "")
    code, out, _ = run(
        capsys, "rcf", "tensor", "--dk", "-3", "--left", "K:6", "--right", "K:10"
    )
    payload = json.loads(out)
    assert len(payload["factors"]) == 2
    assert all(f["closure"]["m"] == 30 for f in payload["factors"])
    code, _, err = run(capsys, "rcf", "compose", "--dk", "-3")
    assert code == 1 and "usage" in err
    for side in (("--left", "K:6"), ("--right", "K:10")):
        code, _, err = run(capsys, "rcf", "tensor", "--dk", "-3", *side)
        assert code == 1 and "usage" in err


# conductors whose order has class number one print as their collapse to 1
COLLAPSED = {
    ("fiber", "--dk", "-3", "--N", "6"): """\
fiber of X0(1,6) over J_-3
  Q(2) [= Q(1)]      d=1     e=3 count=1
  Q(6)               d=3     e=3 count=1
  total e*d*count = 12 (expected 12)
""",
    ("primitive", "--dk", "-4", "--M", "2", "--N", "4", "--format", "json"): json.dumps({
        "curve": {"M": 2, "N": 4},
        "order": {"deltaK": -4, "f": 1},
        "primitiveFields": [
            {"base": "Q", "m": 4, "canonicalM": 4},
            {"base": "K", "m": 2, "canonicalM": 1},
        ],
        "primitiveDegrees": [2],
    }, indent=2) + "\n",
    # K(2) is K(1) over Q(i), so the tensor absorbs it and keeps Q(5)'s conductor
    ("rcf", "tensor", "--dk", "-4", "--left", "K:2", "--right", "Q:5"): json.dumps({
        "factors": [
            {"closure": {"base": "K", "m": 5, "canonicalM": 5}, "index": 1, "degree": 4},
        ],
    }, indent=2) + "\n",
}


@pytest.mark.parametrize("argv", sorted(COLLAPSED), ids=lambda argv: argv[0])
def test_collapsed_conductors_are_pinned(capsys, argv):
    assert run(capsys, *argv) == (0, COLLAPSED[argv], "")


# the primitive casework at deep levels: 2 inert under L = 3, the X0(2, 2^a)
# rule of delta_K = -3 at a = 2L, and an odd prime with a' >= 1 and L = 2
DEEP_PRIMITIVE = {
    ("primitive", "--dk", "-3", "--f", "8", "--N", "64"): """\
primitive residue fields on X0(1,64): Q(32), K(8)
primitive degrees: 8
""",
    ("primitive", "--dk", "-3", "--f", "4", "--M", "2", "--N", "16"): """\
primitive residue fields on X0(2,16): Q(16), K(8)
primitive degrees: 8
""",
    ("primitive", "--dk", "-3", "--f", "9", "--M", "3", "--N", "243", "--format", "json"):
        json.dumps({
            "curve": {"M": 3, "N": 243},
            "order": {"deltaK": -3, "f": 9},
            "primitiveFields": [{"base": "K", "m": 27, "canonicalM": 27}],
            "primitiveDegrees": [18],
        }, indent=2) + "\n",
}


@pytest.mark.parametrize("argv", sorted(DEEP_PRIMITIVE), ids=" ".join)
def test_deep_primitive_casework_is_pinned(capsys, argv):
    assert run(capsys, *argv) == (0, DEEP_PRIMITIVE[argv], "")


def _fiber_class(base, m, d, e, count):
    return {"field": {"base": base, "m": m, "canonicalM": m}, "d": d, "e": e, "count": count}


def test_deep_two_adic_lift_is_pinned(capsys):
    # X0(2, 8) over delta = -64: the V1 class (1, 0, 2) lifts to one K(8)
    # point, not two Q(8) points, as the Galois orbits of the pairs show
    argv = ("fiber", "--dk", "-4", "--f", "4", "--M", "2", "--N", "8", "--format", "json")
    want = json.dumps({
        "curve": {"M": 2, "N": 8},
        "order": {"deltaK": -4, "f": 4},
        "classes": [
            _fiber_class("K", 8, 4, 1, 1),
            _fiber_class("Q", 8, 2, 1, 1),
            _fiber_class("Q", 8, 2, 1, 1),
            _fiber_class("Q", 32, 8, 1, 2),
        ],
        "checkTotal": 24,
        "psiCheck": True,
    }, indent=2) + "\n"
    assert run(capsys, *argv) == (0, want, "")


def test_graph_cli_and_dot(capsys):
    code, out, _ = run(capsys, "graph", "--dk", "-4", "--l", "2", "--depth", "2")
    assert code == 0 and "level 2: 2 vertices" in out
    code, out, _ = run(
        capsys, "graph", "--dk", "-4", "--l", "2", "--depth", "2", "--dot",
        "--double",
    )
    assert code == 0 and out.startswith("digraph")


def test_check_sweep(capsys):
    assert run(capsys, "check", "--sweep") == (
        0,
        "psi-sum sweep: ok\noracle equivalence sweep: ok\n"
        "real-orbit identity sweep: ok\n",
        "",
    )


def test_check_sweep_reports_a_walker_mismatch(capsys, monkeypatch):
    # every (dK, f0, l, L, a) of the oracle grid: 2 * 13 * 2 * 4 = 208
    monkeypatch.setattr(pathstats, "type_counts", lambda *args: {})
    assert run(capsys, "check", "--sweep") == (
        3,
        "psi-sum sweep: ok\noracle equivalence sweep: 208 failures\n"
        "real-orbit identity sweep: ok\n",
        "internal consistency failure: self-check sweep failed\n",
    )


def test_check_sweep_reports_a_real_orbit_mismatch(capsys, monkeypatch):
    real_counts = pathstats.orbit_counts

    def raised(*args):
        return {t: (tot, real + 1) for t, (tot, real) in real_counts(*args).items()}

    monkeypatch.setattr(pathstats, "orbit_counts", raised)
    assert run(capsys, "check", "--sweep") == (
        3,
        "psi-sum sweep: ok\noracle equivalence sweep: ok\n"
        "real-orbit identity sweep: 120 failures\n",
        "internal consistency failure: self-check sweep failed\n",
    )


def test_check_sweep_stops_at_a_table_that_misses_psi(capsys, monkeypatch):
    # path_classes checks each table's psi total as it builds it, so the
    # first table of the sweep raises before any line is printed
    monkeypatch.setattr(tables, "psi", lambda n: 0)
    tables.path_classes.cache_clear()
    try:
        code, out, err = run(capsys, "check", "--sweep")
    finally:
        tables.path_classes.cache_clear()
    assert (code, out) == (3, "")
    assert err.startswith(
        "internal consistency failure: table inconsistency at (dK=-3, f=1, l=2, a=1)"
    )


# table outputs of the level commands, classgroup and rcf
TABLES = {
    ("fiber", "--disc", "-16", "--N", "4"): """\
fiber of X0(1,4) over J_-16
  Q(2) [= Q(1)]      d=1     e=1 count=1
  Q(2) [= Q(1)]      d=1     e=1 count=1
  Q(8)               d=4     e=1 count=1
  total e*d*count = 6 (expected 6)
""",
    ("x1", "--disc", "-48", "--M", "2", "--N", "6"):
        "X1(2,6) over the point: e=1 f=1 points=1\n",
    ("x1", "--dk", "-3", "--N", "7", "--elliptic"):
        "X1(1,7) over the point: e=3 f=1 points=1\n",
    ("classgroup", "--disc", "-56"): """\
h(-56) = 4, #Pic[2] = 2
  (1, 0, 14)
  (2, 0, 7)
  (3, -2, 5)
  (3, 2, 5)
""",
    # one line per closure: field, index and degree
    ("rcf", "compose", "--dk", "-3", "--conductors", "2,3", "--format", "table"):
        "K(6) index=3 degree=2\n",
    ("rcf", "compose", "--dk", "-4", "--conductors", "2", "--format", "table"):
        "K(2) [= K(1)] index=1 degree=2\n",
    ("rcf", "tensor", "--dk", "-3", "--left", "K:6", "--right", "K:10", "--format", "table"):
        "K(30) index=1 degree=36\nK(30) index=1 degree=36\n",
}


@pytest.mark.parametrize("argv", sorted(TABLES), ids=" ".join)
def test_table_outputs_are_pinned(capsys, argv):
    assert run(capsys, *argv) == (0, TABLES[argv], "")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "fiber", "--bogus")
    assert code == 1 and "usage" in err
    code, _, err = run(capsys, "fiber", "--dk", "-4", "--N", "3", "--M", "2")
    assert code == 2 and "validation" in err
    code, _, err = run(capsys, "fiber", "--dk", "-5", "--N", "3")
    assert code == 2
    code, _, err = run(
        capsys, "fiber", "--disc", "-16", "--dk", "-4", "--N", "2"
    )
    assert code == 2  # both discriminant specifications given
    code, _, err = run(capsys, "graph", "--dk", "-4", "--l", "4")
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, "primitive", "--dk", "-7", "--N", "5")
    assert code == 2 and "validation" in err
    code, _, err = run(capsys, "graph", "--dk", "-4", "--l", "13", "--depth", "12")
    assert code == 2 and "exceeds the limit" in err
    for conductors in ("2,x", "2,,3"):
        code, _, err = run(capsys, "rcf", "compose", "--dk", "-3", "--conductors", conductors)
        assert code == 2 and "cannot parse conductors" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "cmlocus 0.1.0 (kernel: pure)\n"


def test_fiber_at_large_prime_level(capsys):
    code, out, _ = run(
        capsys, "fiber", "--dk", "-4", "--N", "100000000000000000039",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["psiCheck"] is True
    assert payload["checkTotal"] == 100000000000000000040


def test_fiber_past_the_guard_in_its_conductors(capsys):
    # N = 30030^5 passes the guard, and the fold composes conductors up to
    # 30030^6, which do not; the degrees come from the rows, not from them
    argv = ("fiber", "--dk", "-4", "--f", "30030", "--N", "24421743243121524300000")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 662 and payload["psiCheck"] is True
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 663


def test_fiber_past_the_guard_in_its_prime_table(capsys):
    # f = 2 * 23^3 and N = 23^15 pass the guard, and the 23-adic table's
    # conductors f 23^j reach f 23^15 ~ 6.5e24, which does not; as 23 | f,
    # each class's d is its 23-part m / f, doubled for K
    f = 2 * 23**3
    argv = ("fiber", "--dk", "-3", "--f", str(f), "--N", str(23**15), "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 5 and payload["psiCheck"] is True
    assert max(c["field"]["m"] for c in payload["classes"]) == f * 23**15
    for c in payload["classes"]:
        assert c["d"] == c["field"]["m"] // f * (2 if c["field"]["base"] == "K" else 1)


# -- lazy loading: the package and the CLI load each module on first use --

PUBLIC_NAMES = [
    "ClosedPointClass", "CompositumResult", "FiberReport", "FieldSymbol",
    "GraphPath", "IsogenyGraph", "K", "OrderDisc", "Q",
    "arith", "build_graph", "class_number", "compose_rcf", "conjugation_graph",
    "double_cover", "enumerate_paths", "euler_phi", "fiber_X0MN", "field_degree",
    "fields", "forms", "geometric_points", "graph", "in_S", "kronecker",
    "lift_residue_prime_power", "locus", "primitive_X0MN", "psi",
    "rcf_rel_degree", "reduced_forms", "split_discriminant", "tables",
    "tensor_rcf", "to_dot", "two_torsion_count", "x1_fiber",
]


def _fresh(code, *argv):
    # stdout of ``code`` run in a fresh interpreter on this source tree
    src = str(Path(cmlocus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout


def test_import_loads_no_submodule():
    code = (
        "import sys, cmlocus\n"
        "print(sorted(m for m in sys.modules if m.startswith('cmlocus.')))\n"
    )
    assert _fresh(code) == "[]\n"


def test_public_names_are_pinned_and_resolve_to_their_home():
    assert cmlocus.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(cmlocus, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"cmlocus.{name}")
        else:
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("cmlocus.") and getattr(home, name) is obj
    star = {}
    exec("from cmlocus import *", star)
    assert all(star[name] is getattr(cmlocus, name) for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(cmlocus))
    with pytest.raises(AttributeError):
        getattr(cmlocus, "no_such_name")


_LOCUS = ["fields", "locus", "tables"]


@pytest.mark.parametrize("argv, extra", [
    (["fiber", "--dk", "-4", "--N", "10"], _LOCUS),
    (["primitive", "--dk", "-4", "--N", "10"], _LOCUS),
    (["x1", "--dk", "-3", "--N", "7", "--elliptic"], _LOCUS),
    (["classgroup", "--disc", "-84"], ["forms"]),
    (["check", "--sweep"], ["fields", "forms", "pathstats", "tables"]),
    (["rcf", "compose", "--dk", "-3", "--conductors", "2,3"], ["fields"]),
    (["graph", "--dk", "-4", "--l", "2"], ["fields", "forms", "graph"]),
    (["--version"], []),
], ids=["fiber", "primitive", "x1", "classgroup", "check", "rcf", "graph", "version"])
def test_cli_command_loads_only_its_modules(argv, extra):
    # the cmlocus.* modules in sys.modules after one command
    code = (
        "import contextlib, io, sys\n"
        "import cmlocus.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        rc = cmlocus.cli.main(sys.argv[1:])\n"
        "    except SystemExit as exit_:\n"
        "        rc = exit_.code\n"
        "print(rc, sorted(m[8:] for m in sys.modules if m.startswith('cmlocus.')))\n"
    )
    loaded = sorted(["_kernel", "arith", "cli", *extra])
    assert _fresh(code, *argv) == f"0 {loaded}\n"
