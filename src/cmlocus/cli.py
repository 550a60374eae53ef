"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 internal
consistency failure.
"""

import argparse
import json
import sys

from . import __version__
from ._kernel import BACKEND
from .arith import OrderDisc, ValidationError, split_discriminant

# Each command imports the modules it runs when it runs, so a cold command
# compiles only those.


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _field_json(sym) -> dict:
    return {"base": sym.base, "m": sym.m, "canonicalM": sym.canonical_m()}


def _field_text(sym) -> str:
    canon = sym.canonical_m()
    extra = "" if canon == sym.m else f" [= {sym.base}({canon})]"
    return f"{sym.base}({sym.m}){extra}"


def _order_from_args(args) -> OrderDisc:
    if args.disc is not None:
        if args.dk is not None or args.f is not None:
            raise ValidationError("give either --disc or --dk/--f, not both")
        return split_discriminant(args.disc)
    if args.dk is None:
        raise ValidationError("a discriminant is required (--disc or --dk/--f)")
    return OrderDisc.from_parts(args.dk, args.f if args.f is not None else 1)


def _fiber(order, args):
    from .fields import rcf_rel_degree
    from .locus import fiber_X0MN

    report = fiber_X0MN(order, args.M, args.N)
    # [Q(f) : Q] for the csv degrees; read in every format, so all refuse the same f
    q_f = rcf_rel_degree(order.delta_K, order.f)
    body = {
        "classes": [
            {
                "field": _field_json(c.field),
                "d": c.d,
                "e": c.e,
                "count": c.count,
            }
            for c in report.classes
        ],
        "checkTotal": report.check_total,
        "psiCheck": report.psi_ok,
    }
    if args.format == "csv":
        lines = ["base,m,degree,d,e,count"] + [
            f"{c.field.base},{c.field.m},{c.d * q_f},{c.d},{c.e},{c.count}"
            for c in report.classes
        ]
    else:
        lines = [
            f"fiber of X0({args.M},{args.N}) over J_{order.delta}",
            *(f"  {_field_text(c.field):<18} d={c.d:<5} e={c.e} count={c.count}"
              for c in report.classes),
            f"  total e*d*count = {report.check_total} (expected {report.expected_total})",
        ]
    return body, lines


def _primitive(order, args):
    from .locus import primitive_X0MN

    fields, degrees = primitive_X0MN(order, args.M, args.N)
    body = {
        "primitiveFields": [_field_json(s) for s in fields],
        "primitiveDegrees": degrees,
    }
    names = ", ".join(_field_text(s) for s in fields)
    return body, [
        f"primitive residue fields on X0({args.M},{args.N}): {names}",
        f"primitive degrees: {', '.join(map(str, degrees))}",
    ]


def _x1(order, args):
    from .locus import x1_fiber

    kind = "elliptic" if args.elliptic else "non-elliptic"
    e, f_deg, count = x1_fiber(order, args.M, args.N, kind)
    body = {"kind": kind, "e": e, "f": f_deg, "points": count}
    return body, [f"X1({args.M},{args.N}) over the point: e={e} f={f_deg} points={count}"]


# name, help, answer, --format choices of the commands that take an order and
# a level M | N; the answer returns the command's JSON keys and its text lines
_LEVEL_COMMANDS = (
    ("fiber", "fiber of X0(M,N) over a CM point", _fiber, ("table", "json", "csv")),
    ("primitive", "primitive residue fields and degrees", _primitive, ("table", "json")),
    ("x1", "X1(M,N) -> X0(M,N) transfer data", _x1, ("table", "json")),
)


def _emit(args, payload, lines) -> int:
    print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))
    return 0


def _cmd_level(args) -> int:
    order = _order_from_args(args)
    body, lines = args.answer(order, args)
    payload = {
        "curve": {"M": args.M, "N": args.N},
        "order": {"deltaK": order.delta_K, "f": order.f},
        **body,
    }
    return _emit(args, payload, lines)


def _cmd_classgroup(args) -> int:
    from .forms import reduced_forms, two_torsion_count

    forms = reduced_forms(args.disc)
    h = len(forms)
    r2 = two_torsion_count(args.disc)
    payload = {
        "disc": args.disc,
        "classNumber": h,
        "twoTorsion": r2,
        "forms": [list(f) for f in forms],
    }
    lines = [f"h({args.disc}) = {h}, #Pic[2] = {r2}", *(f"  {f}" for f in forms)]
    return _emit(args, payload, lines)


def _parse_symbol(text: str, dk: int):
    from .fields import FieldSymbol

    t = text.strip().replace("(", ":").replace(")", "")
    base, _, m = t.partition(":")
    # isdecimal, not isdigit: int() refuses a digit such as a superscript
    if base not in ("Q", "K") or not m.isdecimal():
        raise ValidationError(f"cannot parse field symbol {text!r} (use K:6 or Q:10)")
    return FieldSymbol(base, int(m), dk)


def _cmd_rcf(args) -> int:
    from .fields import FieldSymbol, compose_rcf, tensor_rcf

    if args.op == "compose":
        if args.conductors is None:
            raise _UsageError("rcf compose needs --conductors")
        conductors = [m.strip() for m in args.conductors.split(",")]
        if not all(m.isdecimal() for m in conductors):
            raise ValidationError(
                f"cannot parse conductors {args.conductors!r} (use a comma list such as 2,3)"
            )
        parts = [compose_rcf([FieldSymbol("K", int(m), args.dk) for m in conductors])]
    else:
        if args.left is None or args.right is None:
            raise _UsageError("rcf tensor needs --left and --right")
        left = _parse_symbol(args.left, args.dk)
        right = _parse_symbol(args.right, args.dk)
        parts = tensor_rcf(left, right)
    rows = [
        {"closure": _field_json(p.closure), "index": p.index, "degree": p.degree()}
        for p in parts
    ]
    payload = rows[0] if args.op == "compose" else {"factors": rows}
    lines = [f"{_field_text(p.closure)} index={p.index} degree={p.degree()}" for p in parts]
    return _emit(args, payload, lines)


def _cmd_graph(args) -> int:
    from .graph import build_graph, double_cover, to_dot

    if args.double:
        g = double_cover(args.dk, args.l, args.f0, args.depth)
    else:
        g = build_graph(args.dk, args.l, args.f0, args.depth)
    if args.dot:
        print(to_dot(g))
        return 0
    print(f"graph (dK={args.dk}, l={args.l}, f0={args.f0}) to depth {args.depth}"
          f"{' [double cover]' if args.double else ''}")
    for m in range(args.depth + 1):
        print(
            f"  level {m}: {g.level_counts[m]} vertices,"
            f" {g.real_vertex_count(m)} fixed by conjugation"
        )
    return 0


def _cmd_check(args) -> int:
    from .pathstats import orbit_counts, type_counts
    from .tables import path_classes, real_points, type_weights

    if not args.sweep:
        raise ValidationError("nothing to check; pass --sweep")
    # path_classes checks each table's psi total as it builds it
    for dk in (-3, -4):
        for f in range(1, 7):
            order = OrderDisc.from_parts(dk, f)
            for ell in (2, 3, 5, 7, 13):
                for a in range(1, 6):
                    path_classes(order, ell, a)
    print("psi-sum sweep: ok")
    mism = 0
    for dk in (-3, -4):
        for f0 in (1, 2, 3):
            for ell in (2, 3, 5, 7, 13):
                if f0 % ell == 0:
                    continue
                for L in (0, 1):
                    for a in range(1, 5):
                        order = OrderDisc.from_parts(dk, ell**L * f0)
                        walker = {
                            t: v[0] for t, v in type_counts(dk, ell, f0, L, a).items()
                        }
                        if type_weights(order, ell, a) != walker:
                            mism += 1
    print(f"oracle equivalence sweep: {'ok' if mism == 0 else f'{mism} failures'}")
    orbit_bad = 0
    for dk in (-3, -4):
        order = OrderDisc.from_parts(dk, 1)
        for ell in (2, 3, 5, 7, 13):
            for a in range(1, 6):
                want = real_points(order, ell, a)
                for t, (_tot, real) in orbit_counts(dk, ell, a).items():
                    if real != want[t]:
                        orbit_bad += 1
    print(f"real-orbit identity sweep: {'ok' if orbit_bad == 0 else f'{orbit_bad} failures'}")
    if mism or orbit_bad:
        raise AssertionError("self-check sweep failed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cmlocus", description=__doc__)
    version = f"cmlocus {__version__} (kernel: {BACKEND})"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_, answer, formats in _LEVEL_COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--dk", type=int, help="fundamental discriminant")
        p.add_argument("--f", type=int, help="conductor (with --dk)")
        p.add_argument("--disc", type=int, help="full discriminant f^2*dk")
        p.add_argument("--M", type=int, default=1)
        p.add_argument("--N", type=int, required=True)
        if name == "x1":
            p.add_argument("--elliptic", action="store_true")
        p.add_argument("--format", choices=formats, default="table")
        p.set_defaults(func=_cmd_level, answer=answer)

    p = sub.add_parser("classgroup", help="reduced forms, h and 2-torsion")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("rcf", help="ring class field composita and tensors")
    p.add_argument("op", choices=("compose", "tensor"))
    p.add_argument("--dk", type=int, required=True)
    p.add_argument("--conductors", help="comma list for compose, e.g. 2,3")
    p.add_argument("--left", help="tensor factor, e.g. K:6")
    p.add_argument("--right", help="tensor factor, e.g. Q:10")
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.set_defaults(func=_cmd_rcf)

    p = sub.add_parser("graph", help="truncated isogeny graph summary / DOT")
    p.add_argument("--dk", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--f0", type=int, default=1)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--double", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("check", help="internal consistency sweeps")
    p.add_argument("--sweep", action="store_true")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
