"""One round of a workload, or one set-up probe, in a fresh interpreter.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload W --seed S [--trace]

Prints one JSON object on its last line of standard output.
"""

import json
import sys
import time


def probe() -> dict:
    """Set-up of the program: import everything, then the first answer."""
    t0 = time.perf_counter()
    import cmlocus.cli  # noqa: F401  (imports the package and every module)

    t1 = time.perf_counter()
    from cmlocus.arith import OrderDisc
    from cmlocus.locus import fiber_X0MN

    fiber_X0MN(OrderDisc.from_parts(-4, 1), 1, 2)
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "import_ms": (t1 - t0) * 1e3,
            "origin": cmlocus.cli.__file__,
            "backend": sys.modules["cmlocus._kernel"].BACKEND}


def in_process_round(workload: str, seed: int, traced: bool) -> dict:
    import resource

    import workloads as W

    inputs = W.INPUTS[workload](seed)
    import cmlocus  # noqa: F401

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = W.make_ops(workload, inputs)
    lat = []
    failed = 0
    errors = []
    bad = []
    clock = time.perf_counter_ns
    for q, op in zip(inputs, ops):
        t = clock()
        try:
            got = op()
        except Exception as err:  # an operation that fails is counted, not fatal
            lat.append(clock() - t)
            failed += 1
            errors.append(f"{q}: {type(err).__name__}: {err}")
            continue
        lat.append(clock() - t)
        bad += W.check_round(workload, [q], [got])
    return {
        "ops": len(ops),
        "failed": failed,
        "errors": errors[:5],
        "bad": bad[:5],
        "nbad": len(bad),
        "lat_ns": lat,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.snapshot() if tracer else None,
    }


TRACE_MARK = "PERFBENCH-TRACE "


def cli_round(seed: int, traced: bool) -> dict:
    from pathlib import Path

    import workloads as W
    from common import spawn
    from tracer import merge

    cmds = W.cli_cold_inputs(seed)
    child = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
    plain = [sys.executable, "-m", "cmlocus.cli"]
    lat, done, snaps, command_ms = [], [], [], []
    maxrss = 0
    failed = 0
    errors = []
    for cmd in cmds:
        r = spawn((child if traced else plain) + cmd)
        lat.append(int(r.wall_s * 1e9))
        maxrss = max(maxrss, r.maxrss_kb)
        if traced:
            line = [x for x in r.err.splitlines() if x.startswith(TRACE_MARK)]
            if line:
                snap = json.loads(line[-1][len(TRACE_MARK):])
                command_ms.append(snap.pop("command_ms"))
                snaps.append(snap)
        if r.rc != 0:
            failed += 1
            errors.append(f"{' '.join(cmd)}: exit {r.rc}: {r.err.strip()[-200:]}")
            continue
        done.append((cmd, r.rc, r.out))
    bad = []
    fibers: dict = {}
    order = {"fiber": 0, "primitive": 1}
    for cmd, rc, out in sorted(done, key=lambda x: order.get(x[0][0], 2)):
        bad += W.check_cli(cmd, rc, out, fibers)
    layers = None
    if traced:
        layers = merge(snaps)
        layers["command_ms"] = command_ms
    return {
        "ops": len(cmds),
        "failed": failed,
        "errors": errors[:5],
        "bad": bad[:5],
        "nbad": len(bad),
        "lat_ns": lat,
        "maxrss_kb": maxrss,
        "layers": layers,
    }


def main() -> None:
    args = sys.argv[1:]
    if args == ["--probe"]:
        print(json.dumps(probe()))
        return
    workload = args[args.index("--workload") + 1]
    seed = int(args[args.index("--seed") + 1])
    traced = "--trace" in args
    if workload == "cli_cold":
        out = cli_round(seed, traced)
    else:
        out = in_process_round(workload, seed, traced)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
