"""Process helpers shared by the orchestrator and the workers."""

import os
import selectors
import subprocess
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
HASH_SEED = "0"  # pinned for every interpreter the benchmark starts
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """Environment of every child: the checkout's sources first on the
    path, a fixed hash seed, and no user site or stray PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONNOUSERSITE"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


class ChildResult(NamedTuple):
    rc: int
    out: str
    err: str
    wall_s: float
    maxrss_kb: int


def spawn(argv: list[str], env: dict | None = None) -> ChildResult:
    """Run one child to completion, one at a time.

    Returns its exit code, output, wall time from start to reaping and its
    own peak resident set (from wait4, so it is this child's alone).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env if env is not None else child_env(),
        cwd=ROOT,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                proc.wait()
                for f in chunks:
                    f.close()
                raise TimeoutError(f"child timed out: {' '.join(argv)}")
            for key, _ in sel.select(timeout=left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout]).decode()
    err = b"".join(chunks[proc.stderr]).decode()
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(proc.returncode, out, err, wall, usage.ru_maxrss)

