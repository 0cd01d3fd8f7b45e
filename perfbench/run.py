"""medmatch benchmark: one command, one workload, one result line.

    python3 perfbench/run.py --workload paper_grid|scale_full|oracle_check \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout; medmatch is imported from its src/.
The measured run is a fresh process (bench.py) driving a closed loop of
`match` commands; it also times set-up (process start, `import medmatch`,
writing the op inputs) in fresh processes. Its last stdout line is the JSON
result; with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
RUN_LIMIT_S = 170  # a run, set-up included, is killed after this many seconds


def run_child(cmd: list[str], env: dict, limit_s: float) -> tuple[int, float]:
    """Run cmd to completion; return its exit code and wall time in seconds.

    A watchdog kills the child's whole process group, so also the set-up
    processes it starts, if it outlives limit_s.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    watchdog = threading.Timer(limit_s, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return code, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="medmatch benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("paper_grid", "scale_full", "oracle_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "medmatch" / "__init__.py").is_file():
        print(f"no medmatch source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A fixed string hash seed keeps set and dict layouts, and so timings,
    # from varying with anything but the inputs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    (HERE / ".work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    try:
        code, _ = run_child(
            [sys.executable, str(BENCH), "measure", "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", work,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, RUN_LIMIT_S,
        )
        return code
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
