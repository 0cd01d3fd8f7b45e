"""Deterministic work counts for the benchmark's workloads.

    python3 tools/workcount.py --workload paper_grid|scale_full|oracle_check
                               [--src DIR] [--ops N]

Runs the workload's window of ops (30, 2 or 30 `match` commands, the first
N with --ops) on perfbench's inputs of seed 1, the seed of CI's digest
gate, in-process through medmatch.cli.main, as perfbench/bench.py does.
For each op it reports the bytecodes executed in medmatch's frames
(sys.settrace opcode events) and the C calls those frames make
(sys.setprofile c_call events: builtin functions and methods, not calls
of a type such as list(x)). Opcodes miss the work inside C, so a change
that moves Python work into C shows as fewer opcodes and more C calls.
Then it reports both counts per medmatch function over the ops run.

The counts repeat exactly from run to run, where wall time spreads by tens
of percent, so they show whether a change makes the code do less work.
Bytecode differs between Python versions, so the report starts with the
version; compare counts of one version only. Wall time still decides what
the work costs, and the counts gate nothing.

medmatch is imported from DIR (default: this checkout's src/), and every
one of its modules is imported before the first op, so an op's counts hold
its own work and no module's import. Each op's output is checked against
perfbench's recorded digests; the tool exits 1 if any op is wrong.
perfbench/bench.py is loaded by path for its workloads and nothing under
perfbench/ is written.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def import_medmatch(src: Path):
    """Import medmatch and all its modules from src; return medmatch.cli."""
    sys.path.insert(0, str(src))
    import medmatch

    package = Path(medmatch.__file__).parent
    if package.resolve().parent != src.resolve():
        raise SystemExit(f"medmatch imported from {package}, not from {src}")
    for module in sorted(package.glob("*.py")):
        if module.stem != "__init__":
            importlib.import_module(f"medmatch.{module.stem}")
    return sys.modules["medmatch.cli"]


def counting(main, package: str):
    """Wrap main so that each call counts, per code object of a medmatch
    frame, the opcodes it executes and the C functions it calls. Returns the
    wrapper and the two Counters, which the caller clears between ops."""
    opcodes, c_calls = Counter(), Counter()
    prefix = package + os.sep
    mine = {}  # code object -> whether it is medmatch's

    def is_mine(code):
        if code not in mine:
            mine[code] = code.co_filename.startswith(prefix)
        return mine[code]

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        if not is_mine(frame.f_code):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def on_profile(frame, event, arg):
        if event == "c_call" and is_mine(frame.f_code):
            c_calls[frame.f_code] += 1

    def traced(argv):
        sys.setprofile(on_profile)
        sys.settrace(on_call)
        try:
            return main(argv)
        finally:
            sys.settrace(None)
            sys.setprofile(None)

    return traced, opcodes, c_calls


def function_name(code) -> str:
    """module.qualname of a medmatch code object (co_qualname is 3.11+)."""
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_grid", "scale_full", "oracle_check"))
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the medmatch package")
    parser.add_argument("--ops", type=int, help="run only the window's first OPS ops")
    args = parser.parse_args(argv)

    bench = load_bench()
    cli = import_medmatch(args.src)
    package = os.path.dirname(cli.__file__)
    window = bench.WORKLOADS[args.workload]["window"]
    ops = window if args.ops is None else min(args.ops, window)
    seed = bench.input_seed(SEED)
    expected = bench.load_digests().get(args.workload, {}).get(str(seed), [])
    traced, opcodes, c_calls = counting(cli.main, package)
    by_function = {}
    wrong = 0

    print(f"python {platform.python_version()} ({platform.python_implementation()}), "
          f"medmatch from {package}")
    print(f"workload {args.workload}, seed {SEED}, {ops} of {window} ops")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        bench.write_inputs(args.workload, seed, Path(workdir))
        os.chdir(workdir)
        try:
            for i in range(ops):
                opcodes.clear()
                c_calls.clear()
                status, stdout = bench.run_op(traced, bench.op_argv(args.workload, seed, i))
                reason = bench.check_op(
                    args.workload, i, status, stdout,
                    bench.op_payload(args.workload, i, Path(workdir)),
                    expected[i] if i < len(expected) else None,
                )
                print(f"op {i}: {sum(opcodes.values())} opcodes, "
                      f"{sum(c_calls.values())} C calls" + (f" (wrong: {reason})" if reason else ""))
                wrong += reason is not None
                for counter, column in ((opcodes, 0), (c_calls, 1)):
                    for code, count in counter.items():
                        by_function.setdefault(function_name(code), [0, 0])[column] += count
        finally:
            os.chdir(cwd)

    print(f"total: {sum(c[0] for c in by_function.values())} opcodes, "
          f"{sum(c[1] for c in by_function.values())} C calls")
    print("per function: opcodes, C calls")
    for name, (ops_count, calls) in sorted(by_function.items(), key=lambda kv: (-kv[1][0], kv[0])):
        print(f"  {name:50s} {ops_count:12d} {calls:10d}")
    return 1 if wrong else 0


if __name__ == "__main__":
    # A reader that closes the pipe early (say `| head`) ends the run
    # quietly, as the `signal` module's documentation shows: stdout goes to
    # devnull so that the interpreter's own final flush cannot fail again.
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
