"""tools/workcount.py counts the same work twice on the same op, and a
change to one function shows in that function's counts alone."""

import ast
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import medmatch

TOOL = Path(__file__).resolve().parents[1] / "tools" / "workcount.py"
# The medmatch under test, whether from src/ or installed.
SRC = Path(medmatch.__file__).resolve().parents[1]


def workcount(src: Path, workload: str = "paper_grid", ops: int = 1):
    """Run the tool on the workload's first ops ops with medmatch from src;
    return each op's (opcodes, C calls) and the per-function table, name ->
    that pair."""
    argv = [sys.executable, str(TOOL), "--workload", workload, "--ops", str(ops),
            "--src", str(src)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    # Exit 0: every op still matched its recorded digest.
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(f"python {platform.python_version()} ")
    assert lines[0].endswith(f"medmatch from {src / 'medmatch'}")
    counts = [
        tuple(map(int, re.fullmatch(rf"op {i}: (\d+) opcodes, (\d+) C calls", line).groups()))
        for i, line in enumerate(lines[2 : 2 + ops])
    ]
    table = lines.index("per function: opcodes, C calls")
    functions = {}
    for line in lines[table + 1 :]:
        name, opcodes, calls = line.split()
        functions[name] = (int(opcodes), int(calls))
    return counts, functions


@pytest.fixture(scope="module")
def baseline():
    return workcount(SRC)


# oracle_check's ops store markets with store_market and check them with
# `match check` after load_market.
@pytest.mark.parametrize("workload, ops", [("paper_grid", 1), ("oracle_check", 3)],
                         ids=["paper_grid", "oracle_check"])
def test_workcount_repeats_its_counts(workload, ops):
    counts, functions = workcount(SRC, workload, ops)
    assert len(counts) == ops and all(count > 0 for op in counts for count in op)
    assert workcount(SRC, workload, ops) == (counts, functions)


def test_workcount_shows_a_no_op_loop_in_its_function_alone(baseline, tmp_path):
    shutil.copytree(SRC / "medmatch", tmp_path / "medmatch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    metrics = tmp_path / "medmatch" / "metrics.py"
    lines = metrics.read_text().splitlines(keepends=True)
    func = next(node for node in ast.parse("".join(lines)).body
                if isinstance(node, ast.FunctionDef) and node.name == "eta_zeta")
    # At the top of the body, after the docstring: bytecode with no call.
    first = func.body[0]
    at = first.end_lineno if ast.get_docstring(func) else first.lineno - 1
    lines[at:at] = ["    i = 0\n", "    while i < 3:\n", "        i += 1\n"]
    metrics.write_text("".join(lines))

    _, functions = workcount(tmp_path)
    _, before = baseline
    # Same functions, same C calls in each.
    assert {name: calls for name, (_, calls) in functions.items()} == {
        name: calls for name, (_, calls) in before.items()
    }
    changed = {name for name in before if functions[name][0] != before[name][0]}
    assert changed == {"metrics.eta_zeta"}
    assert functions["metrics.eta_zeta"][0] > before["metrics.eta_zeta"][0]


def test_workcount_stops_quietly_when_its_reader_closes_the_pipe():
    argv = [sys.executable, str(TOOL), "--workload", "oracle_check", "--ops", "1",
            "--src", str(SRC)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        # Closed before the tool's first write reaches the pipe.
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr, stderr
