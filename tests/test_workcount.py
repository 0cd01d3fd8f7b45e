"""tools/workcount.py counts the same work twice on the same op."""

import platform
import re
import subprocess
import sys
from pathlib import Path

import medmatch

TOOL = Path(__file__).resolve().parents[1] / "tools" / "workcount.py"


def test_workcount_repeats_its_counts():
    # The medmatch under test, whether from src/ or installed.
    src = Path(medmatch.__file__).resolve().parents[1]
    argv = [sys.executable, str(TOOL), "--workload", "paper_grid", "--ops", "1", "--src", str(src)]
    counts = []
    for _ in range(2):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].startswith(f"python {platform.python_version()} ")
        assert lines[0].endswith(f"medmatch from {src / 'medmatch'}")
        counts.append(re.fullmatch(r"op 0: (\d+) opcodes, (\d+) C calls", lines[2]).groups())
    assert counts[0] == counts[1]
    assert all(int(count) > 0 for count in counts[0])
