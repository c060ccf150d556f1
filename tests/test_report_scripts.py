"""Smoke tests of the report scripts next to the tests: `code_lines.py` and `step_faults.py`."""

import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_script(name, *args):
    """stdout of `python tests/<name> <args>`; fails on a nonzero exit."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(TESTS / name), *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_code_lines_total_is_the_sum_of_its_rows():
    *rows, total, settable = run_script("code_lines.py")
    files = [row.split() for row in rows]
    assert [name for name, _, _ in files] == [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py"))]
    sums = [sum(int(row[i]) for row in files) for i in (1, 2)]
    assert total == f"total {sums[0]} {sums[1]}"
    assert 0 < sums[0] < sums[1]
    assert re.fullmatch(r"settable \d+ \d+", settable)


def test_step_faults_prints_one_row_per_step():
    lines = run_script("step_faults.py", "2")
    assert len(lines) == 3
    for i, line in enumerate(lines[:2]):
        assert re.fullmatch(rf"step {i} faults \d+ ms \d+\.\d\d", line), line
    assert re.fullmatch(r"median faults [\d.e+]+ ms \d+\.\d\d", lines[2]), lines[2]
