"""The fixed-seed artifacts keep the bytes pinned in artifact_digests.txt."""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent


def test_artifact_digests_match_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(HERE / "artifact_digests.py")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    want = (HERE / "artifact_digests.txt").read_text().splitlines()
    assert run.stdout.splitlines() == want
