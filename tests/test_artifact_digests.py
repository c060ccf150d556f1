"""The fixed-seed artifacts keep the bytes pinned in artifact_digests.txt, at any BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent


def assert_digests_match_pinned(threads: int) -> None:
    env = dict(os.environ, **{var: str(threads) for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    run = subprocess.run([sys.executable, str(HERE / "artifact_digests.py")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    want = (HERE / "artifact_digests.txt").read_text().splitlines()
    assert run.stdout.splitlines() == want


def test_artifact_digests_match_pinned():
    assert_digests_match_pinned(1)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a second BLAS thread needs a second CPU")
def test_artifact_digests_match_pinned_at_two_blas_threads():
    assert_digests_match_pinned(2)
