import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def broken_lemma1(monkeypatch):
    """Make bounds.check_lemma1 report half its lhs, so the bound fails."""
    from harecast import bounds

    check = bounds.check_lemma1

    def halved(head, f_samples):
        rep = check(head, f_samples)
        return bounds._report(rep.name, rep.lhs / 2, rep.rhs, rep.eps_num, rep.constants)

    monkeypatch.setattr(bounds, "check_lemma1", halved)
