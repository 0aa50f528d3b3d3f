import os
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def forks(monkeypatch):
    """The children forked while the test runs, counted as they are forked."""
    forked = []
    fork = os.fork

    def counted():
        forked.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
