"""Shared fixtures: bundled groups are loaded once per session, and a
deadline for tests of inputs that used to hang."""

import signal
import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from locus.harness import load_bundled
from locus.permgroups import Group


@lru_cache(maxsize=None)
def bundled(name: str) -> Group:
    return load_bundled(name)


@pytest.fixture
def deadline():
    """Fail a test after 10 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
