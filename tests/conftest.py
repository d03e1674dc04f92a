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


# S3 x A5, whose O_2'(L) only the seeds route of ``o_pprime_locality`` certifies
S3XA5_GRP = "degree 8\n(1 2)\n(1 2 3)\n(4 5 6 7 8)\n(4 5 6)\n"


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
