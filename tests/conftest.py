"""Shared fixtures: bundled groups are loaded once per session."""

import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from locus.harness import load_bundled
from locus.permgroups import Group


@lru_cache(maxsize=None)
def bundled(name: str) -> Group:
    return load_bundled(name)
