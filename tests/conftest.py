"""Shared fixtures: bundled groups are loaded once per session."""

import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from locus.permgroups import Group, load_group_file

DATA = Path(__file__).resolve().parent.parent / "src" / "locus" / "data"


@lru_cache(maxsize=None)
def bundled(name: str) -> Group:
    G = load_group_file(DATA / f"{name}.grp")
    G.build_tables()  # no-op above TABLE_ORDER_CAP
    return G
