"""Shared fixtures: bundled groups are loaded once per session, a deadline
for tests of inputs that used to hang, and categories built from labels."""

import signal
import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from locus.catlimits import FiniteCategory
from locus.harness import load_bundled
from locus.permgroups import Group


@lru_cache(maxsize=None)
def bundled(name: str) -> Group:
    return load_bundled(name)


def labelled_category(objects, mor_labels, compose, identity_of):
    """The FiniteCategory whose morphisms i -> j are named by the labels
    ``mor_labels[(i, j)]``, numbered in order of (i, j) and then of the list;
    ``compose(g, f)`` is the label of g o f and ``identity_of(i)`` that of
    the identity at i.  Each composable pair is composed and looked up one
    at a time, the oracle for the categories built from arrays.  A label
    outside its hom-set becomes a morphism number out of range."""
    src, tgt, labels, index = [], [], [], {}
    for (i, j), labs in sorted(mor_labels.items()):
        for lab in labs:
            index[(i, j, lab)] = len(labels)
            src.append(i)
            tgt.append(j)
            labels.append(lab)
    comp = np.full((len(labels),) * 2, -1, dtype=np.int64)
    for g, (j, k) in enumerate(zip(src, tgt)):
        for f in (f for f, t in enumerate(tgt) if t == j):
            comp[g, f] = index.get((src[f], k, compose(labels[g], labels[f])), len(labels))
    identity = [index.get((i, i, identity_of(i)), len(labels)) for i in range(len(objects))]
    return FiniteCategory(objects, src, tgt, comp, identity, labels)


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
