"""Test-wide settings and fixtures.

Hypothesis runs derandomized and without an example database, so every run
tries the same examples and a failure reproduces from the commit alone.
"""

from math import pi

import numpy as np
import pytest
from hypothesis import settings

from quasicut.canonical import ThetaVector

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


class ReadMarks:
    """A matrix of uniforms, one row per shot, that marks each entry read through ``[]``."""

    def __init__(self, u: np.ndarray) -> None:
        self.u, self.read = u, np.zeros(u.shape, dtype=bool)

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, key):
        self.read[key] = True
        return self.u[key]

    def counts(self) -> np.ndarray:
        """The uniforms each row gave out, which must be its first ones."""
        counts = self.read.sum(axis=1)
        assert np.array_equal(self.read, np.arange(self.read.shape[1]) < counts[:, None])
        return counts


@pytest.fixture
def read_marks():
    """Wraps a uniform matrix so that a test can count the draws each shot took."""
    return ReadMarks


WEYL_TOL = 1e-12


def _in_weyl_domain(theta) -> bool:
    """True iff theta lies in the tetrahedron pi/4 >= t1 >= t2 >= t3 >= 0, to 1e-12."""
    t1, t2, t3 = ThetaVector.coerce(theta)
    return t1 <= pi / 4 + WEYL_TOL and t1 >= t2 - WEYL_TOL and t2 >= t3 - WEYL_TOL and t3 >= -WEYL_TOL


@pytest.fixture
def in_weyl_domain():
    """The sweep's parameter domain as a predicate on (t1, t2, t3)."""
    return _in_weyl_domain
