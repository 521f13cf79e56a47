from fractions import Fraction

import numpy as np
import pytest

from ridgelaw.models import load_model
from ridgelaw.pipeflow import bind_builtin

# the textbook null basis for the pipe system (columns: relative roughness
# and the rho D^3 dPdL / mu^2 group), used as a reference column space
CLASSICAL_PIPE_W = np.array(
    [
        [0.0, 1.0],
        [0.0, -2.0],
        [-1.0, 3.0],
        [1.0, 0.0],
        [0.0, 1.0],
    ]
)


def exact_matvec(rows, x):
    """D·x in exact rationals, written out here as an oracle independent of the package."""
    return [
        sum((Fraction(a) * Fraction(b) for a, b in zip(row, x, strict=True)), Fraction(0))
        for row in rows
    ]


@pytest.fixture(scope="session")
def laminar_model():
    return bind_builtin(load_model("laminar"))


@pytest.fixture(scope="session")
def turbulent_model():
    return bind_builtin(load_model("turbulent"))
