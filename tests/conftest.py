import numpy as np
import pytest

from hardylab import scenarios


@pytest.fixture(scope="session")
def exp_measure():
    return scenarios.corpus_measure("exponential")


@pytest.fixture(scope="session")
def gauss_measure():
    return scenarios.corpus_measure("gaussian")


@pytest.fixture(scope="session")
def mu15_measure():
    return scenarios.corpus_measure("mu15")


@pytest.fixture(scope="session")
def nu2_measure():
    return scenarios.corpus_measure("nu2")


@pytest.fixture(scope="session")
def floor_measure():
    return scenarios.corpus_measure("floor")


@pytest.fixture(scope="session")
def cattiaux_measure():
    return scenarios.corpus_measure("cattiaux")


def _derivative_error(value, derivative, avoid=lambda x: False, n_points=100, seed=20240229, span=50.0):
    """Max relative discrepancy between ``derivative`` and central differences
    of ``value`` at ``n_points`` points drawn one at a time, uniform in
    [-span, span] from PCG64(seed), skipping the points where ``avoid(x)``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = []
    while len(pts) < n_points:
        x = float(rng.uniform(-span, span))
        if not avoid(x):
            pts.append(x)
    x = np.array(pts)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (value(x + h) - value(x - h)) / (2.0 * h)
    d = derivative(x)
    scale = np.maximum(np.abs(d), np.maximum(np.abs(fd), 1e-8))
    return float(np.max(np.abs(fd - d) / scale))


@pytest.fixture(scope="session")
def derivative_error():
    return _derivative_error
