import os
import subprocess
import sys

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


@pytest.fixture
def panels(monkeypatch):
    """One-element counter of the panels of every ``quad.refine_log_panels``
    call the test makes."""
    from hardylab import quad

    counted = [0]
    refine = quad.refine_log_panels

    def counting(*args, **kwargs):
        out = refine(*args, **kwargs)
        counted[0] += out[2]
        return out

    monkeypatch.setattr(quad, "refine_log_panels", counting)
    return counted


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


# Address-space cap of the child that ``bounded_python`` starts.
_CHILD_ADDRESS_SPACE = 1536 * 2**20
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _bounded_python(code, timeout=120.0):
    """Run ``code`` in a child ``python -c`` with the package on its path,
    its address space capped at about 1.5 GB (``RLIMIT_AS``, set by the
    child itself before anything else runs) and a timeout in seconds;
    returns the ``subprocess.CompletedProcess``.  A runaway allocation then
    ends as MemoryError in the child alone."""
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({_CHILD_ADDRESS_SPACE}, {_CHILD_ADDRESS_SPACE}))\n"
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", cap + code], capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture(scope="session")
def bounded_python():
    return _bounded_python
