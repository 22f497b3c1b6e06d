import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hardylab import functionals as fn
from hardylab import measure as msr
from hardylab import spectral
from hardylab.errors import DomainValidationError, EnergyGuardError


def dirichlet_form(op, u):
    """sum c_{i+1/2} (u_{i+1} - u_i)^2 h for a node vector u."""
    c = -op.offdiag * np.exp(0.5 * (op.weights_log[:-1] + op.weights_log[1:]))
    du = np.diff(u)
    return float(np.sum(c * du * du) * op.h)


def weighted_inner(op, u, v):
    w = np.exp(op.weights_log)
    return float(np.sum(w * u * v) * op.h)


def apply_generator(op, u):
    """Action of the (negative) generator in the original u coordinates."""
    w_half = np.exp(0.5 * op.weights_log)
    v = u * w_half
    out = op.diag * v
    out[:-1] += op.offdiag * v[1:]
    out[1:] += op.offdiag * v[:-1]
    return out / w_half


@pytest.mark.parametrize("token, X", [("gaussian", None), ("sinpower:2,2", 40.0), ("expr:abs(x)^1.5+0.5*x", None)])
def test_truncation_mass_is_both_tails(token, X):
    # an even measure reads its tail at X once and doubles it: the sum of
    # the two tails, as an uneven one computes it
    m = msr.normalize(msr.Potential.from_string(token))
    X = m.truncation if X is None else X
    assert spectral.discretize(m, X=X, N=100).truncation_mass == min(1.0, msr.tail(m, X) + msr.cdf(m, -X))


def test_constant_potential_gives_plain_laplacian(floor_measure):
    # V = floor(|x|) is 0 on [-0.5, 0.5]
    op = spectral.discretize(floor_measure, X=0.5, N=100)
    # all conductances equal: off-diagonal entries are constant
    assert np.allclose(op.offdiag, op.offdiag[0])
    assert np.allclose(op.diag[1:-1], -2.0 * op.offdiag[0])


def test_discrete_form_matches_weighted_integral(gauss_measure):
    # u = x: discrete Dirichlet form approximates Z * int 1 dmu = Z
    op = spectral.discretize(gauss_measure, N=4000)
    val = dirichlet_form(op, op.grid)
    assert val == pytest.approx(math.exp(gauss_measure.log_z), rel=0.01)


def test_generator_symmetry(gauss_measure):
    op = spectral.discretize(gauss_measure, X=6.0, N=300)
    rng = np.random.Generator(np.random.PCG64(5))
    u, v = rng.normal(size=301), rng.normal(size=301)
    lhs = weighted_inner(op, apply_generator(op, u), v)
    rhs = weighted_inner(op, u, apply_generator(op, v))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_discretize_validates_n(gauss_measure):
    with pytest.raises(DomainValidationError):
        spectral.discretize(gauss_measure, N=50)


@pytest.mark.parametrize("X", [0.0, -5.0, math.inf, math.nan])
def test_discretize_requires_a_finite_positive_x(gauss_measure, X):
    # X <= 0 would build a degenerate or reversed grid
    with pytest.raises(DomainValidationError, match="finite X > 0"):
        spectral.discretize(gauss_measure, X=X, N=300)


def test_gaussian_gap_is_one(gauss_measure):
    op = spectral.discretize(gauss_measure, N=4000)
    gap = spectral.spectral_gap(op)
    assert gap == pytest.approx(1.0, abs=0.01)


def test_exponential_gap_is_quarter(exp_measure):
    op = spectral.discretize(exp_measure, X=30.0, N=8000)
    gap = spectral.spectral_gap(op)
    assert gap == pytest.approx(0.25, abs=0.01)
    # and the Poincare constant estimate sits inside the criterion bracket [1, 4]
    assert 1.0 <= 1.0 / gap <= 4.0 + 1e-9


@pytest.mark.parametrize("N", [200, 400])
@pytest.mark.parametrize("spec", ["gaussian", "exp", "sinpower:2,1"])
def test_gap_matches_dense_eigvalsh(spec, N):
    m = msr.normalize(msr.Potential.from_string(spec))
    op = spectral.discretize(m, N=N)
    dense = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    lam = np.linalg.eigvalsh(dense)
    assert spectral.spectral_gap(op) == pytest.approx(lam[1], rel=1e-9)


def test_import_does_not_load_scipy():
    # scipy is imported inside spectral_gap only; importing the package and
    # the CLI must not pay for it
    code = "import sys, hardylab, hardylab.cli; print(any(k.split('.')[0] == 'scipy' for k in sys.modules))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_grid_convergence(gauss_measure):
    g1 = spectral.spectral_gap(spectral.discretize(gauss_measure, N=4000))
    g2 = spectral.spectral_gap(spectral.discretize(gauss_measure, N=8000))
    assert abs(g1 - g2) / g2 <= 0.02


def test_truncation_monotonicity(gauss_measure):
    gaps = [spectral.spectral_gap(spectral.discretize(gauss_measure, X=X, N=4000)) for X in (6.0, 8.0, 10.0)]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-4


def test_rayleigh_gaussian_linear(gauss_measure):
    fx = fn.TestFunction.from_expression("x")
    assert spectral.rayleigh(gauss_measure, fx) == pytest.approx(1.0, rel=1e-8)


def test_rayleigh_exponential_near_extremal():
    # sign(x)(exp(|x|/2) - 1) approaches the optimizer; on a deep truncation
    # (eps = 1e-60, support ~ 138) the quotient clears 3.9 of the limit 4
    m = msr.normalize(msr.Potential.builtin("exp"), eps_trunc=1e-60)
    f = fn.TestFunction(
        value=lambda x: np.sign(x) * (np.exp(np.abs(x) / 2.0) - 1.0),
        derivative=lambda x: 0.5 * np.exp(np.abs(x) / 2.0),
    )
    ray = spectral.rayleigh(m, f)
    T = m.truncation
    oracle = (T - 3.0 + 4.0 * math.exp(-T / 2.0) - math.exp(-T)) / (T / 4.0)
    assert ray == pytest.approx(oracle, rel=1e-6)
    assert ray >= 3.9


def test_rayleigh_constant_guard(exp_measure):
    c = fn.TestFunction.from_expression("3")
    with pytest.raises(EnergyGuardError):
        spectral.rayleigh(exp_measure, c)
