"""Spectral-gap estimation for the diffusion generator of dmu = exp(-V)/Z dx.

The generator is discretized on a uniform grid over [-X, X] with no-flux
endpoints; node weights are w_i = exp(-V(x_i)) and conductances come from
midpoint values of exp(-V).  The substitution v = u sqrt(w) turns the
weighted operator into a plain symmetric tridiagonal matrix whose entries
are assembled from *differences* of V, so they stay well scaled even when
exp(-V) underflows.  The two smallest eigenvalues are isolated by LAPACK
``stebz`` (Sturm-sequence bisection) through scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functionals
from .errors import DomainValidationError, EnergyGuardError
from .measure import cdf, tail

# smallest eigenvalue of the Neumann operator is the constant mode at 0;
# anything larger than this (relative to the gap scale) means a broken setup
_ZERO_MODE_TOL = 1e-8


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetrized discrete generator: diagonal, off-diagonal, grid metadata."""

    grid: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray
    h: float
    weights_log: np.ndarray  # log w_i = -V(x_i)
    truncation_mass: float


def discretize(measure, X=None, N=4000):
    """Neumann finite-volume discretization on [-X, X] with N+1 nodes.

    The discrete Dirichlet form sum c_{i+1/2} (u_{i+1}-u_i)^2 h approximates
    Z int u'^2 dmu, and the weighted l2 norm approximates Z int u^2 dmu.
    """
    if N < 100:
        raise DomainValidationError("discretize requires N >= 100")
    if X is None:
        X = measure.truncation
    if not 0.0 < X < np.inf:
        raise DomainValidationError(f"discretize requires a finite X > 0, got {X}")
    grid = np.linspace(-X, X, N + 1)
    h = grid[1] - grid[0]
    V = measure.potential.value(grid)
    Vmid = measure.potential.value(0.5 * (grid[:-1] + grid[1:]))
    # symmetrized entries via exponent differences: T = D^{-1/2} L D^{-1/2};
    # an entry that overflows (a grid too coarse for V) or a zero h * h is caught below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        off = -np.exp(-Vmid + 0.5 * (V[:-1] + V[1:])) / (h * h)
        diag = np.zeros(N + 1)
        diag[:-1] += np.exp(-Vmid + V[:-1]) / (h * h)
        diag[1:] += np.exp(-Vmid + V[1:]) / (h * h)
    if not (np.isfinite(off).all() and np.isfinite(diag).all()):
        raise DomainValidationError(f"discretize: a matrix entry is not finite on [-X, X] = [{-X:g}, {X:g}] "
                                    f"with N = {N}; refine the grid or change X")
    # an even measure's cdf(-X) is its tail(X), the same computation on the same ladder
    upper = tail(measure, X)
    mass_out = max(0.0, min(1.0, upper + (upper if measure.is_even else cdf(measure, -X))))
    return TridiagonalOperator(
        grid=grid, diag=diag, offdiag=off, h=h, weights_log=-V, truncation_mass=mass_out
    )


def gap_resolution(op):
    """Eigenvalue resolution floor of the double-precision LAPACK ``stebz``
    bisection.

    Eigenvalues below roughly eps * ||T|| cannot be separated from the zero
    mode; gaps at or under this floor mean "no spectral gap at this
    precision" (the Poincare-failure signature).
    """
    norm = float(np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.offdiag)))
    return 64.0 * np.finfo(float).eps * norm


def spectral_gap(op):
    """Second-smallest eigenvalue of the symmetrized operator, clamped at 0.

    The two smallest eigenvalues come from LAPACK ``stebz`` at its default
    tolerance.  The smallest must be the zero Neumann mode; it is asserted to
    vanish within 1e-8 of the gap scale.  Values inside the rounding noise of
    the matrix (see ``gap_resolution``) are clamped to be nonnegative.
    """
    # imported here: scipy.linalg adds 0.3-0.4 s and ~26 MB to every import of
    # hardylab, and only this function needs it
    from scipy.linalg import eigvalsh_tridiagonal

    lam0, lam1 = eigvalsh_tridiagonal(
        op.diag, op.offdiag, select="i", select_range=(0, 1), lapack_driver="stebz"
    ).tolist()
    if abs(lam0) > _ZERO_MODE_TOL * max(1.0, abs(lam1)):
        raise AssertionError(
            f"Neumann ground mode not at zero: lambda0={lam0:.3e}, lambda1={lam1:.3e}"
        )
    return max(lam1, 0.0)


def rayleigh(measure, f):
    """variance(f) / dirichlet(f): a certified lower bound on the Poincare constant."""
    num = functionals.variance(measure, f)
    den = functionals.energy(measure, f, "dirichlet")
    if den < 1e-14:
        raise EnergyGuardError("rayleigh: dirichlet energy below guard")
    return num / den
