"""Shared fixtures: the desk parameter set, grids, field corpora, and
session-scoped solver artifacts (scalar ground state, autonomous solves);
and the real-space Riesz oracle."""

import numpy as np
import pytest

from choqlab.harness import GROUND_GRID
from choqlab.harness import make_positive_field  # noqa: F401 (for the tests)
from choqlab.params import riesz_normalization, sharp_constant, validate_regime
from choqlab.solver import solve_autonomous, solve_scalar_ground
from choqlab.spectral import Grid

DESK = dict(N=1, s=0.4, alpha=0.5, q=3.0)
DESK_MASS = 1.5


def riesz_oracle_1d(rho, alpha: float) -> np.ndarray:
    """O(n^2) product-integration quadrature of A Int rho(y)|x-y|^{alpha-1} dy.

    Independent real-space check for riesz_potential: the kernel is
    integrated exactly over each cell and rho is taken piecewise constant,
    so the result is quadrature- not Fourier-based.
    """
    n, dx = rho.grid.points, rho.grid.dx
    a_const = riesz_normalization(1, alpha)
    d = np.arange(n) * dx
    upper = (d + 0.5 * dx) ** alpha
    lower = np.where(d > 0.0, np.abs(d - 0.5 * dx) ** alpha, -(0.5 * dx) ** alpha)
    w = (upper - lower) / alpha          # Int_cell |x|^{alpha-1}, exact
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return a_const * (w[idx] @ rho.values)


@pytest.fixture(scope="session")
def exps():
    return validate_regime(**DESK)


@pytest.fixture(scope="session")
def grid_small():
    return Grid(1, 48.0, 512)


@pytest.fixture(scope="session")
def grid_unit():
    return Grid(1, 48.0, 1024)


@pytest.fixture(scope="session")
def grid_solver():
    return Grid(1, 96.0, 2048)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def scalar_ground(exps):
    gs = solve_scalar_ground(exps, GROUND_GRID)
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def c_alpha_q(exps, scalar_ground):
    return sharp_constant(exps, exps.q, scalar_ground.norm2)


@pytest.fixture(scope="session")
def autonomous_mu0(exps, grid_solver):
    return solve_autonomous(exps, 0.0, DESK_MASS, grid_solver)
