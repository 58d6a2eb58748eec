"""Energy functionals and the one evaluator of a field.

The working functional on the mass sphere is

    J(u) = A(u)/2 + (1/2) Int V |u|^2 - B_p(u)/(2p) - B_q(u)/(2q),

with A(u) the squared fractional seminorm and B_r(u) the Hartree energy
Int (I_alpha * |u|^r)|u|^r.  In the autonomous case V == mu the potential
term is mu*mass/2.  energy() evaluates a field once: its Evaluation carries
the energy terms, the Lagrange multiplier, the Pohozaev value and the
Euler-Lagrange gradient.

The truncated functional J_T multiplies B_p by tau(||u||_{H^s}), a smooth
radial cutoff that switches the critical term off at large H^s norm.  It
is evaluated along the mass-preserving dilation ray only, where its
derivative factors through the truncated Pohozaev functional:
d/dt J_T(u_t) = (t^{2s-1}/2) P_T(u_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, OutOfRange, ZeroField
from .params import ExponentSet
from .spectral import (Field, fractional_laplacian_free, kinetic_energy_free,
                       mass, riesz_potential)

__all__ = [
    "Truncation", "Evaluation",
    "tau_eval", "tau_prime",
    "hartree_nonlinearity", "hartree_jvp",
    "jvp_factors", "normalize_potential", "energy",
    "truncated_profile_pohozaev", "truncated_profile_value",
]


# ---------------------------------------------------------------------------
# Smooth truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truncation:
    """Radial cutoff radii: tau == 1 on [0, R0], tau == 0 on [R1, inf)."""

    R0: float
    R1: float

    def __post_init__(self):
        if not (0.0 < self.R0 < self.R1):
            raise OutOfRange(f"need 0 < R0 < R1, got R0={self.R0}, R1={self.R1}")


def _bump(x: float) -> float:
    # exp(-1/x) continued by 0: underflows cleanly for small positive x
    if x <= 0.0:
        return 0.0
    if x < 1e-3:
        return 0.0  # exp(-1000) underflows anyway; avoid the division blow-up
    return math.exp(-1.0 / x)


def _bump_deriv(x: float) -> float:
    if x <= 0.0 or x < 1e-3:
        return 0.0
    return math.exp(-1.0 / x) / (x * x)


def tau_eval(trunc: Truncation, r: float) -> float:
    """Smooth nonincreasing bridge, exactly 1 below R0 and 0 above R1."""
    if r < 0.0:
        raise OutOfRange(f"radial argument must be >= 0, got {r}")
    if r <= trunc.R0:
        return 1.0
    if r >= trunc.R1:
        return 0.0
    up = _bump(trunc.R1 - r)
    down = _bump(r - trunc.R0)
    if up + down == 0.0:  # pathologically thin bridge: fall back to nearest flat
        return 1.0 if (r - trunc.R0) < (trunc.R1 - r) else 0.0
    return up / (up + down)


def tau_prime(trunc: Truncation, r: float) -> float:
    """Derivative of tau_eval; identically 0 outside (R0, R1)."""
    if r <= trunc.R0 or r >= trunc.R1:
        return 0.0
    f = _bump(trunc.R1 - r)
    g = _bump(r - trunc.R0)
    fp = -_bump_deriv(trunc.R1 - r)
    gp = _bump_deriv(r - trunc.R0)
    denom = (f + g) ** 2
    if denom == 0.0:
        return 0.0
    return (fp * g - f * gp) / denom


# ---------------------------------------------------------------------------
# Hartree terms
# ---------------------------------------------------------------------------

_DENSITY_FLOOR = 1e-300


def _abs_power(values: np.ndarray, r: float) -> np.ndarray:
    """|u|^r with tiny magnitudes clamped to 0 (no NaN at nodal points)."""
    a = np.abs(values)
    return np.where(a > _DENSITY_FLOOR, a ** r, 0.0)


def _odd_power(values: np.ndarray, r: float) -> np.ndarray:
    """sign(u) |u|^r, clamped like _abs_power."""
    return np.sign(values) * _abs_power(values, r)


def hartree_nonlinearity(u: Field, r: float, alpha: float) -> np.ndarray:
    """(I_alpha * |u|^r) |u|^{r-2} u sampled on the grid."""
    rho = _abs_power(u.values, r)
    pot = riesz_potential(Field(u.grid, rho), alpha).values
    return pot * _odd_power(u.values, r - 1.0)


def jvp_factors(values: np.ndarray, r: float, pot: np.ndarray):
    """The base-point arrays of hartree_jvp at u = values, given
    pot = I_alpha*|u|^r: sign(u)|u|^{r-1} and pot (r-1)|u|^{r-2}.  Both are
    fixed through a Newton step, so its matvecs can share them."""
    return (_odd_power(values, r - 1.0),
            pot * (r - 1.0) * _abs_power(values, r - 2.0))


def hartree_jvp(u: Field, v: np.ndarray, r: float, alpha: float,
                factors: tuple | None = None) -> np.ndarray:
    """Directional derivative of hartree_nonlinearity at u in direction v.

    factors is jvp_factors(u.values, r, I_alpha*|u|^r) when the caller holds
    it (fixed through a Newton step); the derivative then costs one Riesz
    convolution and no powers of u, with the same bits.
    """
    if factors is None:
        pot = riesz_potential(Field(u.grid, _abs_power(u.values, r)), alpha).values
        factors = jvp_factors(u.values, r, pot)
        del pot  # only the factors stay alive through the inner convolution
    au_r1, diag = factors
    inner = riesz_potential(Field(u.grid, r * au_r1 * v), alpha).values
    return inner * au_r1 + diag * v


# ---------------------------------------------------------------------------
# One evaluation per field
# ---------------------------------------------------------------------------

def normalize_potential(potential, grid):
    """V as the evaluator consumes it: a float for a constant mu, an ndarray
    on the grid for a sampled potential (a Field or an array)."""
    if np.isscalar(potential):
        return float(potential)
    v = potential.values if isinstance(potential, Field) else np.asarray(potential)
    if v.shape != grid.shape:
        raise GridMismatch(f"potential shape {v.shape} != grid shape {grid.shape}")
    return v


class Evaluation:
    """Every quantity the lab reads off one field, from one pass.

    A, B_p, B_q and Int V|u|^2 determine the energy, the multiplier and the
    Pohozaev value; the Hartree potentials I_alpha*|u|^r behind B_r are kept
    for the Euler-Lagrange gradient and for the Newton operator at u.  A(u)
    (and with it the energy), each Hartree potential with its B_r, and the
    gradient are built on first use: the Newton residual reads only the
    gradient and the mass, and a scalar problem reads one Hartree term.
    (Not functools.cached_property: before Python 3.12 it holds one lock for
    every instance, which serializes the harness's worker threads.)
    """

    def __init__(self, u: Field, exps: ExponentSet, potential):
        dv = u.grid.dx
        self.field = u
        self.exps = exps
        self._v = normalize_potential(potential, u.grid)
        self.mass = mass(u)
        if isinstance(self._v, np.ndarray):               # Int V(eps x)|u|^2
            self.potential = float(np.sum(self._v * u.values * u.values)) * dv
        else:                                             # mu * mass
            self.potential = self._v * self.mass
        self._hartree = {"p": None, "q": None}
        self._kinetic = None
        self._gradient = None

    def _hartree_term(self, which: str):
        """(I_alpha*|u|^r, B_r(u)) for r = exps.<which>, built on first use."""
        if self._hartree[which] is None:
            u = self.field
            rho = _abs_power(u.values, getattr(self.exps, which))
            pot = riesz_potential(Field(u.grid, rho), self.exps.alpha).values
            self._hartree[which] = (pot, float(np.sum(pot * rho)) * u.grid.dx)
        return self._hartree[which]

    @property
    def pot_p(self) -> np.ndarray:
        """I_alpha*|u|^p, the potential behind B_p."""
        return self._hartree_term("p")[0]

    @property
    def pot_q(self) -> np.ndarray:
        """I_alpha*|u|^q, the potential behind B_q."""
        return self._hartree_term("q")[0]

    @property
    def hartree_p(self) -> float:
        """B_p(u)."""
        return self._hartree_term("p")[1]

    @property
    def hartree_q(self) -> float:
        """B_q(u)."""
        return self._hartree_term("q")[1]

    @property
    def kinetic(self) -> float:
        """A(u), the squared fractional seminorm."""
        if self._kinetic is None:
            self._kinetic = kinetic_energy_free(self.field, self.exps.s)
        return self._kinetic

    @property
    def total(self) -> float:
        """J(u), the untruncated energy."""
        e = self.exps
        return (0.5 * self.kinetic + 0.5 * self.potential
                - self.hartree_p / (2.0 * e.p)
                - self.hartree_q / (2.0 * e.q))

    @property
    def lam(self) -> float:
        """lambda = (A + Int V|u|^2 - B_p - B_q) / mass, from testing the
        Euler-Lagrange equation against u itself."""
        if self.mass == 0.0:
            raise ZeroField("multiplier undefined for the zero field")
        return (self.kinetic + self.potential - self.hartree_p
                - self.hartree_q) / self.mass

    @property
    def pohozaev(self) -> float:
        """P(u) = 2s A(u) - (delta_p/p) B_p(u) - (delta_q/q) B_q(u)."""
        e = self.exps
        return (2.0 * e.s * self.kinetic
                - (e.delta_p / e.p) * self.hartree_p
                - (e.delta_q / e.q) * self.hartree_q)

    @property
    def poho_residual(self) -> float:
        """|P(u)| / (2s A(u)): the solver's dimensionless certificate."""
        if self.kinetic <= 0.0:
            return 0.0
        return abs(self.pohozaev) / (2.0 * self.exps.s * self.kinetic)

    @property
    def gradient(self) -> np.ndarray:
        """Untruncated Euler-Lagrange operator without the multiplier:

        G = (-Delta)^s u + V u - (I_a*|u|^p)|u|^{p-2}u - (I_a*|u|^q)|u|^{q-2}u.
        """
        if self._gradient is None:
            u, e = self.field, self.exps
            self._gradient = (fractional_laplacian_free(u, e.s).values
                              + self._v * u.values
                              - self.pot_p * _odd_power(u.values, e.p - 1.0)
                              - self.pot_q * _odd_power(u.values, e.q - 1.0))
        return self._gradient

    @property
    def grad_residual(self) -> float:
        """||G - lambda u||_2 / ||u||_2."""
        d = self.gradient - self.lam * self.field.values
        return math.sqrt(float(np.sum(d * d)) * self.field.grid.dx / self.mass)


def energy(u: Field, exps: ExponentSet, potential=0.0) -> Evaluation:
    """Evaluate u once: energy breakdown of the untruncated functional,
    multiplier, Pohozaev value and gradient."""
    return Evaluation(u, exps, potential)


# ---------------------------------------------------------------------------
# Truncated fiber arithmetic
#
# Along the ray u_t the truncated energy depends on u only through the
# profile (A, B_p, B_q, a), with R(t) = sqrt(t^{2s} A + a):
#     J_T(u_t) = t^{2s}A/2 - tau(R) t^{dp} B_p/(2p) - t^{dq} B_q/(2q)
# and the exact identity d/dt J_T(u_t) = (t^{2s-1}/2) P_T(u_t) holds with
# the tau' correction multiplying only the critical part.  A constant
# potential adds mu a/2, which is constant along the ray.
# ---------------------------------------------------------------------------

def truncated_profile_value(A: float, bp: float, bq: float, a: float,
                            exps: ExponentSet, trunc: Truncation, t: float) -> float:
    radius = math.sqrt(t ** (2.0 * exps.s) * A + a)
    tau = tau_eval(trunc, radius)
    return (0.5 * t ** (2.0 * exps.s) * A
            - tau * t ** exps.delta_p * bp / (2.0 * exps.p)
            - t ** exps.delta_q * bq / (2.0 * exps.q))


def truncated_profile_pohozaev(A: float, bp: float, bq: float, a: float,
                               exps: ExponentSet, trunc: Truncation, t: float) -> float:
    s = exps.s
    radius = math.sqrt(t ** (2.0 * s) * A + a)
    tau = tau_eval(trunc, radius)
    taup = tau_prime(trunc, radius)
    return (2.0 * s * A
            - (exps.delta_p / exps.p) * tau * t ** (exps.delta_p - 2.0 * s) * bp
            - (exps.delta_q / exps.q) * t ** (exps.delta_q - 2.0 * s) * bq
            - (s * taup / radius) * A * (t ** exps.delta_p / exps.p) * bp)
