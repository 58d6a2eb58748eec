"""Energy functionals and the one evaluator of a field.

The working functional on the mass sphere is

    J(u) = A(u)/2 + (1/2) Int V |u|^2 - B_p(u)/(2p) - B_q(u)/(2q),

with A(u) the squared fractional seminorm and B_r(u) the Hartree energy
Int (I_alpha * |u|^r)|u|^r.  In the autonomous case V == mu the potential
term is mu*mass/2.  energy() evaluates a field once: its Evaluation carries
the energy terms, the Lagrange multiplier, the Pohozaev value, the Hartree
forces with their derivatives, and the Euler-Lagrange gradient.

The truncated functional J_T multiplies B_p by tau(||u||_{H^s}), a smooth
radial cutoff that switches the critical term off at large H^s norm.  It
is evaluated along the mass-preserving dilation ray only (fiber.fiber_value
and fiber.psi), where its derivative factors through the truncated
Pohozaev functional: d/dt J_T(u_t) = (t^{2s-1}/2) P_T(u_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, OutOfRange, ZeroField
from .params import ExponentSet
from .spectral import (Field, fractional_laplacian_free, kinetic_energy_free,
                       mass, riesz_potential, smooth_cutoff)

__all__ = [
    "Truncation", "Evaluation",
    "tau_eval", "tau_prime",
    "hartree_jvp", "normalize_potential", "energy",
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


def tau_eval(trunc: Truncation, r: float) -> float:
    """Smooth nonincreasing bridge, exactly 1 below R0 and 0 above R1: the
    bump quotient of smooth_cutoff."""
    if r < 0.0:
        raise OutOfRange(f"radial argument must be >= 0, got {r}")
    return float(smooth_cutoff(r, trunc.R0, trunc.R1))


def tau_prime(trunc: Truncation, r: float) -> float:
    """Derivative of tau_eval, -tau (1 - tau) ((R1 - r)^-2 + (r - R0)^-2);
    0.0 outside (R0, R1) and where tau is exactly 0 or 1 (there a bump has
    underflowed, and the inverse square of its tiny argument would
    overflow)."""
    if not trunc.R0 < r < trunc.R1:
        return 0.0
    tau = tau_eval(trunc, r)
    if tau in (0.0, 1.0):
        return 0.0
    return -tau * (1.0 - tau) * ((trunc.R1 - r) ** -2 + (r - trunc.R0) ** -2)


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


def _local_factor(values: np.ndarray, r: float, pot: np.ndarray) -> np.ndarray:
    """pot (r-1)|u|^{r-2} at u = values, given pot = I_alpha*|u|^r: the
    local part of the derivative of the Hartree force."""
    return pot * (r - 1.0) * _abs_power(values, r - 2.0)


def hartree_jvp(u: Field, v: np.ndarray, r: float, alpha: float,
                factors: tuple | None = None) -> np.ndarray:
    """Directional derivative of the Hartree force (I_alpha*|u|^r)|u|^{r-2}u
    (Evaluation.hartree_force) at u in direction v.

    factors is (sign(u)|u|^{r-1}, pot (r-1)|u|^{r-2}) with
    pot = I_alpha*|u|^r, when the caller holds them (Evaluation.hartree_jvp,
    fixed through a Newton step); the derivative then costs one Riesz
    convolution and no powers of u, with the same bits.
    """
    if factors is None:
        pot = riesz_potential(Field(u.grid, _abs_power(u.values, r)), alpha).values
        factors = (_odd_power(u.values, r - 1.0), _local_factor(u.values, r, pot))
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
    Pohozaev value; the Hartree potentials I_alpha*|u|^r behind B_r and the
    powers of u are kept for the Hartree forces, the gradient and the Newton
    operator at u (hartree_jvp).  Each of them, and A(u), is built on first
    use: the Newton residual reads only the gradient and the mass, a
    rejected Newton trial builds no local factor, and a scalar problem
    reads one Hartree term.
    (Not functools.cached_property: before Python 3.12 it holds one lock for
    every instance, which serializes the harness's worker threads.)
    """

    def __init__(self, u: Field, exps: ExponentSet, potential):
        dv = u.grid.dx
        self.field = u
        self.exps = exps
        self.V = normalize_potential(potential, u.grid)   # a float mu or V(eps x)
        self.mass = mass(u)
        if isinstance(self.V, np.ndarray):                # Int V(eps x)|u|^2
            self.potential = float(np.sum(self.V * u.values * u.values)) * dv
        else:                                             # mu * mass
            self.potential = self.V * self.mass
        self._hartree = {"p": None, "q": None}
        self._odd = {"p": None, "q": None}      # sign(u)|u|^{r-1}
        self._local = {"p": None, "q": None}    # (I_alpha*|u|^r)(r-1)|u|^{r-2}
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
        """P(u) = 2s A(u) - (delta_p/p) B_p(u) - (delta_q/q) B_q(u), less the
        virial term Int x V'(x)|u|^2 for a sampled V (V' by np.gradient):
        2 d/dt J(u_t) at t = 1 for the mass-preserving dilation about x = 0.
        A constant mu adds nothing."""
        e = self.exps
        p = (2.0 * e.s * self.kinetic
             - (e.delta_p / e.p) * self.hartree_p
             - (e.delta_q / e.q) * self.hartree_q)
        if isinstance(self.V, np.ndarray):
            g, vals = self.field.grid, self.field.values
            p -= float(np.sum(g.axis() * np.gradient(self.V, g.dx)
                              * vals * vals)) * g.dx
        return p

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
                              + self.V * u.values
                              - self.hartree_force("p")
                              - self.hartree_force("q"))
        return self._gradient

    def _odd_power_of(self, which: str) -> np.ndarray:
        """sign(u)|u|^{r-1} for r = exps.<which>, built on first use."""
        if self._odd[which] is None:
            r = getattr(self.exps, which)
            self._odd[which] = _odd_power(self.field.values, r - 1.0)
        return self._odd[which]

    def hartree_force(self, which: str) -> np.ndarray:
        """(I_alpha*|u|^r)|u|^{r-2}u for r = exps.<which>, the variational
        derivative of B_r(u)/(2r)."""
        return self._hartree_term(which)[0] * self._odd_power_of(which)

    def hartree_jvp(self, which: str, v: np.ndarray) -> np.ndarray:
        """Derivative of hartree_force(which) at u in direction v: the
        module's hartree_jvp with the powers of u and the Hartree potential
        this evaluation holds, so each matvec of a Newton step costs one
        Riesz convolution."""
        r = getattr(self.exps, which)
        if self._local[which] is None:
            self._local[which] = _local_factor(self.field.values, r,
                                               self._hartree_term(which)[0])
        return hartree_jvp(self.field, v, r, self.exps.alpha,
                           (self._odd_power_of(which), self._local[which]))

    @property
    def grad_residual(self) -> float:
        """||G - lambda u||_2 / ||u||_2."""
        d = self.gradient - self.lam * self.field.values
        return math.sqrt(float(np.sum(d * d)) * self.field.grid.dx / self.mass)


def energy(u: Field, exps: ExponentSet, potential=0.0) -> Evaluation:
    """Evaluate u once: energy breakdown of the untruncated functional,
    multiplier, Pohozaev value and gradient."""
    return Evaluation(u, exps, potential)
