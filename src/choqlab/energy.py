"""Energy functionals, Euler-Lagrange residuals, and Pohozaev identities.

The working functional on the mass sphere is

    J(u) = A(u)/2 + (1/2) Int V |u|^2
           - tau(||u||_{H^s}) B_p(u)/(2p) - B_q(u)/(2q),

with A(u) the squared fractional seminorm, B_r(u) the Hartree energy
Int (I_alpha * |u|^r)|u|^r, and tau a smooth radial cutoff that switches
the critical term off at large H^s norm.  In the autonomous case V == mu
the potential term is mu*mass/2.  Along the mass-preserving dilation ray
the derivative of the truncated energy factors through the truncated
Pohozaev functional:  d/dt J_T(u_t) = (t^{2s-1}/2) P_T(u_t).
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
    "Truncation", "EnergyBreakdown",
    "tau_eval", "tau_prime", "smooth_cutoff",
    "hartree_energy", "hartree_cross", "hartree_nonlinearity",
    "energy", "el_residual", "lagrange_multiplier",
    "pohozaev", "pohozaev_normalized",
    "pohozaev_truncated", "truncated_profile_pohozaev", "truncated_profile_value",
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


def hartree_energy(u: Field, r: float, alpha: float) -> float:
    """B_r(u) = Int (I_alpha * |u|^r) |u|^r, nonnegative."""
    if r < 1.0:
        raise OutOfRange(f"Hartree exponent must be >= 1, got {r}")
    rho = _abs_power(u.values, r)
    pot = riesz_potential(Field(u.grid, rho), alpha).values
    return float(np.sum(pot * rho)) * u.grid.dx


def hartree_cross(u: Field, v: Field, r: float, alpha: float) -> float:
    """Mixed term Int (I_alpha * |u|^r) |v|^r of the bilinear Hartree form."""
    if u.grid != v.grid:
        raise GridMismatch("cross term requires a common grid")
    rho_u = _abs_power(u.values, r)
    rho_v = _abs_power(v.values, r)
    pot = riesz_potential(Field(u.grid, rho_u), alpha).values
    return float(np.sum(pot * rho_v)) * u.grid.dx


def hartree_nonlinearity(u: Field, r: float, alpha: float) -> np.ndarray:
    """(I_alpha * |u|^r) |u|^{r-2} u sampled on the grid."""
    rho = _abs_power(u.values, r)
    pot = riesz_potential(Field(u.grid, rho), alpha).values
    return pot * _odd_power(u.values, r - 1.0)


def hartree_jvp(u: Field, v: np.ndarray, r: float, alpha: float) -> np.ndarray:
    """Directional derivative of hartree_nonlinearity at u in direction v."""
    au_r1 = _odd_power(u.values, r - 1.0)
    rho = _abs_power(u.values, r)
    pot = riesz_potential(Field(u.grid, rho), alpha).values
    inner = riesz_potential(Field(u.grid, r * au_r1 * v), alpha).values
    return inner * au_r1 + pot * (r - 1.0) * _abs_power(u.values, r - 2.0) * v


# ---------------------------------------------------------------------------
# Assembled energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float     # A(u)
    potential: float   # Int V(eps x)|u|^2  (mu * mass in the autonomous case)
    hartree_p: float   # B_p(u)
    hartree_q: float   # B_q(u)
    tau_factor: float  # tau(||u||_{H^s})
    total: float


def _potential_integral(u: Field, potential) -> float:
    """Int V |u|^2 for a constant mu or a sampled potential."""
    if potential is None:
        return 0.0
    if np.isscalar(potential):
        return float(potential) * mass(u)
    v = potential.values if isinstance(potential, Field) else np.asarray(potential)
    if v.shape != u.grid.shape:
        raise GridMismatch(f"potential shape {v.shape} != grid shape {u.grid.shape}")
    return float(np.sum(v * u.values * u.values)) * u.grid.dx


def _potential_times(u: Field, potential) -> np.ndarray:
    if potential is None:
        return np.zeros(u.grid.shape)
    if np.isscalar(potential):
        return float(potential) * u.values
    v = potential.values if isinstance(potential, Field) else np.asarray(potential)
    if v.shape != u.grid.shape:
        raise GridMismatch(f"potential shape {v.shape} != grid shape {u.grid.shape}")
    return v * u.values


def assemble_total(kin: float, pot: float, bp: float, bq: float,
                   tau: float, exps: ExponentSet) -> float:
    """The one formula everything reuses; bitwise-reproducible assembly."""
    return (0.5 * kin + 0.5 * pot
            - tau * bp / (2.0 * exps.p) - bq / (2.0 * exps.q))


def energy(u: Field, exps: ExponentSet, potential=0.0,
           trunc: Truncation | None = None) -> EnergyBreakdown:
    """Full energy breakdown of the (optionally truncated) functional."""
    kin = kinetic_energy_free(u, exps.s)
    pot = _potential_integral(u, potential)
    bp = hartree_energy(u, exps.p, exps.alpha)
    bq = hartree_energy(u, exps.q, exps.alpha)
    if trunc is None:
        tau = 1.0
    else:
        tau = tau_eval(trunc, math.sqrt(kin + mass(u)))
    total = assemble_total(kin, pot, bp, bq, tau, exps)
    return EnergyBreakdown(kinetic=kin, potential=pot, hartree_p=bp,
                           hartree_q=bq, tau_factor=tau, total=total)


def el_residual(u: Field, lam: float, exps: ExponentSet, potential=0.0) -> Field:
    """Residual of the untruncated Euler-Lagrange equation:

    G = (-Delta)^s u + V u - lam u - (I_a*|u|^p)|u|^{p-2}u - (I_a*|u|^q)|u|^{q-2}u.
    """
    g = (fractional_laplacian_free(u, exps.s).values
         + _potential_times(u, potential)
         - lam * u.values
         - hartree_nonlinearity(u, exps.p, exps.alpha)
         - hartree_nonlinearity(u, exps.q, exps.alpha))
    return Field(u.grid, g)


def lagrange_multiplier(u: Field, exps: ExponentSet, potential=0.0) -> float:
    """lambda = (A + Int V|u|^2 - B_p - B_q) / mass, from testing the
    Euler-Lagrange equation against u itself."""
    m = mass(u)
    if m == 0.0:
        raise ZeroField("multiplier undefined for the zero field")
    kin = kinetic_energy_free(u, exps.s)
    pot = _potential_integral(u, potential)
    bp = hartree_energy(u, exps.p, exps.alpha)
    bq = hartree_energy(u, exps.q, exps.alpha)
    return (kin + pot - bp - bq) / m


def pohozaev(u: Field, exps: ExponentSet) -> float:
    """P(u) = 2s A(u) - (delta_p/p) B_p(u) - (delta_q/q) B_q(u)."""
    kin = kinetic_energy_free(u, exps.s)
    bp = hartree_energy(u, exps.p, exps.alpha)
    bq = hartree_energy(u, exps.q, exps.alpha)
    return (2.0 * exps.s * kin
            - (exps.delta_p / exps.p) * bp
            - (exps.delta_q / exps.q) * bq)


def pohozaev_normalized(u: Field, exps: ExponentSet) -> float:
    """|P(u)| / (2s A(u)): the solver's dimensionless certificate."""
    kin = kinetic_energy_free(u, exps.s)
    if kin == 0.0:
        return 0.0
    return abs(pohozaev(u, exps)) / (2.0 * exps.s * kin)


# ---------------------------------------------------------------------------
# Truncated fiber arithmetic
#
# Along the ray u_t the truncated energy depends on u only through the
# profile (A, B_p, B_q, a), with R(t) = sqrt(t^{2s} A + a):
#     J_T(u_t) = t^{2s}A/2 + mu a/2 - tau(R) t^{dp} B_p/(2p) - t^{dq} B_q/(2q)
# and the exact identity d/dt J_T(u_t) = (t^{2s-1}/2) P_T(u_t) holds with
# the tau' correction multiplying only the critical part.
# ---------------------------------------------------------------------------

def truncated_profile_value(A: float, bp: float, bq: float, a: float, mu: float,
                            exps: ExponentSet, trunc: Truncation, t: float) -> float:
    radius = math.sqrt(t ** (2.0 * exps.s) * A + a)
    tau = tau_eval(trunc, radius)
    return (0.5 * t ** (2.0 * exps.s) * A + 0.5 * mu * a
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


def pohozaev_truncated(u: Field, t: float, exps: ExponentSet,
                       trunc: Truncation) -> float:
    """P_T(u_t) from the profile of u; includes the tau' correction."""
    if t <= 0.0:
        raise OutOfRange(f"t must be positive, got {t}")
    kin = kinetic_energy_free(u, exps.s)
    bp = hartree_energy(u, exps.p, exps.alpha)
    bq = hartree_energy(u, exps.q, exps.alpha)
    return truncated_profile_pohozaev(kin, bp, bq, mass(u), exps, trunc, t)
