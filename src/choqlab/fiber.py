"""Fibering-map machinery along the mass-preserving dilation ray.

For u on the mass sphere and u_t(x) = t^{N/2} u(tx), the autonomous energy
without its potential term reduces to O(1) arithmetic in the profile
(A, B_p, B_q, a):

    phi_0(t) = t^{2s} A/2 - t^{dp} B_p/(2p) - t^{dq} B_q/(2q),
    Psi(t)   = 2 phi_0'(t)/t^{2s-1}
             = 2sA - (dp/p) t^{dp-2s} B_p - (dq/q) t^{dq-2s} B_q.

Psi is strictly decreasing with Psi(0+) = 2sA > 0, so phi_0 has a unique
interior maximizer t*, characterized by P(u_{t*}) = 0 (the Pohozaev set).
A constant potential mu adds mu a/2 along the whole ray, so it moves no
maximizer; a caller that needs J_mu(u_t) adds mu a/2 itself.  The
ray-reduced level R(u) = phi_0(t*) + mu a/2 is the quantity whose infimum
over the sphere is the mountain-pass value.  ray_level also takes a
potential V sampled on the grid: it freezes the potential term at u, so the
ray level is max_t phi_0(t) + (1/2) Int V|u|^2, which for V == mu is R(u).

Given a Truncation, fiber_value and psi evaluate the truncated ray: B_p is
weighted by tau(||u_t||_{H^s}), ||u_t||_{H^s} = sqrt(t^{2s} A + a), and
Psi_T = 2 phi_T'(t)/t^{2s-1} gains a tau' term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ChoqlabError, NoPositivePart, OutOfRange, ZeroField
from .energy import Truncation, energy, tau_eval, tau_prime
from .params import ExponentSet
from .spectral import Field

__all__ = [
    "FiberProfile", "FiberMax",
    "extract_profile", "fiber_value", "psi", "fiber_maximizer", "ray_level",
]

_BRACKET_TOL = 1e-12  # relative bracket width that ends the Psi bisection


@dataclass(frozen=True)
class FiberProfile:
    """Ray coefficients of one field: immutable once extracted."""

    A: float
    B_p: float
    B_q: float
    a: float
    exps: ExponentSet

    def __post_init__(self):
        if self.A <= 0.0 or self.a <= 0.0:
            raise ZeroField("fiber profile requires A > 0 and a > 0")
        if self.B_p < 0.0 or self.B_q < 0.0:
            raise OutOfRange("Hartree coefficients must be nonnegative")


@dataclass(frozen=True)
class FiberMax:
    t_star: float
    value: float


def _profile(ev) -> FiberProfile:
    # FiberProfile rejects the zero field
    return FiberProfile(A=ev.kinetic, B_p=ev.hartree_p, B_q=ev.hartree_q,
                        a=ev.mass, exps=ev.exps)


def extract_profile(u: Field, exps: ExponentSet) -> FiberProfile:
    """Compute (A, B_p, B_q, a) once; fiber evaluations are then O(1)."""
    return _profile(energy(u, exps))


def _tau(prof: FiberProfile, t: float, trunc: Truncation | None):
    """(tau, tau', R) at R = ||u_t||_{H^s} = sqrt(t^{2s} A + a); tau = 1
    without trunc."""
    if t <= 0.0:
        raise OutOfRange(f"t must be positive, got {t}")
    if trunc is None:
        return 1.0, 0.0, None
    radius = math.sqrt(t ** (2.0 * prof.exps.s) * prof.A + prof.a)
    return tau_eval(trunc, radius), tau_prime(trunc, radius), radius


def fiber_value(prof: FiberProfile, t: float,
                trunc: Truncation | None = None) -> float:
    """phi_0(t): the untruncated energy of u_t without the potential term;
    given trunc, the truncated phi_T(t) with B_p weighted by tau."""
    e = prof.exps
    tau = _tau(prof, t, trunc)[0]
    return (0.5 * t ** (2.0 * e.s) * prof.A
            - tau * t ** e.delta_p * prof.B_p / (2.0 * e.p)
            - t ** e.delta_q * prof.B_q / (2.0 * e.q))


def psi(prof: FiberProfile, t: float, trunc: Truncation | None = None) -> float:
    """Psi(t) = 2 phi_0'(t) / t^{2s-1}; strictly decreasing, unique zero.
    Given trunc, Psi_T(t) = 2 phi_T'(t) / t^{2s-1} with its tau' term."""
    e = prof.exps
    tau, taup, radius = _tau(prof, t, trunc)
    bridge = 0.0 if trunc is None else ((e.s * taup / radius) * prof.A
                                        * (t ** e.delta_p / e.p) * prof.B_p)
    return (2.0 * e.s * prof.A
            - (e.delta_p / e.p) * tau * t ** (e.delta_p - 2.0 * e.s) * prof.B_p
            - (e.delta_q / e.q) * t ** (e.delta_q - 2.0 * e.s) * prof.B_q
            - bridge)


def fiber_maximizer(prof: FiberProfile) -> FiberMax:
    """Unique root of Psi by bracketing + bisection.

    Psi(0+) = 2sA > 0 and both Hartree exponents exceed 2s, so doubling the
    upper end from t=1 always produces a sign change.
    """
    if prof.B_p + prof.B_q <= 0.0:
        raise NoPositivePart("Psi never changes sign without a Hartree term")
    lo, hi = 1e-6, 1.0
    if psi(prof, lo) <= 0.0:
        # root below the default bracket: shrink lo (possible for extreme
        # profiles; Psi(0+)>0 guarantees termination)
        while psi(prof, lo) <= 0.0 and lo > 1e-300:
            lo *= 0.5
    for _ in range(2000):
        if psi(prof, hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ChoqlabError("internal error: Psi stayed positive up to huge t")
    while (hi - lo) > _BRACKET_TOL * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if psi(prof, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    return FiberMax(t_star=t_star, value=fiber_value(prof, t_star))


def ray_level(u: Field, exps: ExponentSet, potential=0.0) -> float:
    """max_t phi_0(t) + (1/2) Int V|u|^2: the ray-reduced level minimized by
    the solver, with the potential term frozen at u.  potential is a float
    mu or a sampled V on the grid, as in energy(); for a constant mu the
    frozen term mu a/2 is exact along the ray, so this is R(u)."""
    ev = energy(u, exps, potential)
    return fiber_maximizer(_profile(ev)).value + 0.5 * ev.potential

