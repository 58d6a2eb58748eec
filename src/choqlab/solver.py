"""Constrained solvers for normalized critical points.

The mountain-pass level admits the ray characterization

    b = inf_{u in S(a)} max_{t>0} J(u_t),

and the unique ray maximizer places u on the Pohozaev set P(u) = 0.  The
solver therefore alternates (i) exact fiber rescaling u <- u_{t*} (pure
profile arithmetic plus one spectral dilation) with (ii) mass-projected
gradient descent, backtracking on the ray-reduced level R(u), and finishes
with a matrix-free Newton-Krylov solve of the coupled system

    G(u) - lambda u = 0,   mass(u) = a.

Every energy/gradient evaluation uses the whole-space-consistent operators
(free-space Riesz convolution, zeta-corrected kinetic energy), so the
converged certificates -- Pohozaev residual, multiplier sign, level laws --
reproduce the continuum identities to solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import NoConvergence, OutOfBox, OutOfRange, TruncationActive
from .energy import (_abs_power, _odd_power, energy, hartree_jvp,
                     hartree_nonlinearity, jvp_factors, normalize_potential)
from .fiber import extract_profile, fiber_maximizer, ray_level
from .params import ExponentSet
from .spectral import (Field, band_limit, dilate, edge_shell,
                       fractional_laplacian_free, mass, project_mass,
                       riesz_potential, smooth_cutoff, translate)

__all__ = [
    "SolveConfig", "SolveResult", "GroundState", "SAlphaResult", "NewtonStats",
    "default_init", "solve_scalar_ground", "compute_S_alpha",
    "solve_autonomous", "solve_nonautonomous",
    "make_profile", "level_curves", "x_star_root",
]


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

_STEP = 0.5          # initial descent step
_MAX_ITER = 300      # descent and Petviashvili iterations
_NEWTON_MAX = 60     # Newton steps
_NEWTON_TOL = 1e-10  # relative residual that ends a Newton solve
# Eisenstat-Walker forcing terms (choice 2), the relative tolerance of each
# Newton step's Krylov solve: _ETA_MAX on the first step, then
# eta = _ETA_GAMMA (fn/fn_prev)^2, at least _ETA_GAMMA eta_prev^2 when that
# exceeds 0.1, within [max(_ETA_MIN, 0.5 _NEWTON_TOL/fn), _ETA_MAX].  lgmres
# measures eta against the plain norm of [r, c], while fn weights r by dx and
# the mass row c by 1: the floor fits the stop rule only while c is negligible
_ETA_MAX = 0.5
_ETA_GAMMA = 0.9
_ETA_MIN = 1e-8
# the descent only globalizes the Newton endgame: it hands over at the first
# iteration whose rescaled level lies below the previous one by less than
# _HANDOVER of itself (a level that rises hands over too)
_HANDOVER = 1e-5


@dataclass(frozen=True)
class SolveConfig:
    grad_tol: float = 1e-6     # relative residual ||G - lam u||_2 / ||u||_2
    poho_tol: float = 1e-6     # |P| / (2 s A)

    def __post_init__(self):
        if self.grad_tol <= 0 or self.poho_tol <= 0:
            raise OutOfRange("tolerances must be positive")


@dataclass(frozen=True)
class NewtonStats:
    steps: int             # Newton steps taken (one Krylov solve each)
    backtracks: int        # halvings of the Newton step in the line search
    krylov_failures: int   # Krylov solves that returned info != 0
    stop: str              # "tolerance", "line_search" or "budget"


@dataclass(frozen=True)
class SolveResult:
    field: Field
    lam: float
    level: float
    poho_residual: float
    grad_residual: float
    iterations: int
    converged: bool
    trace: tuple  # rows (phase, iteration, level, grad_residual, poho_residual)
    newton: NewtonStats

    @property
    def mass(self) -> float:
        return mass(self.field)


@dataclass(frozen=True)
class GroundState:
    field: Field
    norm2: float           # L^2 norm ||U||_2 (not squared)
    action: float          # A/2 + mass/2 - B_q/(2q)
    residual: float        # relative residual of the unconstrained equation
    poho_residual: float   # scalar Pohozaev defect, normalized
    iterations: int
    converged: bool
    newton: NewtonStats


@dataclass(frozen=True)
class SAlphaResult:
    value: float           # min of the Rayleigh quotient over the sweep
    eps_grid: tuple
    quotients: tuple
    sensitivity: float     # (max - min) / min over the sweep


def default_init(grid, a: float) -> Field:
    """Gaussian bump of width L/16 at the origin, projected to S(a)."""
    r = grid.radius()
    w = grid.extent / 16.0
    return project_mass(Field(grid, np.exp(-0.5 * (r / w) ** 2)), a)


def _l2(values: np.ndarray, dv: float) -> float:
    return math.sqrt(float(np.sum(values * values)) * dv)


def _dilate_composite(u: Field, t: float, center_cells: int) -> Field:
    """Dilate by t about the carrier cell center_cells, in factors within
    [1/2, 2] to bound per-step aliasing; u itself when |log t| <= 1e-14."""
    if abs(math.log(t)) <= 1e-14:
        return u
    out = translate(u, -center_cells) if center_cells else u
    remaining = t
    while remaining > 2.0:
        out = dilate(out, 2.0)
        remaining /= 2.0
    while remaining < 0.5:
        out = dilate(out, 0.5)
        remaining *= 2.0
    if remaining != 1.0:
        out = dilate(out, remaining)
    return translate(out, center_cells) if center_cells else out


# ---------------------------------------------------------------------------
# Scalar ground state (Petviashvili + Newton)
# ---------------------------------------------------------------------------

def _scalar_system(u: Field, exps: ExponentSet):
    """Residual of (-D)^s U + U - (I_a*|U|^q)|U|^{q-2}U at u, the (absent)
    mass-row value 0.0 and the Jacobian row (v, dlam) -> J v, which holds
    I_a*|u|^q and the powers of u fixed."""
    pot = riesz_potential(Field(u.grid, _abs_power(u.values, exps.q)),
                          exps.alpha).values
    res = (fractional_laplacian_free(u, exps.s).values + u.values
           - pot * _odd_power(u.values, exps.q - 1.0))
    fac = None

    def row(v, dlam):
        nonlocal fac
        if fac is None:  # on the first matvec: a rejected trial needs none
            fac = jvp_factors(u.values, exps.q, pot)
        return (fractional_laplacian_free(Field(u.grid, v), exps.s).values + v
                - hartree_jvp(u, v, exps.q, exps.alpha, fac))
    return res, 0.0, row


def _symmetrize_even(values: np.ndarray) -> np.ndarray:
    """Average with the reflection x -> -x about grid point n/2 (x = 0)."""
    return 0.5 * (values + np.roll(np.flip(values), 1))


def solve_scalar_ground(exps: ExponentSet, grid, config: SolveConfig | None = None,
                        init: Field | None = None) -> GroundState:
    """Positive even ground state of (-D)^s U + U = (I_a * |U|^q)|U|^{q-2} U.

    Petviashvili iteration with stabilizing exponent gamma = d/(d-1) for the
    homogeneity degree d = 2q - 1, then Newton-Krylov on the whole-space-
    consistent equation.  The L^2 norm of U feeds the sharp subcritical
    interpolation constant.
    """
    config = config or SolveConfig()
    if not (exps.p_lower < exps.q < exps.p):
        raise OutOfRange("scalar problem needs q strictly inside (p_lower, p)")
    g = grid
    r = g.radius()
    u = init.values.copy() if init is not None else np.exp(-0.5 * r * r)
    sym = g.k_half() ** (2.0 * exps.s) + 1.0
    gamma_st = (2.0 * exps.q - 1.0) / (2.0 * exps.q - 2.0)
    dv = g.dx
    it = 0
    for it in range(1, _MAX_ITER + 1):
        nonlin = hartree_nonlinearity(Field(g, u), exps.q, exps.alpha)
        # torus inverse of (-D)^s + 1 as the Petviashvili propagator
        lin_u = np.fft.irfft(sym * np.fft.rfft(u), g.points)
        num = float(np.sum(u * lin_u)) * dv
        den = float(np.sum(u * nonlin)) * dv
        if den <= 0.0:
            raise NoConvergence("Petviashvili pairing lost positivity")
        m_fac = num / den
        u_new = np.fft.irfft(np.fft.rfft(nonlin) / sym, g.points) * m_fac ** gamma_st
        u_new = _symmetrize_even(u_new)
        # the torus fixed point is not a free-space solution, so stop on the
        # iteration's own increment; Newton removes the torus defect
        settled = _l2(u_new - u, dv) < 1e-8 * _l2(u_new, dv)
        u = u_new
        if settled:
            break
    fld, newton = _newton(Field(g, u), None,
                          lambda vals, lam: _scalar_system(Field(g, vals), exps),
                          exps.s)
    res_rel = _l2(_scalar_system(fld, exps)[0], dv) / _l2(fld.values, dv)
    ev = energy(fld, exps)
    a_kin, m, bq = ev.kinetic, ev.mass, ev.hartree_q
    # scaling u(x/l) stationarity: (N-2s)/2 A + N/2 M = (N+alpha)/(2q) B_q
    poho = abs(0.5 * (exps.N - 2.0 * exps.s) * a_kin + 0.5 * exps.N * m
               - (exps.N + exps.alpha) / (2.0 * exps.q) * bq)
    poho /= max(0.5 * exps.N * m, 1e-300)
    action = 0.5 * a_kin + 0.5 * m - bq / (2.0 * exps.q)
    return GroundState(field=fld, norm2=math.sqrt(m), action=action,
                       residual=res_rel, poho_residual=poho,
                       iterations=it, converged=res_rel < config.grad_tol,
                       newton=newton)


# ---------------------------------------------------------------------------
# Critical Choquard constant
# ---------------------------------------------------------------------------

def compute_S_alpha(exps: ExponentSet, grid) -> SAlphaResult:
    """Rayleigh quotient A(u)/B_p(u)^{1/p} on the bubble family

        u_eps(x) = (eps/(eps^2+|x|^2))^{(N-2s)/2},

    swept over nine eps from max(4 dx, L/1000) to L/24 (envelope-localized
    to keep the tails in the box) and minimized.  The sweep spread is
    reported as the discretization sensitivity of the constant.
    """
    g = grid
    r = g.radius()
    L = g.extent
    eps_grid = tuple(np.geomspace(max(4.0 * g.dx, 1e-3 * L), L / 24.0, 9))
    envelope = np.exp(-((r / (0.2 * L)) ** 8))
    quotients = []
    for eps in eps_grid:
        prof = (eps / (eps * eps + r * r)) ** (0.5 * (exps.N - 2.0 * exps.s))
        ev = energy(Field(g, prof * envelope), exps)
        quotients.append(ev.kinetic / ev.hartree_p ** (1.0 / exps.p))
    quotients = tuple(quotients)
    value = min(quotients)
    return SAlphaResult(value=value, eps_grid=eps_grid, quotients=quotients,
                        sensitivity=(max(quotients) - value) / value)


# ---------------------------------------------------------------------------
# Newton-Krylov
# ---------------------------------------------------------------------------

def _newton(u: Field, lam: float | None, residual, s: float):
    """Newton-Krylov with backtracking for residual(vals, lam) = 0 from u.

    residual(vals, lam) returns the field residual, the mass-row value and
    the field row (v, dlam) -> J (v, dlam) of the Jacobian at that point;
    the row serves every Krylov matvec of the step taken from it.  With lam
    None there is no lambda unknown and no mass row (the mass-row value is
    then 0.0); otherwise the system is bordered by the row <u, v>.  Krylov
    solves are preconditioned by (|k|^{2s} + 1 + |lam|)^{-1} and inexact:
    their relative tolerance is the Eisenstat-Walker forcing term (choice 2,
    see _ETA_MAX), loose while the residual falls slowly.  Every field step
    dz splits into beta*t along the translation mode t = d_x u,
    beta = <t, dz>/<t, t>, and the rest; a trial of length h translates the
    field by h*beta exactly, then adds h*(dz - beta*t), and is accepted when
    it lowers the residual norm by at least the fraction 1e-4*h.  The
    correction is not shifted with the field: the grid pins the solution (a
    spectral shift of the converged (240, 8192) autonomous seed by 0.1 dx
    raises its residual from 1.2e-11 to 7.8e-4), and moving the correction by
    a fraction of a cell undoes its lattice-scale part.  A step
    that no halving accepts stops the solve, and so do a relative residual
    below _NEWTON_TOL and _NEWTON_MAX steps.
    Returns the field and its NewtonStats.
    """
    g = u.grid
    dv = g.dx
    nn = g.points
    bordered = lam is not None
    size = nn + 1 if bordered else nn
    sym = g.k_half() ** (2.0 * s) + 1.0

    def fnorm(r, c, vals):
        return math.sqrt((float(np.sum(r * r)) * dv + c * c)
                         / max(float(np.sum(vals * vals)) * dv, 1e-300))

    # near a solution the translation mode t = d_x u is a null mode of the
    # Jacobian when the potential is constant, and nearly one when it varies
    # slowly, so steps along it can be long, while the linear translation
    # u - delta*t is only O(delta^2) accurate: the line search rejects such
    # steps unless that part is an exact shift
    k_ax = g.k_half()

    def shift(vals, delta):
        return np.fft.irfft(np.fft.rfft(vals) * np.exp(-1j * k_ax * delta), nn)

    vals = u.values.copy()
    lam_v = lam
    r, c, row = residual(vals, lam_v)
    fn = fnorm(r, c, vals)
    fn_prev, eta = None, _ETA_MAX
    steps = backtracks = failures = 0
    stop = "budget"
    while steps < _NEWTON_MAX:
        steps += 1
        lam_abs = abs(lam_v) if bordered else 0.0
        if fn_prev is not None:
            # a solve loose while the residual falls slowly, tighter as it
            # falls fast, never tighter than the stop rule needs
            guard = _ETA_GAMMA * eta * eta
            eta = _ETA_GAMMA * (fn / fn_prev) ** 2
            if guard > 0.1:
                eta = max(eta, guard)
            eta = max(min(eta, _ETA_MAX), _ETA_MIN, 0.5 * _NEWTON_TOL / fn)

        def jvp(z):
            if not z.any():  # lgmres's zero start vector: the row maps 0 to 0
                return np.zeros(size)
            out = row(z[:nn], z[nn] if bordered else 0.0)
            if not bordered:
                return out
            return np.concatenate([out, [float(np.sum(vals * z[:nn])) * dv]])

        def prec(z):
            out = np.fft.irfft(np.fft.rfft(z[:nn]) / (sym + lam_abs), nn)
            return np.concatenate([out, [z[nn]]]) if bordered else out

        op = LinearOperator((size, size), matvec=jvp)
        pre = LinearOperator((size, size), matvec=prec)
        rhs = -np.concatenate([r, [c]]) if bordered else -r
        dz, info = lgmres(op, rhs, M=pre, rtol=eta, atol=0.0, maxiter=300)
        # a step whose Krylov solve did not converge is still tried
        failures += int(info != 0)
        tvec = np.fft.irfft(1j * k_ax * np.fft.rfft(vals), nn)
        beta = (float(np.sum(tvec * dz[:nn]))
                / max(float(np.sum(tvec * tvec)), 1e-300))
        dz_field = dz[:nn] - beta * tvec
        accepted = False
        step_len = 1.0
        for _ in range(12):
            tv = shift(vals, -step_len * beta) + step_len * dz_field
            tl = lam_v + step_len * dz[nn] if bordered else None
            tr, tc, trow = residual(tv, tl)
            # sufficient decrease: a trial that only rounds fn down fails
            if fnorm(tr, tc, tv) <= (1.0 - 1e-4 * step_len) * fn:
                vals, lam_v, r, c, row = tv, tl, tr, tc, trow
                fn_prev, fn = fn, fnorm(r, c, vals)
                accepted = True
                break
            step_len *= 0.5
            backtracks += 1
        if not accepted:
            stop = "line_search"
            break
        if fn < _NEWTON_TOL:
            stop = "tolerance"
            break
    return Field(g, vals), NewtonStats(steps, backtracks, failures, stop)


# ---------------------------------------------------------------------------
# Autonomous and non-autonomous solves
# ---------------------------------------------------------------------------

def _constrained_system(ev, lam: float, a: float):
    """Residual G(u) - lam u and mass row (mass(u) - a)/2 at the field of ev,
    and the Jacobian row (v, dlam) -> J (v, dlam) of that system, which
    reuses the Hartree potentials ev already holds and computes the powers
    of u once for all of its matvecs."""
    fld, exps, potential = ev.field, ev.exps, ev._v
    vals = fld.values
    fac = None

    def row(v, dlam):
        nonlocal fac
        if fac is None:  # on the first matvec: a rejected trial needs none
            fac = (jvp_factors(vals, exps.p, ev.pot_p),
                   jvp_factors(vals, exps.q, ev.pot_q))
        out = (fractional_laplacian_free(Field(fld.grid, v), exps.s).values
               - lam * v - dlam * vals
               - hartree_jvp(fld, v, exps.p, exps.alpha, fac[0])
               - hartree_jvp(fld, v, exps.q, exps.alpha, fac[1]))
        return out + potential * v
    return ev.gradient - lam * vals, 0.5 * (ev.mass - a), row


def _composite_solve(exps: ExponentSet, potential, a: float, grid,
                     init: Field | None, config: SolveConfig) -> SolveResult:
    """Alternate fiber rescaling and projected descent, then Newton.

    potential is normalized (see normalize_potential): a float mu or
    V(eps x) on the grid as an ndarray.  The potential term stays out of the
    fiber: the rescale dilates about the seed's carrier cell, its peak's
    offset from the grid center, and the line search scores a trial by
    ray_level, with the potential term frozen at the trial.  The descent hands
    over to Newton on the _HANDOVER rule, a failed Armijo search, a
    non-descent direction or after _MAX_ITER iterations.  The truncation
    radius R0 is four times the H^s norm of the first rescaled iterate; a
    converged field whose H^s norm reaches it raises TruncationActive.
    Every descent iterate is band-limited (see band_limit); Newton works on
    the raw field."""
    # a caller's seed may be a raw Newton field: band-limit it like every
    # descent iterate, so that a t <= 2 dilation of it is alias-free
    # (default_init is smooth already)
    init = default_init(grid, a) if init is None else band_limit(init)
    center_cells = int(np.argmax(np.abs(init.values))) - grid.points // 2
    dv = grid.dx
    u = project_mass(init, a)
    trace = []
    eta = _STEP
    prev_level = math.inf
    sym = grid.k_half() ** (2.0 * exps.s) + 1.0
    for it in range(1, _MAX_ITER + 1):
        # (i) rescale onto the Pohozaev set (dilation about the carrier cell)
        fm = fiber_maximizer(extract_profile(u, exps))
        rescaled = _dilate_composite(u, fm.t_star, center_cells)
        if rescaled is not u:
            u = project_mass(band_limit(rescaled), a)
        # (ii) preconditioned projected gradient step, Armijo on the
        # ray-reduced level (the raw step is stiff: |k|^{2s} amplifies
        # high-k noise, so descend in the (|k|^{2s}+1+|lam|)^{-1} metric)
        ev = energy(u, exps, potential)
        if it == 1:  # the truncation radius R0: the solution must stay inside it
            r0 = 4.0 * math.sqrt(ev.kinetic + ev.mass)
        level = ev.total
        trace.append(("descent", it, level, ev.grad_residual, ev.poho_residual))
        if prev_level - level < _HANDOVER * abs(level):
            break
        prev_level = level
        d = ev.gradient - ev.lam * u.values
        dp = np.fft.irfft(np.fft.rfft(d) / (sym + abs(ev.lam)), grid.points)
        dp -= (float(np.sum(dp * u.values)) * dv / a) * u.values
        slope = float(np.sum(d * dp)) * dv  # positive: M^{-1} is SPD
        if slope <= 0.0:
            break
        # preconditioned steps are only linearly stable for eta = O(1);
        # larger eta can lower R while pumping high-k modes geometrically
        eta = min(eta * 1.5, 1.2)
        accepted = False
        while eta >= 1e-14:
            trial = project_mass(Field(grid, u.values - eta * dp), a)
            # u is on the Pohozaev set already: its level is its ray level
            if ray_level(trial, exps, potential) <= level - 1e-4 * eta * slope:
                u = project_mass(band_limit(trial), a)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break  # stalled this close to criticality: Newton finishes
    # Newton endgame on the true coupled system

    def residual(vals, lam):
        return _constrained_system(energy(Field(grid, vals), exps, potential),
                                   lam, a)

    u, newton = _newton(u, energy(u, exps, potential).lam, residual, exps.s)
    u = project_mass(u, a)
    ev = energy(u, exps, potential)
    trace.append(("newton", it + 1, ev.total, ev.grad_residual,
                  ev.poho_residual))
    converged = bool(ev.grad_residual < config.grad_tol
                     and ev.poho_residual < config.poho_tol)
    hs_norm = math.sqrt(ev.kinetic + ev.mass)
    if hs_norm >= r0:
        raise TruncationActive(
            f"converged H^s norm {hs_norm:.4g} reached R0={r0:.4g}")
    return SolveResult(field=u, lam=ev.lam, level=ev.total,
                       poho_residual=ev.poho_residual,
                       grad_residual=ev.grad_residual, iterations=it,
                       converged=converged, trace=tuple(trace),
                       newton=newton)


def solve_autonomous(exps: ExponentSet, mu: float, a: float, grid,
                     init: Field | None = None,
                     config: SolveConfig | None = None) -> SolveResult:
    """Mountain-pass solution of the autonomous problem at mass a.

    The level reported is J_mu(u) = J_0(u) + mu*a/2; the multiplier
    satisfies lam < mu at any nontrivial critical point.
    """
    return _composite_solve(exps, float(mu), a, grid, init,
                            config or SolveConfig())


def solve_nonautonomous(exps: ExponentSet, potential, a: float, grid,
                        init: Field | None = None,
                        config: SolveConfig | None = None) -> SolveResult:
    """Critical point of the non-autonomous functional with V(eps x) on the grid.

    The fiber rescale and the line search's ray level freeze the potential
    term, and the rescale dilates about the carrier cell of init (the cell
    of its peak); the Newton endgame solves the exact system.  A constant
    array is solved as the float mu it holds.
    """
    v = normalize_potential(potential, grid)
    if isinstance(v, np.ndarray) and float(np.ptp(v)) == 0.0:
        v = float(v[0])
    return _composite_solve(exps, v, a, grid, init, config or SolveConfig())


# ---------------------------------------------------------------------------
# Concentration profiles
# ---------------------------------------------------------------------------

def make_profile(w: Field, y: float, eps: float, a: float):
    """Cut the autonomous ground state at radius R_eps = eps^{-1/2},
    translate to the well position y/eps (snapped to the grid), and
    renormalize to S(a).  Returns (field, actual_center_in_slow_coords).
    The support must stay out of the outer 1/16 shell of the box, where
    boundary_decay reads the decay that the free-space operators assume.
    """
    g = w.grid
    if eps <= 0.0:
        raise OutOfRange(f"eps must be positive, got {eps}")
    r_eps = eps ** -0.5
    y = float(y)
    cells = int(np.rint((y / eps) / g.dx))
    shift = cells * g.dx
    inner = 0.5 * g.extent - edge_shell(g) * g.dx
    if abs(shift) + 2.0 * r_eps > inner:
        raise OutOfBox(
            f"profile at y/eps={y / eps} with support radius {2 * r_eps:.3g} "
            f"enters the outer 1/16 shell of the box (|x| > {inner:.3g})")
    chi = smooth_cutoff(g.radius(), r_eps, 2.0 * r_eps)
    cut = Field(g, w.values * chi)
    out = project_mass(translate(cut, cells), a)
    return out, shift * eps


# ---------------------------------------------------------------------------
# Level tables and the kinetic-bound root
# ---------------------------------------------------------------------------

def level_curves(exps: ExponentSet, a_list, mu_list, grid, config: SolveConfig,
                 a0: float):
    """b_{0,T,a} over a_list (warm-started) and the mu-affine law over
    mu_list at mass a0.

    Returns (a_rows, mu_rows): lists of dicts, one per solve; failed cells
    carry converged=False instead of aborting the table.
    """

    def solve_row(a, mu, init=None):
        try:
            res = solve_autonomous(exps, mu, a, grid, init=init, config=config)
        except TruncationActive as exc:
            return None, dict(a=a, mu=mu, level=math.nan, lam=math.nan,
                              poho=math.nan, grad=math.nan, iterations=0,
                              converged=False, error=str(exc))
        return res, dict(a=a, mu=mu, level=res.level, lam=res.lam,
                         poho=res.poho_residual, grad=res.grad_residual,
                         iterations=res.iterations, converged=res.converged)

    a_rows = []
    warm = None
    for a in a_list:
        init = project_mass(warm, a) if warm is not None else None
        res, row = solve_row(a, 0.0, init)
        warm = res.field if res is not None else warm
        a_rows.append(row)
    mu_rows = [solve_row(a0, mu)[1] for mu in mu_list]
    return a_rows, mu_rows


def x_star_root(exps: ExponentSet, s_alpha: float, k_q: float, a: float) -> float:
    """Unique positive root of
        h(X) = S X^{p-1} + K_q S^{-theta_q} a^{q(1-gamma_q)} X^{q gamma_q - 1} - 1,
    located by bisection (h is strictly increasing from -1)."""
    coef = k_q * s_alpha ** (-exps.theta_q) * a ** (exps.q * (1.0 - exps.gamma_q))

    def h(x):
        return (s_alpha * x ** (exps.p - 1.0)
                + coef * x ** (exps.q * exps.gamma_q - 1.0) - 1.0)

    lo, hi = 1e-12, 1.0
    while h(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise OutOfRange("X* root escaped to infinity")
    while h(lo) > 0.0:
        lo *= 0.5
        if lo < 1e-200:
            raise OutOfRange("X* root collapsed to zero")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
