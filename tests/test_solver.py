"""Solver module: scalar ground state, constants, constrained solves."""

import dataclasses
import importlib

import numpy as np
import pytest

from choqlab.energy import energy
from choqlab.errors import OutOfBox, OutOfRange
from choqlab.harness import default_config, detect_M, passes, sharp_tightness
from choqlab.params import mass_threshold, s_alpha_reference
from choqlab import solver
from choqlab.solver import (SolveConfig, compute_S_alpha, make_profile,
                            solve_autonomous, solve_nonautonomous,
                            solve_scalar_ground, x_star_root)
from choqlab.spectral import Field, Grid, band_limit, kinetic_energy_free, mass
from conftest import DESK_MASS, make_positive_field


# ---------------------------------------------------------------------------
# Scalar ground state and constants
# ---------------------------------------------------------------------------

def test_scalar_ground_certificates(scalar_ground):
    gs = scalar_ground
    assert gs.converged and gs.residual < 1e-6
    assert np.all(gs.field.values > -1e-12)          # positive everywhere
    assert gs.field.values[gs.field.grid.points // 2] == np.max(gs.field.values)
    assert gs.poho_residual < 1e-3                    # scaling identity defect
    # Petviashvili stops on its own increment, not on the budget
    assert gs.iterations < solver._MAX_ITER
    assert gs.newton.stop == "tolerance"


def test_scalar_ground_norm_reproducible(exps, scalar_ground):
    # perturbed initialization converges to the same L^2 norm
    g = scalar_ground.field.grid
    x = g.axis()
    bumpy = Field(g, np.exp(-0.4 * x * x) * (1.0 + 0.2 * np.cos(0.9 * x)))
    gs2 = solve_scalar_ground(exps, g, init=bumpy)
    assert gs2.norm2 == pytest.approx(scalar_ground.norm2, rel=1e-5)


def test_compute_s_alpha_sweep(exps):
    g = Grid(1, 60.0, 2048)
    sw = compute_S_alpha(exps, g)
    assert sw.value > 0.0
    assert sw.value == min(sw.quotients)
    # amplitude homogeneity: the quotient ignores overall scaling of u
    x = g.axis()
    prof = (1.0 / (1.0 + x * x)) ** 0.1 * np.exp(-((x / 12.0) ** 8))
    for c in (1.0, 3.7):
        u = Field(g, c * prof)
        quot = (kinetic_energy_free(u, exps.s)
                / energy(u, exps).hartree_p ** (1 / exps.p))
        if c == 1.0:
            base = quot
    assert quot == pytest.approx(base, rel=1e-12)
    # the grid quotient never undercuts the sharp constant
    assert sw.value > s_alpha_reference(exps)


def test_scalar_problems_build_only_their_hartree_term(exps, scalar_ground,
                                                     monkeypatch):
    # the bubble quotient reads B_p and the ground state's report B_q: each
    # field costs one Riesz convolution, not two
    energy_module = importlib.import_module("choqlab.energy")
    calls = []
    original = energy_module.riesz_potential

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(energy_module, "riesz_potential", counted)
    compute_S_alpha(exps, Grid(1, 60.0, 4096))
    assert len(calls) == 9
    calls.clear()
    assert energy(scalar_ground.field, exps).hartree_q > 0.0
    assert len(calls) == 1


def test_sharp_tightness_at_ground_state(exps, scalar_ground, c_alpha_q):
    tight = sharp_tightness(band_limit(scalar_ground.field), exps, c_alpha_q,
                            np.linspace(0.7, 1.3, 13))
    assert passes("sharp_tightness", tight)
    assert tight <= 1 + 1e-3  # never exceeds the sharp constant


# ---------------------------------------------------------------------------
# Autonomous solves
# ---------------------------------------------------------------------------

def test_autonomous_certificates(exps, autonomous_mu0, desk_config):
    res = autonomous_mu0
    assert res.converged
    assert res.grad_residual < desk_config.grad_tol
    assert res.poho_residual < desk_config.poho_tol
    assert res.lam < 0.0                               # lambda < mu = 0
    assert res.mass == pytest.approx(DESK_MASS, rel=1e-12)
    assert np.all(res.field.values > -1e-8)
    assert res.newton.stop == "tolerance"
    assert res.newton.krylov_failures == 0


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_warm_start_from_converged_field(exps, grid_solver, autonomous_mu0,
                                         desk_config, mu):
    # a converged field carries Newton content above half Nyquist; the
    # solve band-limits its seed, so the first rescale does not alias
    res = solve_autonomous(exps, mu, DESK_MASS, grid_solver,
                           init=autonomous_mu0.field, config=desk_config)
    assert res.converged and res.newton.stop == "tolerance"
    assert res.level == pytest.approx(autonomous_mu0.level + mu * DESK_MASS / 2,
                                      rel=1e-8)


def test_solve_config_rejects_bad_settings():
    # the two certificate tolerances are the only settings
    names = [f.name for f in dataclasses.fields(SolveConfig)]
    assert names == ["grad_tol", "poho_tol"]
    for bad in (dict(grad_tol=0.0), dict(poho_tol=-0.1)):
        with pytest.raises(OutOfRange):
            SolveConfig(**bad)


def test_constrained_row_finite_difference(exps, grid_unit, rng):
    # the Newton row against central differences of the residual: zeta
    # term, V, -lambda, both Hartree terms and the dlambda column
    g = grid_unit
    u = make_positive_field(g, rng)
    v = make_positive_field(g, rng).values - 0.5 * u.values
    pot = 0.2 + 0.1 * np.cos(g.axis() / 5.0)
    lam, dlam, a = -0.12, 0.7, mass(u)
    h = 1e-6

    def residual(vals, lam_v):
        return solver._constrained_system(energy(Field(g, vals), exps, pot),
                                          lam_v, a)

    _, _, row = residual(u.values, lam)
    up, cp, _ = residual(u.values + h * v, lam + h * dlam)
    dn, cn, _ = residual(u.values - h * v, lam - h * dlam)
    fd = (up - dn) / (2 * h)
    jv = row(v, dlam)
    assert np.max(np.abs(jv - fd)) < 1e-5 * np.max(np.abs(fd))
    mass_row = float(np.sum(u.values * v)) * g.dx
    assert (cp - cn) / (2 * h) == pytest.approx(mass_row, rel=1e-5)


def test_newton_rows_map_zero_to_zero(exps, grid_unit, rng):
    # _newton answers lgmres's zero start vector with zeros and skips the
    # row: that keeps the bits only if both rows map 0 to exactly 0
    g = grid_unit
    u = make_positive_field(g, rng)
    pot = 0.2 + 0.1 * np.cos(g.axis() / 5.0)
    zero = np.zeros(g.points)
    _, _, row = solver._constrained_system(energy(u, exps, pot), -0.12, mass(u))
    assert not np.any(row(zero, 0.0))
    _, _, row = solver._scalar_system(u, exps)
    assert not np.any(row(zero, 0.0))


def test_newton_budget_stop(exps, grid_unit, desk_config, monkeypatch):
    monkeypatch.setattr(solver, "_NEWTON_MAX", 1)
    res = solve_autonomous(exps, 0.0, DESK_MASS, grid_unit, config=desk_config)
    assert res.newton.stop == "budget"
    assert res.newton.steps == 1


def test_krylov_failure_is_counted(exps, grid_unit, desk_config, monkeypatch):
    # a Krylov solve that reports failure and returns no step: the step is
    # still tried, every halving is rejected and the line search stops
    monkeypatch.setattr(solver, "lgmres",
                        lambda op, b, **kw: (np.zeros_like(b), 1))
    res = solve_autonomous(exps, 0.5, DESK_MASS, grid_unit, config=desk_config)
    assert res.newton.krylov_failures >= 1
    assert res.newton.stop == "line_search"
    assert res.newton.steps == 1 and res.newton.backtracks == 12


def test_krylov_forcing_terms(exps, grid_solver, desk_config, monkeypatch):
    # Eisenstat-Walker: the first Krylov solve is loose, later ones follow
    # the fall of the residual, and none is tighter than 1e-8; the solve
    # still meets the Newton stop rule
    rtols = []
    original = solver.lgmres

    def recorded(op, b, **kw):
        rtols.append(kw["rtol"])
        return original(op, b, **kw)

    monkeypatch.setattr(solver, "lgmres", recorded)
    res = solve_autonomous(exps, 0.0, DESK_MASS, grid_solver, config=desk_config)
    assert rtols[0] == solver._ETA_MAX
    assert all(1e-8 <= t <= solver._ETA_MAX for t in rtols)
    assert len(set(rtols)) > 1
    assert res.newton.stop == "tolerance"
    assert res.grad_residual < 1e-10


def test_descent_trace_monotone(exps, autonomous_mu0):
    # monotone up to the rescale/resample noise of the level; a level that
    # rises ends the descent at once, so only the last row may sit above
    # its predecessor
    levels = [row[2] for row in autonomous_mu0.trace if row[0] == "descent"]
    slack = 1e-8 * (1.0 + abs(levels[0]))
    assert all(levels[i + 1] <= levels[i] + slack for i in range(len(levels) - 1))


def test_descent_hands_over_on_first_small_decrease(autonomous_mu0):
    # every descent row lowers the level by at least _HANDOVER of itself
    # except the last, which is the first to fall short and hands over
    levels = [row[2] for row in autonomous_mu0.trace if row[0] == "descent"]
    drops = [(levels[i] - levels[i + 1]) / abs(levels[i + 1])
             for i in range(len(levels) - 1)]
    assert len(drops) >= 2
    assert all(d >= solver._HANDOVER for d in drops[:-1])
    assert drops[-1] < solver._HANDOVER


def test_descent_hands_over_on_coarse_grid():
    # on the coarse (240, 1024) grid the eps 0.2 cell at y -8 creeps down
    # by ~1e-9 of its level per iteration; the descent hands it to Newton
    # long before the iteration budget
    from choqlab.harness import _solve_cell

    cfg = dataclasses.replace(default_config(), grid=Grid(1, 240.0, 1024))
    auto = solve_autonomous(cfg.exps, 0.0, cfg.a, cfg.grid, config=cfg.solver)
    res = _solve_cell(cfg, auto.field, 0.2, -8.0)
    assert res.iterations < solver._MAX_ITER
    assert res.converged


def test_lattice_pinned_cell_converges_without_crawl():
    # on the default grid the eps 0.1 cell at y -8 sits in a lattice
    # landscape: a spectral shift of the converged seed by 0.1 dx raises its
    # residual from 1.2e-11 to 7.8e-4.  A Newton trial that shifted the field
    # correction together with the base point crawled there, 18 steps with
    # 18 halvings; shifting only the base point takes 12 with 3
    cfg = default_config()
    m_points, _ = detect_M(cfg.potential, cfg.grid, 0.1)
    y = float(min(m_points))
    assert y == pytest.approx(-8.0, abs=0.1)
    auto = solve_autonomous(cfg.exps, 0.0, cfg.a, cfg.grid, config=cfg.solver)
    profile, _ = make_profile(auto.field, y, 0.1, cfg.a)
    res = solve_nonautonomous(cfg.exps, cfg.potential.sample_on(cfg.grid, 0.1),
                              cfg.a, cfg.grid, init=profile, config=cfg.solver)
    assert res.converged and res.newton.stop == "tolerance"
    assert res.newton.steps <= 13
    assert res.newton.backtracks <= 5


def test_mu_shift_exactness(exps, grid_solver, autonomous_mu0, desk_config):
    res_mu = solve_autonomous(exps, 0.5, DESK_MASS, grid_solver,
                              config=desk_config)
    gap = res_mu.level - autonomous_mu0.level
    assert gap == pytest.approx(0.5 * DESK_MASS / 2.0, rel=1e-10)
    assert res_mu.lam == pytest.approx(autonomous_mu0.lam + 0.5, rel=1e-8)
    assert res_mu.lam < 0.5                            # lambda < mu strictly


def test_multiplier_closed_form_tracks_pohozaev(exps, autonomous_mu0):
    # lambda a - (mu a - coeff B_q) equals P(u)/(2s) identically, so the
    # closed-form defect is the Pohozaev defect in disguise
    res = autonomous_mu0
    coeff = ((exps.N + exps.alpha) - (exps.N - 2 * exps.s) * exps.q) \
        / (2 * exps.s * exps.q)
    bq = energy(res.field, exps, 0.0).hartree_q
    lam_cf = (0.0 * DESK_MASS - coeff * bq) / DESK_MASS
    defect = abs(res.lam - lam_cf) * DESK_MASS
    kin = kinetic_energy_free(res.field, exps.s)
    p_val = energy(res.field, exps, 0.0).poho_residual * 2 * exps.s * kin
    assert defect == pytest.approx(p_val / (2 * exps.s), rel=1e-6)


def test_mass_guards(exps, grid_unit):
    with pytest.raises(OutOfRange):
        solve_autonomous(exps, 0.0, -1.0, grid_unit)
    v = default_config().potential.sample_on(grid_unit, 0.4)
    with pytest.raises(OutOfRange):
        solve_nonautonomous(exps, v, -1.0, grid_unit)


def test_warn_above_mass_threshold(exps, c_alpha_q):
    mt = mass_threshold(exps, s_alpha_reference(exps), c_alpha_q)
    assert mt.a_max > DESK_MASS  # the desk mass sits below the threshold


# ---------------------------------------------------------------------------
# Non-autonomous degeneration and profiles
# ---------------------------------------------------------------------------

def test_nonautonomous_constant_matches_autonomous(exps, grid_solver,
                                                   autonomous_mu0, desk_config):
    v = np.full(grid_solver.shape, 0.0)
    res = solve_nonautonomous(exps, v, DESK_MASS, grid_solver,
                              config=desk_config)
    assert res.level == pytest.approx(autonomous_mu0.level, abs=1e-8)
    rel = (np.linalg.norm(res.field.values - autonomous_mu0.field.values)
           / np.linalg.norm(autonomous_mu0.field.values))
    assert rel < 1e-6


def test_make_profile_contract(exps, autonomous_mu0):
    w = autonomous_mu0.field
    for eps, y in ((0.4, 8.0), (0.1, 3.0)):
        prof, center = make_profile(w, y, eps, DESK_MASS)
        assert mass(prof) == pytest.approx(DESK_MASS, rel=1e-13)
        assert center == pytest.approx(y, abs=eps * w.grid.dx)
    with pytest.raises(OutOfBox):
        make_profile(w, 8.0, 0.1, DESK_MASS)  # y/eps = 80 exits this box


def test_sampled_line_search_dilates_no_trial(exps, grid_solver, autonomous_mu0,
                                             desk_config, monkeypatch):
    # the line search freezes V at each trial, so the only dilations are the
    # rescales, at most one per descent iteration
    calls = []
    original = solver.dilate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "dilate", counted)
    prof, _ = make_profile(autonomous_mu0.field, 8.0, 0.4, DESK_MASS)
    v = default_config().potential.sample_on(grid_solver, 0.4)
    res = solve_nonautonomous(exps, v, DESK_MASS, grid_solver, init=prof,
                              config=desk_config)
    assert len(calls) <= res.iterations
    assert res.converged


def test_x_star_root(exps, c_alpha_q):
    s_alpha = s_alpha_reference(exps)
    mt = mass_threshold(exps, s_alpha, c_alpha_q)
    xs = x_star_root(exps, s_alpha, mt.k_q, DESK_MASS)
    assert xs > 0.0
    # root certificate: h crosses zero there
    coef = mt.k_q * s_alpha ** (-exps.theta_q) \
        * DESK_MASS ** (exps.q * (1 - exps.gamma_q))
    h = lambda x: (s_alpha * x ** (exps.p - 1)
                   + coef * x ** (exps.q * exps.gamma_q - 1) - 1.0)
    assert abs(h(xs)) < 1e-10
    assert h(xs * 0.99) < 0.0 < h(xs * 1.01)


def test_kinetic_ridge_diagnostic(exps, autonomous_mu0, c_alpha_q):
    # the converged kinetic energy stays below the ridge root X*(a) (with
    # 5% headroom), reported when the mass is below the threshold
    s_alpha = s_alpha_reference(exps)
    mt = mass_threshold(exps, s_alpha, c_alpha_q)
    if DESK_MASS <= mt.a_max:
        xs = x_star_root(exps, s_alpha, mt.k_q, DESK_MASS)
        kin = kinetic_energy_free(autonomous_mu0.field, exps.s)
        assert kin <= xs * 1.05


def test_level_curves_table(exps, grid_solver, desk_config):
    from choqlab.solver import level_curves
    a_rows, mu_rows = level_curves(exps, [DESK_MASS, 2.0 * DESK_MASS],
                                   [0.0, 0.5], grid_solver, desk_config,
                                   a0=DESK_MASS)
    assert [r["a"] for r in a_rows] == [DESK_MASS, 2.0 * DESK_MASS]
    assert a_rows[1]["level"] <= a_rows[0]["level"] + 1e-6
    assert all(r["converged"] for r in a_rows)
    # mu table at a0: exact affine shift
    gap = mu_rows[1]["level"] - mu_rows[0]["level"]
    assert gap == pytest.approx(0.5 * DESK_MASS / 2.0, rel=1e-8)
    # single-cell table reproduces solve_autonomous
    single, _ = level_curves(exps, [DESK_MASS], [], grid_solver, desk_config,
                             a0=DESK_MASS)
    ref = solve_autonomous(exps, 0.0, DESK_MASS, grid_solver, config=desk_config)
    assert single[0]["level"] == ref.level
