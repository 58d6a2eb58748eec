"""Energy functionals, truncation, Euler-Lagrange pieces, Pohozaev."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqlab.energy import (Truncation, _abs_power, energy, hartree_jvp,
                            tau_eval, tau_prime)
from choqlab.errors import OutOfRange, ZeroField
from choqlab.fiber import extract_profile, fiber_value, psi
from choqlab.spectral import (Field, Grid, dilate, kinetic_energy_free, mass,
                              riesz_potential, smooth_cutoff, translate)
from conftest import make_positive_field, riesz_oracle_1d

ALPHA = 0.5


def hartree_energy(u: Field, r: float, alpha: float) -> float:
    """B_r(u) = Int (I_alpha * |u|^r) |u|^r at any exponent r, by the
    evaluator's formula (energy() holds it for r = p and q)."""
    rho = _abs_power(u.values, r)
    pot = riesz_potential(Field(u.grid, rho), alpha).values
    return float(np.sum(pot * rho)) * u.grid.dx


def hartree_cross(u: Field, v: Field, r: float, alpha: float) -> float:
    """Mixed term Int (I_alpha * |u|^r) |v|^r of the bilinear Hartree form."""
    pot = riesz_potential(Field(u.grid, _abs_power(u.values, r)), alpha).values
    return float(np.sum(pot * _abs_power(v.values, r))) * u.grid.dx


def test_hartree_zero_field(grid_small, exps):
    z = Field(grid_small, np.zeros(grid_small.shape))
    assert hartree_energy(z, exps.q, ALPHA) == 0.0


def test_hartree_gaussian_vs_double_sum_oracle(exps):
    g = Grid(1, 60.0, 2048)
    x = g.axis()
    u = Field(g, np.exp(-0.5 * x * x))
    b2 = hartree_energy(u, 2.0, ALPHA)
    rho = Field(g, u.values ** 2)
    oracle = float(np.sum(riesz_oracle_1d(rho, ALPHA) * rho.values)) * g.dx
    assert b2 == pytest.approx(oracle, rel=1e-4)
    assert b2 > 0.0


def test_hartree_translation_invariance(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    b = hartree_energy(u, exps.q, ALPHA)
    # shifts that keep the support well inside the box leave B_r unchanged
    b_shift = hartree_energy(translate(u, 40), exps.q, ALPHA)
    assert b_shift == pytest.approx(b, rel=1e-12)


def test_hartree_scaling_law(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    for r, dr in ((exps.q, exps.delta_q), (exps.p, exps.delta_p)):
        b0 = hartree_energy(u, r, exps.alpha)
        for t in (0.8, 1.25):
            bt = hartree_energy(dilate(u, t), r, exps.alpha)
            assert bt == pytest.approx(t ** dr * b0, rel=1e-8)


def test_brezis_lieb_splitting(exps):
    # disjointly supported bumps: B_p(u+v) - B_p(u) - B_p(v) = 2 cross(u, v)
    # exactly, and the cross term decays like d^{alpha - N} with separation
    g = Grid(1, 192.0, 4096)
    x = g.axis()
    bump = lambda c: np.exp(-2.0 * (x - c) ** 2)
    vals = []
    for d in (12.0, 24.0, 48.0):
        u = Field(g, bump(-d / 2))
        v = Field(g, bump(d / 2))
        uv = Field(g, u.values + v.values)
        p = exps.q  # q-Hartree keeps the densities resolved on this grid
        total = hartree_energy(uv, p, exps.alpha)
        split = hartree_energy(u, p, exps.alpha) + hartree_energy(v, p, exps.alpha)
        cross = hartree_cross(u, v, p, exps.alpha)
        assert total - split == pytest.approx(2.0 * cross, rel=1e-10)
        vals.append(total - split)
    assert vals[0] > vals[1] > vals[2] > 0.0
    # kernel decay: halving the distance doubles^{N-alpha} the cross term
    assert vals[0] / vals[1] == pytest.approx(2.0 ** (1 - exps.alpha), rel=0.05)


def test_tau_bridge(exps):
    tr = Truncation(1.0, 2.0)
    assert tau_eval(tr, 0.0) == 1.0
    assert tau_eval(tr, 1.0) == 1.0
    assert tau_eval(tr, 2.0) == 0.0
    assert tau_eval(tr, 5.0) == 0.0
    mid = tau_eval(tr, 1.5)
    assert 0.0 < mid < 1.0
    rs = np.linspace(0.0, 2.5, 500)
    taus = [tau_eval(tr, float(r)) for r in rs]
    assert all(taus[i] >= taus[i + 1] - 1e-15 for i in range(len(taus) - 1))
    with pytest.raises(OutOfRange):
        Truncation(2.0, 1.0)
    with pytest.raises(OutOfRange):
        tau_eval(tr, -0.1)
    # tau is the spectral bridge at one radius
    assert [tau_eval(tr, float(r)) for r in rs] == list(smooth_cutoff(rs, 1.0, 2.0))


def test_tau_prime_finite_difference():
    tr = Truncation(1.0, 2.0)
    for r in (1.15, 1.5, 1.85):
        h = 1e-6
        fd = (tau_eval(tr, r + h) - tau_eval(tr, r - h)) / (2 * h)
        assert tau_prime(tr, r) == pytest.approx(fd, rel=1e-6)
    assert tau_prime(tr, 0.5) == 0.0
    assert tau_prime(tr, 2.5) == 0.0
    # inside (R0, R1) where tau is exactly 1: the inverse square of
    # r - R0 = 1e-200 would overflow
    assert tau_prime(Truncation(1e-200, 1.0), 2e-200) == 0.0


def test_energy_breakdown_reassembly(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    br = energy(u, exps, potential=0.7)
    reassembled = (0.5 * br.kinetic + 0.5 * br.potential
                   - br.hartree_p / (2 * exps.p)
                   - br.hartree_q / (2 * exps.q))
    assert br.total == reassembled  # bitwise formula identity
    assert br.kinetic >= 0.0 and br.hartree_p >= 0.0 and br.hartree_q >= 0.0
    assert br.potential == pytest.approx(0.7 * mass(u), rel=1e-14)


def test_energy_mu_shift(grid_unit, rng, exps):
    # J_mu - J_0 = mu a / 2 for any field on the sphere
    u = make_positive_field(grid_unit, rng)
    a = mass(u)
    for mu in (0.5, 1.0):
        gap = energy(u, exps, potential=mu).total - energy(u, exps, 0.0).total
        assert gap == pytest.approx(mu * a / 2.0, rel=1e-13)


def test_energy_truncation_regions(grid_unit, rng, exps):
    # the truncated fiber value at t = 1 against the evaluator's energy
    u = make_positive_field(grid_unit, rng)
    br = energy(u, exps, 0.0)
    prof = extract_profile(u, exps)
    r = math.sqrt(br.kinetic + br.mass)      # the H^s norm
    # tau == 1: truncated and untruncated totals agree exactly
    wide = Truncation(2.0 * r, 4.0 * r)
    assert fiber_value(prof, 1.0, wide) == br.total
    # tau == 0: no critical Hartree contribution in the total
    tight = Truncation(r / 4.0, r / 2.0)
    assert tau_eval(tight, r) == 0.0
    assert fiber_value(prof, 1.0, tight) == pytest.approx(
        0.5 * br.kinetic - br.hartree_q / (2 * exps.q), rel=1e-14)


@pytest.mark.parametrize("t", (0.7, 1.0, 1.5))
def test_fiber_with_unit_tau_is_untruncated(grid_unit, rng, exps, t):
    # a Truncation that is 1 along the whole probed ray leaves phi and Psi
    # bit for bit as without one: tau multiplies by 1.0, and the tau' term
    # subtracts 0.0
    prof = extract_profile(make_positive_field(grid_unit, rng), exps)
    radius = math.sqrt(t ** (2 * exps.s) * prof.A + prof.a)
    unit = Truncation(10.0 * radius, 20.0 * radius)
    assert tau_eval(unit, radius) == 1.0 and tau_prime(unit, radius) == 0.0
    assert fiber_value(prof, t, unit) == fiber_value(prof, t)
    assert psi(prof, t, unit) == psi(prof, t)


def test_el_residual_basics(grid_unit, rng, exps):
    z = Field(grid_unit, np.zeros(grid_unit.shape))
    assert np.all(energy(z, exps, 0.0).gradient - 0.3 * z.values == 0.0)
    u = make_positive_field(grid_unit, rng)
    # residual of a translate equals the translated residual (V constant);
    # only the outermost cells see the tapered zeta-kernel ring
    r0 = Field(grid_unit, energy(u, exps, 0.4).gradient + 0.2 * u.values)
    ut = translate(u, 25)
    r1 = Field(grid_unit, energy(ut, exps, 0.4).gradient + 0.2 * ut.values)
    diff = np.abs(r1.values - translate(r0, 25).values)
    x = grid_unit.axis()
    scale = np.max(np.abs(r0.values))
    assert diff[np.abs(x) < 0.375 * grid_unit.extent].max() < 1e-11 * scale
    assert diff.max() < 1e-6 * scale


def test_multiplier_identity(grid_unit, rng, exps):
    # <G, u> = A + PV - B_p - B_q: lambda is the EL pairing by construction
    u = make_positive_field(grid_unit, rng)
    ev = energy(u, exps, 0.4)
    pairing = float(np.sum(ev.gradient * u.values)) * grid_unit.dx / mass(u)
    assert ev.lam == pytest.approx(pairing, rel=1e-10)
    with pytest.raises(ZeroField):
        energy(Field(grid_unit, np.zeros(grid_unit.shape)), exps).lam


def test_hartree_jvp_finite_difference(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    direction = make_positive_field(grid_unit, rng).values * 0.5
    h = 1e-6
    for which in ("q", "p"):
        up = Field(grid_unit, u.values + h * direction)
        dn = Field(grid_unit, u.values - h * direction)
        fd = (energy(up, exps).hartree_force(which)
              - energy(dn, exps).hartree_force(which)) / (2 * h)
        r = getattr(exps, which)
        jv = hartree_jvp(u, direction, r, exps.alpha)
        assert np.max(np.abs(jv - fd)) < 1e-5 * np.max(np.abs(fd))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(("p", "q")))
def test_frozen_hartree_jvp_is_bit_identical(exps, seed, which):
    # the Hartree potential and the powers of u an Evaluation holds give the
    # array the 4-argument jvp computes for itself, bit for bit, on the
    # first matvec and on a later one
    rng = np.random.default_rng(seed)
    grid = Grid(1, 48.0, 512)
    u = make_positive_field(grid, rng)
    v = make_positive_field(grid, rng).values
    ev = energy(u, exps, 0.0)
    r = getattr(exps, which)
    for _ in range(2):
        assert np.array_equal(ev.hartree_jvp(which, v),
                              hartree_jvp(u, v, r, exps.alpha))


def test_newton_row_computes_each_odd_power_once(grid_unit, rng, exps,
                                                 monkeypatch):
    # the residual's Hartree forces and the Newton operator share
    # sign(u)|u|^{r-1}: one residual and three matvecs compute it once per
    # Hartree term
    energy_module = importlib.import_module("choqlab.energy")
    solver_module = importlib.import_module("choqlab.solver")
    calls = []
    odd_power = energy_module._odd_power

    def counted(values, r):
        calls.append(r)
        return odd_power(values, r)

    monkeypatch.setattr(energy_module, "_odd_power", counted)
    u = make_positive_field(grid_unit, rng)
    ev = energy(u, exps, 0.2)
    _, _, row = solver_module._constrained_system(ev, ev.lam, mass(u))
    for k in range(3):
        row(make_positive_field(grid_unit, rng).values, 0.1 * k)
    assert sorted(calls) == sorted((exps.p - 1.0, exps.q - 1.0))


def test_kinetic_energy_is_lazy(grid_unit, rng, exps, monkeypatch):
    energy_module = importlib.import_module("choqlab.energy")
    calls = []

    def counted(u, s):
        calls.append(1)
        return kinetic_energy_free(u, s)

    monkeypatch.setattr(energy_module, "kinetic_energy_free", counted)
    u = make_positive_field(grid_unit, rng)
    a_kin = kinetic_energy_free(u, exps.s)
    m = mass(u)
    ev = energy(u, exps, 0.3)
    assert ev.gradient.shape == grid_unit.shape and ev.mass == m
    assert len(calls) == 0
    values = (ev.total, ev.lam, ev.pohozaev, ev.poho_residual)
    assert len(calls) == 1
    bp, bq, pot = ev.hartree_p, ev.hartree_q, ev.potential
    pohozaev = (2.0 * exps.s * a_kin - (exps.delta_p / exps.p) * bp
                - (exps.delta_q / exps.q) * bq)
    eager = (0.5 * a_kin + 0.5 * pot - bp / (2.0 * exps.p) - bq / (2.0 * exps.q),
             (a_kin + pot - bp - bq) / m,
             pohozaev,
             abs(pohozaev) / (2.0 * exps.s * a_kin))
    assert values == eager
    assert ev.kinetic == a_kin
    assert len(calls) == 1


def test_pohozaev_zero_and_sign_change(grid_unit, rng, exps):
    z = Field(grid_unit, np.zeros(grid_unit.shape))
    assert energy(z, exps).pohozaev == 0.0
    u = make_positive_field(grid_unit, rng)
    # P(u_t) = t^{2s} Psi(t) changes sign exactly once from + to -
    signs = [math.copysign(1.0, energy(dilate(u, t), exps).pohozaev)
             for t in np.geomspace(0.25, 4.0, 9)]
    flips = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
    assert len(flips) <= 1
    prof = extract_profile(u, exps)
    from choqlab.fiber import fiber_maximizer
    t_star = fiber_maximizer(prof).t_star
    assert energy(dilate(u, min(t_star * 0.8, 2.0)), exps).pohozaev > 0.0


def test_pohozaev_truncated_regions(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    radius1 = math.sqrt(prof.A + prof.a)
    # tau == 1 along the probed ray: P_T = P (profile arithmetic)
    wide = Truncation(10.0 * radius1, 20.0 * radius1)
    p_plain = prof_pohozaev_ref(prof, exps, 1.0)
    ev = energy(u, exps)
    p_trunc = psi(prof, 1.0, wide)            # P_T(u_1) = Psi_T(1)
    assert p_trunc == pytest.approx(p_plain, rel=1e-12)
    assert p_trunc == pytest.approx(ev.pohozaev, rel=1e-12)
    # tau == 0: the p-terms vanish from P_T
    tight = Truncation(radius1 / 8.0, radius1 / 4.0)
    pt = psi(prof, 1.0, tight)
    expected = (2 * exps.s * prof.A
                - (exps.delta_q / exps.q) * prof.B_q)
    assert pt == pytest.approx(expected, rel=1e-14)


def prof_pohozaev_ref(prof, exps, t):
    return (2 * exps.s * prof.A
            - (exps.delta_p / exps.p) * t ** (exps.delta_p - 2 * exps.s) * prof.B_p
            - (exps.delta_q / exps.q) * t ** (exps.delta_q - 2 * exps.s) * prof.B_q)


def test_truncated_ray_derivative_identity(grid_unit, rng, exps):
    # d/dt J_T(u_t) = (t^{2s-1}/2) P_T(u_t) including the tau' correction
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    radius1 = math.sqrt(prof.A + prof.a)
    trunc = Truncation(0.8 * radius1, 1.3 * radius1)
    for t in (0.7, 1.0, 1.5):
        radius_t = math.sqrt(t ** (2 * exps.s) * prof.A + prof.a)
        assert 0.0 < tau_eval(trunc, radius_t) < 1.0  # bridge genuinely active
        h = 1e-4
        fd = (fiber_value(prof, t + h, trunc)
              - fiber_value(prof, t - h, trunc)) / (2 * h)
        formula = 0.5 * t ** (2 * exps.s - 1) * psi(prof, t, trunc)
        assert fd == pytest.approx(formula, rel=1e-6)


def test_pohozaev_of_sampled_potential_is_the_dilation_derivative(
        grid_unit, rng, exps):
    # with V sampled on the grid, P(u) includes -Int x V'(x)|u|^2, so it is
    # 2 d/dt J(u_t) at t = 1 for the dilation about x = 0.  The double well
    # at eps 1 (wells at +-8, width 2) on (48, 1024), h = 1e-4: the gap
    # read <= 4.6e-5 of 2sA, the np.gradient error of V' (6.7e-5 at
    # h = 1e-5); P without the virial term misses by 0.26-0.55
    from choqlab.harness import default_config

    v = default_config().potential.sample_on(grid_unit, 1.0)
    h = 1e-4
    for _ in range(3):
        u = make_positive_field(grid_unit, rng)
        ev = energy(u, exps, v)
        fd = (energy(dilate(u, 1.0 + h), exps, v).total
              - energy(dilate(u, 1.0 - h), exps, v).total) / h
        assert abs(ev.pohozaev - fd) <= 2e-4 * 2.0 * exps.s * ev.kinetic
    # a constant mu adds no virial term
    assert energy(u, exps, 0.2).pohozaev == energy(u, exps).pohozaev


def test_pohozaev_normalized(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    ev = energy(u, exps)
    assert ev.poho_residual == pytest.approx(
        abs(ev.pohozaev) / (2 * exps.s * kinetic_energy_free(u, exps.s)), rel=1e-13)
