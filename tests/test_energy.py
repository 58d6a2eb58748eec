"""Energy functionals, truncation, Euler-Lagrange pieces, Pohozaev."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqlab.energy import (Truncation, _abs_power, energy, hartree_jvp,
                            jvp_factors, tau_eval, tau_prime,
                            truncated_profile_pohozaev, truncated_profile_value)
from choqlab.errors import OutOfRange, ZeroField
from choqlab.fiber import extract_profile
from choqlab.spectral import (Field, Grid, dilate, kinetic_energy_free, mass,
                              riesz_potential, translate)
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


def test_tau_prime_finite_difference():
    tr = Truncation(1.0, 2.0)
    for r in (1.15, 1.5, 1.85):
        h = 1e-6
        fd = (tau_eval(tr, r + h) - tau_eval(tr, r - h)) / (2 * h)
        assert tau_prime(tr, r) == pytest.approx(fd, rel=1e-6)
    assert tau_prime(tr, 0.5) == 0.0
    assert tau_prime(tr, 2.5) == 0.0


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
    r = math.sqrt(br.kinetic + br.mass)      # the H^s norm
    pieces = (br.kinetic, br.hartree_p, br.hartree_q, br.mass, exps)
    # tau == 1: truncated and untruncated totals agree exactly
    wide = Truncation(2.0 * r, 4.0 * r)
    assert truncated_profile_value(*pieces, wide, 1.0) == br.total
    # tau == 0: no critical Hartree contribution in the total
    tight = Truncation(r / 4.0, r / 2.0)
    assert tau_eval(tight, r) == 0.0
    assert truncated_profile_value(*pieces, tight, 1.0) == pytest.approx(
        0.5 * br.kinetic - br.hartree_q / (2 * exps.q), rel=1e-14)


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
    from choqlab.energy import hartree_nonlinearity
    u = make_positive_field(grid_unit, rng)
    direction = make_positive_field(grid_unit, rng).values * 0.5
    h = 1e-6
    for r in (exps.q, exps.p):
        up = Field(grid_unit, u.values + h * direction)
        dn = Field(grid_unit, u.values - h * direction)
        fd = (hartree_nonlinearity(up, r, exps.alpha)
              - hartree_nonlinearity(dn, r, exps.alpha)) / (2 * h)
        jv = hartree_jvp(u, direction, r, exps.alpha)
        assert np.max(np.abs(jv - fd)) < 1e-5 * np.max(np.abs(fd))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(("p", "q")))
def test_frozen_hartree_jvp_is_bit_identical(exps, seed, which):
    # the potential an Evaluation holds, with the powers of u computed once
    # outside the matvec, gives the array the jvp would compute for itself,
    # bit for bit
    rng = np.random.default_rng(seed)
    grid = Grid(1, 48.0, 512)
    u = make_positive_field(grid, rng)
    v = make_positive_field(grid, rng).values
    ev = energy(u, exps, 0.0)
    r, held = (exps.p, ev.pot_p) if which == "p" else (exps.q, ev.pot_q)
    factors = jvp_factors(u.values, r, held)
    assert np.array_equal(hartree_jvp(u, v, r, exps.alpha, factors),
                          hartree_jvp(u, v, r, exps.alpha))


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
    p_trunc = truncated_profile_pohozaev(ev.kinetic, ev.hartree_p, ev.hartree_q,
                                         ev.mass, exps, wide, 1.0)
    assert p_trunc == pytest.approx(p_plain, rel=1e-12)
    assert p_trunc == pytest.approx(ev.pohozaev, rel=1e-12)
    # tau == 0: the p-terms vanish from P_T
    tight = Truncation(radius1 / 8.0, radius1 / 4.0)
    pt = truncated_profile_pohozaev(prof.A, prof.B_p, prof.B_q, prof.a,
                                    exps, tight, 1.0)
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
        fd = (truncated_profile_value(prof.A, prof.B_p, prof.B_q, prof.a,
                                      exps, trunc, t + h)
              - truncated_profile_value(prof.A, prof.B_p, prof.B_q, prof.a,
                                        exps, trunc, t - h)) / (2 * h)
        formula = 0.5 * t ** (2 * exps.s - 1) * truncated_profile_pohozaev(
            prof.A, prof.B_p, prof.B_q, prof.a, exps, trunc, t)
        assert fd == pytest.approx(formula, rel=1e-6)


def test_pohozaev_normalized(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    ev = energy(u, exps)
    assert ev.poho_residual == pytest.approx(
        abs(ev.pohozaev) / (2 * exps.s * kinetic_energy_free(u, exps.s)), rel=1e-13)
