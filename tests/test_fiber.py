"""Analytic fibering-map machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqlab.energy import energy
from choqlab.errors import NoPositivePart, OutOfRange, ZeroField
from choqlab.fiber import (FiberProfile, extract_profile, fiber_maximizer,
                           fiber_value, psi, ray_level)
from choqlab.harness import default_config
from choqlab.params import validate_regime
from choqlab.spectral import Field, dilate, mass
from conftest import make_positive_field


def pure_q_maximizer(prof: FiberProfile) -> float:
    """Closed-form root when B_p = 0: t* = (2sqA/(dq Bq))^{1/(dq-2s)}."""
    e = prof.exps
    num = 2.0 * e.s * e.q * prof.A
    den = e.delta_q * prof.B_q
    return (num / den) ** (1.0 / (e.delta_q - 2.0 * e.s))


def pure_p_maximizer(prof: FiberProfile) -> float:
    """Closed-form root when B_q = 0: t* = (2spA/(dp Bp))^{1/(dp-2s)}."""
    e = prof.exps
    num = 2.0 * e.s * e.p * prof.A
    den = e.delta_p * prof.B_p
    return (num / den) ** (1.0 / (e.delta_p - 2.0 * e.s))


def test_extract_profile_deterministic(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    p1 = extract_profile(u, exps)
    p2 = extract_profile(u, exps)
    assert (p1.A, p1.B_p, p1.B_q, p1.a) == (p2.A, p2.B_p, p2.B_q, p2.a)
    assert p1.a == mass(u)
    with pytest.raises(ZeroField):
        extract_profile(Field(grid_unit, np.zeros(grid_unit.shape)), exps)


def test_profile_scaling_equivariance(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    p0 = extract_profile(u, exps)
    t0 = 1.3
    p1 = extract_profile(dilate(u, t0), exps)
    assert p1.A == pytest.approx(t0 ** (2 * exps.s) * p0.A, rel=1e-7)
    assert p1.B_p == pytest.approx(t0 ** exps.delta_p * p0.B_p, rel=1e-7)
    assert p1.B_q == pytest.approx(t0 ** exps.delta_q * p0.B_q, rel=1e-7)
    assert p1.a == pytest.approx(p0.a, rel=1e-9)


def test_fiber_value_matches_energy(grid_unit, rng, exps):
    # a constant potential adds mu a/2 along the whole ray
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    shift = 0.7 * prof.a / 2.0
    assert fiber_value(prof, 1.0) + shift == pytest.approx(
        energy(u, exps, potential=0.7).total, rel=1e-12)
    for t in (0.5, 0.8, 1.25, 2.0):
        assert fiber_value(prof, t) + shift == pytest.approx(
            energy(dilate(u, t), exps, potential=0.7).total, rel=1e-7)


def test_fiber_small_t_limit(grid_unit, rng, exps):
    # phi_0(t) -> 0+ as t -> 0: the kinetic term dominates
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    vals = [fiber_value(prof, t) for t in (1e-3, 1e-4, 1e-5)]
    assert all(v > 0.0 for v in vals)
    assert vals[-1] < vals[0]


def test_psi_positive_limit_and_decreasing(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    assert psi(prof, 1e-8) == pytest.approx(2 * exps.s * prof.A, rel=1e-4)
    ts = np.geomspace(1e-3, 1e3, 100)
    vals = [psi(prof, float(t)) for t in ts]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_psi_matches_pohozaev_sign(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    for t in (0.6, 1.0, 1.6):
        p_val = energy(dilate(u, t), exps).pohozaev
        assert p_val == pytest.approx(t ** (2 * exps.s) * psi(prof, t), rel=1e-7)


@settings(max_examples=100, deadline=None)
@given(A=st.floats(0.05, 20.0), bp=st.floats(0.0, 10.0),
       bq=st.floats(1e-5, 10.0), a=st.floats(0.05, 5.0))
def test_psi_unique_zero_property(A, bp, bq, a):
    exps = validate_regime(1, 0.4, 0.5, 3.0)
    prof = FiberProfile(A=A, B_p=bp, B_q=bq, a=a, exps=exps)
    ts = np.logspace(-6, 6, 1000)
    signs = np.sign([psi(prof, float(t)) for t in ts])
    changes = int(np.sum(np.diff(signs) != 0))
    # strictly decreasing: at most one change; exactly one when the unique
    # root lies inside the scanned window
    in_window = psi(prof, 1e-6) > 0.0 > psi(prof, 1e6)
    assert changes == (1 if in_window else 0)


def test_maximizer_certificate(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    fm = fiber_maximizer(prof)
    # the bisection ends on a bracket narrower than 1e-11 t*
    assert psi(prof, fm.t_star * (1 - 1e-11)) > 0.0
    assert psi(prof, fm.t_star * (1 + 1e-11)) < 0.0
    assert fm.value == pytest.approx(fiber_value(prof, fm.t_star), rel=1e-14)


def test_pure_q_closed_form(exps):
    prof = FiberProfile(A=2.0, B_p=0.0, B_q=0.7, a=1.0, exps=exps)
    fm = fiber_maximizer(prof)
    assert fm.t_star == pytest.approx(pure_q_maximizer(prof), rel=1e-10)


def test_pure_p_closed_form(exps):
    prof = FiberProfile(A=2.0, B_p=0.9, B_q=0.0, a=1.0, exps=exps)
    fm = fiber_maximizer(prof)
    assert fm.t_star == pytest.approx(pure_p_maximizer(prof), rel=1e-10)
    # delta_p - 2s = 2s(p-1) > 0 makes the closed form well defined
    assert exps.delta_p - 2 * exps.s == pytest.approx(
        2 * exps.s * (exps.p - 1), rel=1e-12)


def test_maximizer_scaling_equivariance(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    prof = extract_profile(u, exps)
    fm0 = fiber_maximizer(prof)
    t0 = 1.3
    fm1 = fiber_maximizer(extract_profile(dilate(u, t0), exps))
    assert fm1.t_star == pytest.approx(fm0.t_star / t0, rel=1e-7)
    assert fm1.value == pytest.approx(fm0.value, rel=1e-7)


def test_ray_level_properties(grid_unit, rng, exps):
    u = make_positive_field(grid_unit, rng)
    r0 = ray_level(u, exps, potential=0.0)
    assert r0 >= energy(u, exps, 0.0).total - 1e-12
    assert ray_level(dilate(u, 1.3), exps, 0.0) == pytest.approx(r0, rel=1e-7)
    # R(u) - mu a / 2 is independent of mu
    a = mass(u)
    r_mu = ray_level(u, exps, potential=0.9)
    assert r_mu - 0.9 * a / 2.0 == pytest.approx(r0, rel=1e-12)


def test_ray_level_takes_a_sampled_potential(grid_unit, rng, exps):
    # a constant array is the float mu; a varying V is frozen at u
    u = make_positive_field(grid_unit, rng)
    flat = np.full(grid_unit.shape, 0.9)
    assert ray_level(u, exps, flat) == pytest.approx(ray_level(u, exps, 0.9),
                                                     rel=1e-13)
    v = default_config().potential.sample_on(grid_unit, 0.4)
    frozen = 0.5 * float(np.sum(v * u.values ** 2)) * grid_unit.dx
    expected = fiber_maximizer(extract_profile(u, exps)).value + frozen
    assert ray_level(u, exps, v) == pytest.approx(expected, rel=1e-13)


def test_profile_guards(exps):
    with pytest.raises(ZeroField):
        FiberProfile(A=0.0, B_p=0.1, B_q=0.1, a=1.0, exps=exps)
    with pytest.raises(OutOfRange):
        FiberProfile(A=1.0, B_p=-0.1, B_q=0.1, a=1.0, exps=exps)
    prof = FiberProfile(A=1.0, B_p=0.0, B_q=0.5, a=1.0, exps=exps)
    with pytest.raises(OutOfRange):
        fiber_value(prof, 0.0)
    with pytest.raises(OutOfRange):
        psi(prof, -1.0)


def test_maximizer_needs_a_hartree_term(exps):
    # B_p = B_q = 0: Psi = 2sA > 0 for every t, so there is no ray maximizer
    prof = FiberProfile(A=1.0, B_p=0.0, B_q=0.0, a=1.0, exps=exps)
    with pytest.raises(NoPositivePart, match="never changes sign"):
        fiber_maximizer(prof)
