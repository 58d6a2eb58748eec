"""Regime validation and the derived exponent/constant formulas."""

import math

import numpy as np
import pytest

from choqlab.errors import NonPositiveConstant, OutOfRange, RegimeViolation
from choqlab.params import (critical_level, hls_constant, mass_threshold,
                            riesz_normalization, s_alpha_reference,
                            sharp_constant, sobolev_constant, validate_regime)

# high-precision references computed independently (mpmath, 40 digits)
A_1_05 = 0.3989422804014326779399460599343818684759  # = 1/sqrt(2 pi)
A_3_2 = 0.0795774715459476678844418816862571810172   # = 1/(4 pi)
S_ALPHA_DESK = 0.4780012980635398                     # continuum bubble quotient


def test_desk_exponents(exps):
    assert exps.p == pytest.approx(7.5, rel=1e-14)
    assert exps.p_bar == pytest.approx(2.3, rel=1e-14)
    assert exps.p_lower == pytest.approx(1.5, rel=1e-14)
    assert exps.delta_q == pytest.approx(1.5, rel=1e-14)
    assert exps.delta_p == pytest.approx(6.0, rel=1e-14)
    assert exps.gamma_q == pytest.approx(0.625, rel=1e-14)
    assert exps.sigma == pytest.approx(1.5 / 2.6, rel=1e-14)
    assert exps.theta_q == pytest.approx(2 * (1.5 / 2.6) * (7.5 - 1.875) - 7.5,
                                         rel=1e-12)


def test_delta_p_identity(exps):
    # delta_p = 2 s p exactly (the identity behind the critical cancellation)
    assert exps.delta_p == pytest.approx(2.0 * exps.s * exps.p, rel=1e-14)
    assert exps.q * exps.gamma_q > 1.0


def test_regime_rejections():
    with pytest.raises(RegimeViolation, match="q must exceed p_bar"):
        validate_regime(1, 0.4, 0.5, 2.3)  # boundary value rejected
    with pytest.raises(RegimeViolation, match="alpha must exceed N-4s=0.5"):
        validate_regime(1, 0.125, 0.25, 3.0)
    # only N = 1 is solvable: higher dimensions are rejected even where the
    # regime inequalities themselves hold
    with pytest.raises(RegimeViolation, match="N must be 1"):
        validate_regime(2, 0.4, 0.5, 1.8)
    with pytest.raises(RegimeViolation, match="N must be 1"):
        validate_regime(3, 0.9, 2.0, 2.5)
    p_exact = (1 + 0.5) / (1 - 0.8)  # float p, slightly above 7.5
    with pytest.raises(RegimeViolation, match="q must be below p"):
        validate_regime(1, 0.4, 0.5, p_exact)
    with pytest.raises(RegimeViolation, match="s must lie"):
        validate_regime(1, 1.0, 0.5, 3.0)
    with pytest.raises(RegimeViolation, match="alpha must be below N"):
        validate_regime(1, 0.4, 1.0, 3.0)
    with pytest.raises(RegimeViolation, match="positive integer"):
        validate_regime(0, 0.4, 0.5, 3.0)


def test_sharp_constant_unit_norm_factor(exps):
    # ||U||^{2-2t} = 1 at unit norm regardless of t
    c1 = sharp_constant(exps, exps.q, 1.0)
    num = 2 * exps.s * exps.q
    gap = num - exps.N * exps.q + exps.N + exps.alpha
    dq = exps.N * exps.q - exps.N - exps.alpha
    assert c1 == pytest.approx((num / gap) * (gap / dq) ** (dq / (2 * exps.s)),
                               rel=1e-14)
    # ||U||_2 enters with the power 2-2q
    c2 = sharp_constant(exps, exps.q, 2.0)
    assert c2 / c1 == pytest.approx(2.0 ** (2 - 2 * exps.q), rel=1e-13)


def test_sharp_constant_prefactor_limit(exps):
    # t -> p_bar from above: the prefactor 2st/(2st-Nt+N+alpha) stays finite
    t = exps.p_bar * (1 + 1e-9)
    val = sharp_constant(exps, t, 1.0)
    assert math.isfinite(val) and val > 0.0


def test_sharp_constant_range_guard(exps):
    with pytest.raises(OutOfRange):
        sharp_constant(exps, exps.p, 1.0)
    with pytest.raises(OutOfRange):
        sharp_constant(exps, exps.q, 0.0)


def test_mass_threshold_power_law(exps):
    mt1 = mass_threshold(exps, 1.0, 1.0)
    c = 1.7
    mt2 = mass_threshold(exps, c, 1.0)
    expo = exps.theta_q / (exps.q * (1.0 - exps.gamma_q))
    assert mt2.a_max / mt1.a_max == pytest.approx(c ** expo, rel=1e-12)
    # strictly decreasing in K_q
    mt3 = mass_threshold(exps, 1.0, 2.0)
    assert mt3.a_max < mt1.a_max
    assert mt3.k_q == pytest.approx(2.0 * exps.k_q_coeff, rel=1e-14)


def test_mass_threshold_positive_at_desk(exps, c_alpha_q):
    mt = mass_threshold(exps, S_ALPHA_DESK, c_alpha_q)
    assert mt.a_max > 0.0
    assert not mt.near_degenerate
    assert mt.k_q > 0.0


def test_mass_threshold_guards(exps):
    with pytest.raises(NonPositiveConstant):
        mass_threshold(exps, 0.0, 1.0)
    with pytest.raises(NonPositiveConstant):
        mass_threshold(exps, 1.0, -1.0)


def test_near_degenerate_flag():
    # q close to p drives gamma_q -> 1 and the exponent blows up
    exps = validate_regime(1, 0.4, 0.5, 7.499999)
    mt = mass_threshold(exps, 1.0, 1.0)
    assert mt.near_degenerate


def test_riesz_normalization_frozen():
    assert riesz_normalization(1, 0.5) == pytest.approx(A_1_05, rel=1e-14)
    assert riesz_normalization(3, 2.0) == pytest.approx(A_3_2, rel=1e-14)


def test_riesz_normalization_determinism():
    a = riesz_normalization(1, 0.5)
    b = riesz_normalization(1, 0.5)
    assert a == b  # bit-identical


def test_riesz_normalization_divergence_toward_N():
    # Gamma((N-alpha)/2) pole: the normalization diverges as alpha -> N
    vals = [riesz_normalization(1, 1.0 - 10.0 ** -k) for k in (2, 4, 6)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e4
    with pytest.raises(OutOfRange):
        riesz_normalization(1, 1.0)


def test_s_alpha_reference_frozen(exps):
    # cross-validated against continuum quadrature of the bubble quotient
    assert s_alpha_reference(exps) == pytest.approx(S_ALPHA_DESK, rel=1e-12)
    assert hls_constant(1, 0.5) > 0.0
    assert sobolev_constant(1, 0.4) > 0.0


def test_critical_level_is_the_bubble_fiber_maximum(exps):
    # max over t of t^2 A/2 - t^(2p) B_p/(2p) on a field with A = S_alpha,
    # B_p = 1, read off a grid of spacing 5e-6 around t* = S^(1/(2p-2)) ~ 0.945
    c_star = critical_level(exps)
    assert c_star == pytest.approx(0.1848981517181969, rel=1e-14)
    p = exps.p
    t = np.linspace(0.5, 1.5, 200_001)
    ray = t * t * S_ALPHA_DESK / 2.0 - t ** (2.0 * p) / (2.0 * p)
    assert float(ray.max()) == pytest.approx(c_star, rel=1e-9)
