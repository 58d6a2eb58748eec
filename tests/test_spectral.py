"""Grid/field plumbing and the Fourier-multiplier operators."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import choqlab
from choqlab.energy import _abs_power, _odd_power, hartree_jvp
from choqlab.errors import AliasRisk, NonFinite, OutOfRange, ZeroField
from choqlab.harness import dilate_gaussian_error, passes
from choqlab.params import validate_regime
from choqlab.solver import solve_scalar_ground
from choqlab.spectral import (Field, Grid, band_limit, boundary_decay, dilate,
                              fractional_laplacian, fractional_laplacian_free,
                              kinetic_energy, kinetic_energy_free,
                              mass, project_mass, random_field,
                              riesz_potential, translate)
from choqlab.spectral import (_ASYMP_SWITCH, _ZETA_BLOCKS, _ZETA_NODES,
                              _freespace_multiplier_1d, _hurwitz_zeta,
                              _kinetic_zeta_kernel, _kinetic_zeta_spectrum)
from conftest import make_positive_field, riesz_oracle_1d

S = 0.4
ALPHA = 0.5

# continuum kinetic energy of exp(-x^2/2) at s=0.4:
# Int |k|^{0.8} e^{-k^2} dk = Gamma(0.9), frozen from quadrature
A_GAUSS = 1.068628702119312


def test_grid_validation():
    with pytest.raises(OutOfRange):
        Grid(1, 48.0, 100)        # not a power of two
    with pytest.raises(OutOfRange):
        Grid(1, 48.0, 8)          # too small
    with pytest.raises(OutOfRange):
        Grid(1, -1.0, 64)
    with pytest.raises(OutOfRange):
        Grid(4, 48.0, 64)
    # only the 1D whole-space operators exist: N = 2, 3 are rejected
    with pytest.raises(OutOfRange, match="N must be 1"):
        Grid(2, 10.0, 32)
    with pytest.raises(OutOfRange, match="N must be 1"):
        Grid(3, 10.0, 32)
    g = Grid(1, 10.0, 32)
    assert g.shape == (32,)
    assert g.dx == 10.0 / 32


def test_field_validation(grid_small):
    vals = np.zeros(grid_small.shape)
    vals[3] = np.inf
    with pytest.raises(NonFinite):
        Field(grid_small, vals)
    u = Field(grid_small, np.ones(grid_small.shape))
    with pytest.raises(ValueError):
        u.values[0] = 2.0  # immutable


def test_fractional_laplacian_eigenfunction():
    g = Grid(1, 2 * np.pi, 64)
    x = g.axis()
    k0 = 5.0
    u = Field(g, np.cos(k0 * x))
    out = fractional_laplacian(u, S).values
    assert np.allclose(out, k0 ** (2 * S) * np.cos(k0 * x), atol=1e-12)
    # constant field is annihilated
    c = Field(g, np.full(g.shape, 2.5))
    assert np.max(np.abs(fractional_laplacian(c, S).values)) < 1e-14


def test_fractional_laplacian_s1_matches_spectral_laplacian(grid_small, rng):
    u = make_positive_field(grid_small, rng)
    lap = fractional_laplacian(u, 1.0).values
    k = 2.0 * np.pi * np.fft.fftfreq(grid_small.points, d=grid_small.dx)
    direct = np.fft.ifft(k ** 2 * np.fft.fft(u.values)).real
    assert np.max(np.abs(lap - direct)) < 1e-10 * np.max(np.abs(direct))


def test_kinetic_single_mode():
    g = Grid(1, 2 * np.pi, 64)
    x = g.axis()
    amp, k0 = 1.7, 3.0
    u = Field(g, amp * np.cos(k0 * x))
    # discrete Parseval: mass of cos over the period is pi * amp^2
    assert kinetic_energy(u, S) == pytest.approx(
        k0 ** (2 * S) * np.pi * amp ** 2, rel=1e-12)
    assert kinetic_energy(Field(g, np.zeros(g.shape)), S) == 0.0


def test_kinetic_selfadjoint_pairing(grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    v = make_positive_field(grid_unit, rng)
    dv = grid_unit.dx
    pair_uv = float(np.sum(v.values * fractional_laplacian(u, S).values)) * dv
    pair_vu = float(np.sum(u.values * fractional_laplacian(v, S).values)) * dv
    assert pair_uv == pytest.approx(pair_vu, rel=1e-10)
    quadr = float(np.sum(u.values * fractional_laplacian(u, S).values)) * dv
    assert quadr == pytest.approx(kinetic_energy(u, S), rel=1e-10)


def test_kinetic_free_matches_continuum():
    g = Grid(1, 48.0, 1024)
    x = g.axis()
    u = Field(g, np.exp(-0.5 * x * x))
    assert kinetic_energy_free(u, S) == pytest.approx(A_GAUSS, rel=1e-13)
    # the corrected operator is the exact variational derivative
    pair = float(np.sum(u.values * fractional_laplacian_free(u, S).values)) \
        * g.dx
    assert pair == pytest.approx(kinetic_energy_free(u, S), rel=1e-13)


def test_kinetic_free_scaling_law(grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    a0 = kinetic_energy_free(u, S)
    for t in (0.5, 0.8, 1.25, 2.0):
        at = kinetic_energy_free(dilate(u, t), S)
        assert at == pytest.approx(t ** (2 * S) * a0, rel=1e-8)


def test_riesz_freespace_vs_kernel_quadrature():
    g = Grid(1, 48.0, 1024)
    x = g.axis()
    sigma = 0.8
    rho = Field(g, np.exp(-x ** 2 / (2 * sigma ** 2)))
    pot = riesz_potential(rho, ALPHA).values
    from choqlab.params import riesz_normalization
    a_const = riesz_normalization(1, ALPHA)
    for xi in (-6.0, -1.5, 0.0, 2.2, 9.0):
        i = int(round((xi + 24.0) / g.dx))
        xg = x[i]
        f = lambda y: np.exp(-y ** 2 / (2 * sigma ** 2)) * abs(xg - y) ** (ALPHA - 1)
        ref = a_const * (quad(f, -24, xg, points=[xg], limit=200)[0]
                         + quad(f, xg, 24, points=[xg], limit=200)[0])
        assert pot[i] == pytest.approx(ref, rel=1e-6)


def test_riesz_freespace_vs_discrete_oracle(grid_unit):
    x = grid_unit.axis()
    rho = Field(grid_unit, np.exp(-0.5 * x * x))
    pot = riesz_potential(rho, ALPHA).values
    oracle = riesz_oracle_1d(rho, ALPHA)
    interior = np.abs(x) <= 12.0
    rel = np.abs(pot - oracle)[interior] / np.abs(oracle)[interior]
    assert rel.max() < 1e-4


def test_riesz_multiplier_vs_mpmath_closed_form():
    # A * g_hat(m) with g_hat(m) = 2 Int_0^L x^(alpha-1) cos(pi m x/L) dx
    #   = 2 L^alpha 1F2(alpha/2; 1/2, 1+alpha/2; -(pi m)^2/4) / alpha,
    # checked at every panel count of the Gauss-Legendre tail, on both sides
    # of the quadrature/asymptotic switch and at Nyquist; near-end alphas at
    # the first tail bins, where the fixed-length tail is weakest
    mpmath.mp.dps = 30
    n, L = 1024, 48.0
    ms = (*range(42), 1000, n)
    assert ms[40] == _ASYMP_SWITCH < ms[41]
    edge_ms = (_ASYMP_SWITCH, _ASYMP_SWITCH + 1, _ASYMP_SWITCH + 2, 1000, n)
    for alpha, bins in ((0.3, ms), (0.5, ms), (0.9, ms),
                        (0.05, edge_ms), (0.95, edge_ms)):
        mult = _freespace_multiplier_1d(2 * n, L, alpha)
        a = mpmath.mpf(alpha)
        a_const = mpmath.gamma((1 - a) / 2) / (
            mpmath.sqrt(mpmath.pi) * 2 ** a * mpmath.gamma(a / 2))
        for m in bins:
            ref = (a_const * 2 * mpmath.mpf(L) ** a / a
                   * mpmath.hyp1f2(a / 2, 0.5, 1 + a / 2, -(mpmath.pi * m) ** 2 / 4))
            assert float(abs(mult[m] - ref) / abs(ref)) < 1e-13, (alpha, m)
        assert mult.shape == (n + 1,)          # the rfft half, m = 0..n


def test_kinetic_zeta_kernel_vs_mpmath():
    # c_K L^(-1-2s) [zeta(1+2s, 1-y/L) + zeta(1+2s, 1+y/L)] with
    # c_K = Gamma(1+2s) sin(pi s)/pi, away from the taper (|y| < 0.9 L);
    # on n = 1024 the lags +-(edge-1), +-edge, +-(edge+1) straddle the first
    # interpolation block edge, and on n = 16 every lag is a block's left end
    mpmath.mp.dps = 30
    L = 48.0
    edge = 1024 // _ZETA_BLOCKS
    wide = (0, 1, -1, 7, 100, -450, 500, 900, -921,
            edge - 1, edge, edge + 1, 1 - edge, -edge, -edge - 1)
    cases = [(1024, s, wide) for s in (0.1, 0.25, S, 0.45)]
    cases += [(16, s, (0, 1, -1, 7, -8, 13, -14)) for s in (0.1, 0.45)]
    for n, s, lags in cases:
        kern = _kinetic_zeta_kernel(n, L, s)
        sm = mpmath.mpf(s)
        c_k = (mpmath.gamma(1 + 2 * sm) * mpmath.sin(mpmath.pi * sm) / mpmath.pi
               * mpmath.mpf(L) ** (-1 - 2 * sm))
        for d in lags:
            y = mpmath.mpf(d) * L / n
            assert abs(y) < 0.9 * L
            ref = c_k * (mpmath.zeta(1 + 2 * sm, 1 - y / L)
                         + mpmath.zeta(1 + 2 * sm, 1 + y / L))
            assert float(abs(kern[d % (2 * n)] - ref) / abs(ref)) < 1e-13, (s, d)


def test_hurwitz_zeta_vs_mpmath():
    # the Euler-Maclaurin sum behind the kernel, on the exponents and
    # shifts the kernel takes: sigma = 1+2s, q in [1, 2]
    mpmath.mp.dps = 30
    q = np.array([1.0, 4.0 / 3.0, 1.5, 2.0])
    for sigma in (1.2, 1.8, 2.9):
        got = _hurwitz_zeta(sigma, q)
        for qi, zi in zip(q, got):
            ref = mpmath.zeta(sigma, mpmath.mpf(qi))
            assert float(abs(zi - ref) / ref) <= 1e-15, (sigma, qi)


def test_zeta_kernel_is_even_and_sums_zeta_only_at_the_block_nodes(monkeypatch):
    spectral = importlib.import_module("choqlab.spectral")
    zeta, calls = spectral._hurwitz_zeta, []

    def counted(sigma, q):
        calls.append(np.size(q))
        return zeta(sigma, q)
    monkeypatch.setattr(spectral, "_hurwitz_zeta", counted)
    n = 2 ** 11
    kern = _kinetic_zeta_kernel(n, 48.0, S)
    assert sum(calls) == _ZETA_BLOCKS * _ZETA_NODES + 1
    assert kern.shape == (2 * n,) and kern[n] == 0.0
    j = np.arange(1, n)
    assert np.array_equal(kern[2 * n - j], kern[j])


def _fresh_interpreter(code: str) -> list:
    # pytest's IntegrationWarning filter imports scipy.integrate into this
    # interpreter, so import checks run in a new one
    src = str(Path(choqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout.split()


def test_import_leaves_out_integrate_and_optimize():
    # energies load no scipy module; solver.lgmres is scipy's lgmres before
    # any solve (the benchmark tracer finds it by identity), and a desk
    # solve loads scipy.sparse.linalg
    head = ("import importlib, sys\n"
            "import numpy as np\n"
            "from choqlab import (Grid, kinetic_energy_free, random_field,\n"
            "                     validate_regime)\n"
            "solver = importlib.import_module('choqlab.solver')\n"
            "g = Grid(1, 48.0, 1024)\n"
            "kinetic_energy_free(random_field(g, np.random.default_rng(1)), 0.4)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    binding = ("lgmres = solver.lgmres\n"
               "import scipy.sparse.linalg\n"
               "print(lgmres is scipy.sparse.linalg.lgmres)\n")
    solve = ("res = solver.solve_autonomous(validate_regime(N=1, s=0.4, alpha=0.5, "
             "q=3.0), 0.0, 1.5, g)\n"
             "print(res.newton.steps > 0, 'scipy.sparse.linalg' in sys.modules)\n")
    assert _fresh_interpreter(head + binding) == ["[]", "True"]
    assert _fresh_interpreter(head + solve) == ["[]", "True", "True"]


def test_riesz_parity(grid_unit):
    x = grid_unit.axis()
    rho = Field(grid_unit, np.exp(-x ** 2) * (1 + 0.3 * np.cos(0.7 * x)))
    pot = riesz_potential(rho, ALPHA).values
    flipped = np.roll(pot[::-1], 1)
    assert np.max(np.abs(pot - flipped)) < 1e-12 * np.max(np.abs(pot))


def test_riesz_pairing_positive(grid_unit, rng):
    # the free-space pairing is positive even for signed densities
    for _ in range(3):
        f = random_field(grid_unit, rng)
        pot = riesz_potential(f, ALPHA).values
        pairing = float(np.sum(pot * f.values)) * grid_unit.dx
        assert pairing > 0.0
    with pytest.raises(OutOfRange):
        riesz_potential(f, 1.5)


def test_dilate_identity_and_gaussian(grid_unit):
    x = grid_unit.axis()
    u = Field(grid_unit, np.exp(-0.5 * x * x))
    assert dilate(u, 1.0) is u
    assert passes("dilate_gaussian",
                  dilate_gaussian_error(u, (0.5, 0.8, 1.25, 2.0)))


def test_dilate_mass_preservation(grid_unit, rng):
    u = random_field(grid_unit, rng)
    m0 = mass(u)
    for t in (0.5, 0.8, 1.3, 2.0):
        assert mass(dilate(u, t)) == pytest.approx(m0, rel=1e-8)
    # the resampling chirp keeps unit modulus, so mass holds to 1e-12 on
    # the certificate-scale grid too (a chirp built as a complex power
    # would drift by ~n^2 ulp)
    big = random_field(Grid(1, 3072.0, 2 ** 17), rng)
    for t in (0.8, 1.25):
        assert mass(dilate(big, t)) == pytest.approx(mass(big), rel=1e-12)


def test_dilate_semigroup(grid_unit):
    x = grid_unit.axis()
    u = Field(grid_unit, np.exp(-0.5 * x * x))
    ab = dilate(dilate(u, 1.3), 0.6)
    direct = dilate(u, 0.78)
    assert np.max(np.abs(ab.values - direct.values)) < 1e-7


def test_dilate_alias_guard():
    g = Grid(1, 2 * np.pi, 64)
    x = g.axis()
    u = Field(g, np.cos(20.0 * x))  # high-frequency content
    with pytest.raises(AliasRisk) as err:
        dilate(u, 2.0)
    assert err.value.energy_fraction > 0.5
    with pytest.raises(OutOfRange):
        dilate(u, -1.0)


def test_mass_and_projection(grid_unit, rng):
    u = random_field(grid_unit, rng)
    m = mass(u)
    p = project_mass(u, 2.5)
    assert mass(p) == pytest.approx(2.5, rel=1e-14)
    same = project_mass(u, m)
    assert np.max(np.abs(same.values - u.values)) < 1e-14 * np.max(np.abs(u.values))
    with pytest.raises(ZeroField):
        project_mass(Field(grid_unit, np.zeros(grid_unit.shape)), 1.0)
    # translation invariance of the quadrature
    assert mass(translate(u, 37)) == pytest.approx(m, rel=1e-13)


def test_band_limit_and_boundary_decay(grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    assert boundary_decay(u) < 1e-14
    bl = band_limit(u)
    uh = np.fft.fft(bl.values)
    m_idx = np.abs(np.fft.fftfreq(grid_unit.points) * grid_unit.points)
    top = np.max(np.abs(uh[m_idx >= 0.25 * grid_unit.points]))
    assert top < 1e-12 * np.max(np.abs(uh))  # roundtrip roundoff only


def test_operations_deterministic(grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    a = riesz_potential(u, ALPHA).values
    b = riesz_potential(u, ALPHA).values
    assert np.array_equal(a, b)
    c = dilate(u, 1.3).values
    d = dilate(u, 1.3).values
    assert np.array_equal(c, d)


# complex-FFT references: the full-lattice formulas every operator used
# before it moved to real transforms

def _k_full(g):
    return np.abs(2.0 * np.pi * np.fft.fftfreq(g.points, d=g.dx))


def _fl_ref(u, s):
    return np.fft.ifft(_k_full(u.grid) ** (2.0 * s) * np.fft.fft(u.values)).real


def _ke_ref(u, s):
    uh = np.fft.fft(u.values)
    w = _k_full(u.grid) ** (2.0 * s) * (uh.real ** 2 + uh.imag ** 2)
    return float(np.sum(w)) * u.grid.dx / u.grid.points


def _padded(values):
    up = np.zeros(2 * values.size)
    up[:values.size] = values
    return up


def _riesz_ref(values, g, alpha):
    # mirror the even multiplier's rfft half onto the fft-ordered 2n lattice
    half = _freespace_multiplier_1d(2 * g.points, g.extent, alpha)
    mult = np.concatenate([half, half[-2:0:-1]])
    return np.fft.ifft(np.fft.fft(_padded(values)) * mult).real[:g.points]


def _kef_ref(u, s):
    kern = _kinetic_zeta_kernel(u.grid.points, u.grid.extent, s)
    f = np.fft.fft(_padded(u.values))
    r_auto = np.fft.ifft(f.real ** 2 + f.imag ** 2).real * u.grid.dx
    return _ke_ref(u, s) + float(np.sum(r_auto * kern)) * u.grid.dx


def _flf_ref(u, s):
    n = u.grid.points
    kern = _kinetic_zeta_kernel(n, u.grid.extent, s)
    conv = np.fft.ifft(np.fft.fft(kern) * np.fft.fft(_padded(u.values))).real[:n]
    return _fl_ref(u, s) + u.grid.dx * conv


def _band_ref(u):
    n = u.grid.points
    keep = np.abs(np.fft.fftfreq(n) * n) < 0.25 * n
    return np.fft.ifft(np.where(keep, np.fft.fft(u.values), 0.0)).real


def _jvp_ref(u, v, r, alpha):
    au_r1 = _odd_power(u.values, r - 1.0)
    pot = _riesz_ref(_abs_power(u.values, r), u.grid, alpha)
    inner = _riesz_ref(r * au_r1 * v, u.grid, alpha)
    return inner * au_r1 + pot * (r - 1.0) * _abs_power(u.values, r - 2.0) * v


def _rel(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((256, 1024, 4096)),
       r=st.sampled_from((3.0, 7.5)))
def test_real_transforms_match_complex_references(seed, n, r):
    rng = np.random.default_rng(seed)
    g = Grid(1, 48.0, n)
    u = random_field(g, rng)
    v = random_field(g, rng).values
    for got, ref in (
            (fractional_laplacian(u, S).values, _fl_ref(u, S)),
            (kinetic_energy(u, S), _ke_ref(u, S)),
            (riesz_potential(u, ALPHA).values, _riesz_ref(u.values, g, ALPHA)),
            (kinetic_energy_free(u, S), _kef_ref(u, S)),
            (fractional_laplacian_free(u, S).values, _flf_ref(u, S)),
            (band_limit(u).values, _band_ref(u)),
            (hartree_jvp(u, v, r, ALPHA), _jvp_ref(u, v, r, ALPHA))):
        assert _rel(got, ref) < 1e-13


@pytest.mark.parametrize("n, s", [(2048, S), (2048, 0.1), (4096, 0.45)])
def test_zeta_spectrum_is_the_real_half_of_the_kernel_fft(n, s):
    full = np.fft.fft(_kinetic_zeta_kernel(n, 48.0, s))[:n + 1]
    spec = _kinetic_zeta_spectrum(n, 48.0, s)
    assert spec.shape == (n + 1,)
    assert np.max(np.abs(spec - full.real)) < 1e-14 * np.max(np.abs(full.real))
    # the kernel is real and even, so the imaginary part is rounding
    assert np.max(np.abs(full.imag)) < 1e-15 * np.max(np.abs(full.real))


def test_operators_need_no_complex_transform(monkeypatch):
    exps = validate_regime(1, S, ALPHA, 3.0)
    g = Grid(1, 48.0, 1024)
    u = random_field(g, np.random.default_rng(7))

    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT on real data")
    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    fractional_laplacian(u, S)
    kinetic_energy(u, S)
    riesz_potential(u, ALPHA)
    kinetic_energy_free(u, S)
    fractional_laplacian_free(u, S)
    band_limit(u)
    hartree_jvp(u, u.values, exps.p, ALPHA)
    # Petviashvili, then Newton: neither resamples with dilate
    gs = solve_scalar_ground(exps, Grid(1, 96.0, 1024))
    assert gs.converged and gs.newton.stop == "tolerance"
