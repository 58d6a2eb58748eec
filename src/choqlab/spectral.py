"""Periodic-grid fields and Fourier-multiplier operators (N = 1 only).

The box [-L/2, L/2) is sampled on n points (n a power of two) and
whole-line quantities are computed for fields that have decayed below
~1e-12 before the boundary.  Three operators live here:

* fractional Laplacian: multiplier |k|^{2s} on the torus wavenumbers
  k = 2*pi*m/L (the zero mode is annihilated);

* Riesz potential I_alpha * rho, evaluated in *free space* by
  zero-padding to a 2L circle and multiplying with the exact Fourier
  coefficients of the truncated kernel A_{1,alpha} |x|^{alpha-1} on
  [-L, L].  For densities supported in the box this reproduces the
  whole-line convolution up to spectral accuracy.

* mass-preserving dilation u_t(x) = t^{1/2} u(t x): the trigonometric
  interpolant is resampled at spacing t*dx by a Bluestein convolution with
  a unit-modulus chirp, which preserves the exact L^2-scaling laws the
  fiber-map machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AliasRisk, GridMismatch, NonFinite, OutOfRange, ZeroField
from .params import riesz_normalization

# glibc serves blocks above its mmap threshold (128 KB at start-up) by mmap
# and unmaps them on free, so each call faults its temporaries in afresh.
# Freeing one mmapped block raises the threshold to that block's size (see
# mallopt(3)), so temporaries up to 16 MB are reused from the heap.  This
# serves the 1-8 MB ones at n=2^17..2^19 (riesz_potential faults ~2,000
# pages per call at 2^17 without it, none with it); the 64-128 KB ones at
# n=2^13 fault no pages either way.
_threshold_block = np.empty(1 << 21)   # 16 MB, never touched
del _threshold_block

__all__ = [
    "Grid", "Field",
    "fractional_laplacian", "kinetic_energy",
    "fractional_laplacian_free", "kinetic_energy_free", "half_sum",
    "riesz_potential", "dilate", "translate",
    "mass", "project_mass", "random_field", "boundary_decay", "edge_shell",
    "smooth_cutoff",
    "band_limit",
]


# ---------------------------------------------------------------------------
# Grid and Field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2) with n samples.

    N is kept in the signature but must be 1: the free-space Riesz
    coefficients and the zeta kinetic correction exist only in 1D.
    """

    N: int
    extent: float
    points: int

    def __post_init__(self):
        if self.N != 1:
            raise OutOfRange(f"dimension N={self.N} is not supported (N must be 1)")
        if self.extent <= 0.0:
            raise OutOfRange(f"extent must be positive, got {self.extent}")
        n = self.points
        if n < 16 or (n & (n - 1)) != 0:
            raise OutOfRange(f"points must be a power of two >= 16, got {n}")

    @property
    def dx(self) -> float:
        return self.extent / self.points

    @property
    def shape(self) -> tuple:
        return (self.points,)

    def axis(self) -> np.ndarray:
        """Sample coordinates -L/2 + j*dx."""
        return -0.5 * self.extent + self.dx * np.arange(self.points)

    def radius(self) -> np.ndarray:
        """|x| on the grid."""
        return np.abs(self.axis())

    def k_half(self) -> np.ndarray:
        """|k| = 2 pi m / L on the rfft half lattice m = 0..n/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.points, d=self.dx)


class Field:
    """Real field sampled on a Grid; immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise GridMismatch(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFinite("field contains NaN or Inf")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __eq__(self, other):
        return (isinstance(other, Field) and self.grid == other.grid
                and np.array_equal(self.values, other.values))


# ---------------------------------------------------------------------------
# Mass and projection
# ---------------------------------------------------------------------------

def mass(u: Field) -> float:
    """Quadrature of |u|^2 over the box."""
    return float(np.sum(u.values * u.values)) * u.grid.dx


def project_mass(u: Field, a: float) -> Field:
    """Rescale amplitude so the squared L^2 norm is exactly a."""
    if a <= 0.0:
        raise OutOfRange(f"target mass must be positive, got {a}")
    m = mass(u)
    if m == 0.0:
        raise ZeroField("cannot project the zero field onto a mass sphere")
    return Field(u.grid, u.values * math.sqrt(a / m))


def translate(u: Field, cells: int) -> Field:
    """Shift by an integer number of grid cells (exact, periodic)."""
    return Field(u.grid, np.roll(u.values, int(cells)))


# ---------------------------------------------------------------------------
# Fractional Laplacian and kinetic energy
# ---------------------------------------------------------------------------

def half_sum(w: np.ndarray) -> float:
    """Whole-lattice sum of an even spectrum held on its rfft half: bins
    between 0 and Nyquist count twice (weights 1, 2, ..., 2, 1)."""
    return 2.0 * float(np.sum(w)) - float(w[0]) - float(w[-1])


def fractional_laplacian(u: Field, s: float) -> Field:
    """(-Delta)^s u via the torus multiplier |k|^{2s}; zero mode -> 0."""
    if not (0.0 < s <= 1.0):
        raise OutOfRange(f"s={s} outside (0, 1]")
    symbol = u.grid.k_half() ** (2.0 * s)
    return Field(u.grid, np.fft.irfft(symbol * np.fft.rfft(u.values), u.grid.points))


def kinetic_energy(u: Field, s: float) -> float:
    """A(u) = sum |k|^{2s} |u_hat(k)|^2 with the discrete Parseval weight,
    matching the quadrature of u * (-Delta)^s u."""
    if not (0.0 < s <= 1.0):
        raise OutOfRange(f"s={s} outside (0, 1]")
    uh = np.fft.rfft(u.values)
    symbol = u.grid.k_half() ** (2.0 * s)
    return half_sum(symbol * (uh.real ** 2 + uh.imag ** 2)) * u.grid.dx / u.grid.points


# ---------------------------------------------------------------------------
# Whole-space kinetic energy
#
# The Parseval lattice sum S = sum_m |k_m|^{2s} |u_hat(k_m)|^2 / L is a
# trapezoid rule whose only non-superalgebraic error comes from the cusp of
# |k|^{2s} at k = 0.  Poisson summation gives the defect exactly: with
# R(y) = Int u(z) u(z+y) dz the autocorrelation (supported in the box for
# decayed fields) and F[|k|^{2s}](y) = -2 Gamma(1+2s) sin(pi s) |y|^{-1-2s},
#
#   S - A_true = -(Gamma(1+2s) sin(pi s)/pi) L^{-1-2s}
#                * Int R(y) [zeta(1+2s, 1-y/L) + zeta(1+2s, 1+y/L)] dy,
#
# a smooth Hurwitz-zeta functional of R, computable to machine precision.
# The kernel is even in y, so it is built on the lags 0..n alone: one
# zeta(1+2s, 1+y/L) per lag, the 1-y/L term by the recurrence
# zeta(s, q) = zeta(s, q+1) + q^{-s}, then mirrored onto the 2n padded lags.
# Adding it back makes the kinetic energy follow the continuum t^{2s}
# dilation law to ~1e-10, which the fiber-map machinery requires.
#
# zeta(sigma, q) for q in [1, 2] is summed here (_hurwitz_zeta), by
# Euler-Maclaurin: _ZETA_DIRECT terms (q+k)^{-sigma} directly, then the tail
# at a = q + _ZETA_DIRECT,
#   a^{1-sigma}/(sigma-1) + a^{-sigma}/2
#     + sum_{j=1..8} B_2j/(2j)! sigma(sigma+1)...(sigma+2j-2) a^{-sigma-2j+1}.
# With a >= 10 and sigma <= 3 the first term left out is below 1e-17 of
# zeta, so the sum is exact to rounding (within 5.8e-16 of mpmath at 300
# lags of n = 2^19 for s = 0.1, 0.4, 0.7, 0.95), and it takes ~0.1 s at
# n = 2^19 without loading scipy.special.
# ---------------------------------------------------------------------------

_ZETA_DIRECT = 9
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730,
                   7 / 6, -3617 / 510)          # B_2, B_4, ..., B_16


def _hurwitz_zeta(sigma: float, q: np.ndarray) -> np.ndarray:
    """zeta(sigma, q) = sum_k (q+k)^{-sigma} for sigma > 1 and q >= 1, by
    the Euler-Maclaurin sum above, smallest terms first."""
    # B_2j/(2j)! sigma(sigma+1)...(sigma+2j-2), j = 1..8
    coef, c = [], sigma / 2.0
    for j, b in enumerate(_BERNOULLI_EVEN, start=1):
        coef.append(b * c)
        c *= (sigma + 2 * j - 1) * (sigma + 2 * j) / ((2 * j + 1) * (2 * j + 2))
    a = q + _ZETA_DIRECT
    a_pow = a ** -sigma
    x = 1.0 / (a * a)
    series = coef[-1]
    for cj in reversed(coef[:-1]):      # Horner in a^{-2}
        series = series * x + cj
    total = a_pow / a * series + 0.5 * a_pow + a_pow * a / (sigma - 1.0)
    for k in range(_ZETA_DIRECT - 1, -1, -1):
        total += (q + k) ** -sigma
    return total


def _kinetic_zeta_kernel(n: int, L: float, s: float) -> np.ndarray:
    """c_K * L^{-1-2s} [zeta(1+2s,1-y/L)+zeta(1+2s,1+y/L)] on padded lags."""
    sigma = 1.0 + 2.0 * s
    j = np.arange(n + 1)
    zp = _hurwitz_zeta(sigma, 1.0 + j / n)
    # zeta(sigma, 1 - j/n) = zeta(sigma, 2 - j/n) + (1 - j/n)^-sigma, and
    # 2 - j/n is the 1 + j/n of lag n - j
    half = np.zeros(n + 1)                       # lag n (y = L) stays 0
    half[:n] = zp[:n] + zp[n:0:-1] + (1.0 - j[:n] / n) ** -sigma
    c_k = math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s) / math.pi
    half *= c_k * L ** (-1.0 - 2.0 * s)
    # the zeta kernel diverges at lag +-L; autocorrelations of fields decayed
    # by the quarter box vanish there anyway, and tapering keeps the endpoint
    # singularity from ringing into the padded window of the operator form
    half *= smooth_cutoff(j * (L / n), 0.9 * L, 0.99 * L)
    # even in the lag: mirror lags 0..n onto the fft order 0..n, -(n-1)..-1
    return np.concatenate([half, half[n - 1:0:-1]])


@lru_cache(maxsize=32)
def _kinetic_zeta_spectrum(n: int, L: float, s: float) -> np.ndarray:
    """rfft of the zeta kernel (n+1 values), its real part copied so that the
    complex transform is freed.  The kernel is real and even in the lag, so
    its spectrum is real; the imaginary part dropped is rounding."""
    out = np.fft.rfft(_kinetic_zeta_kernel(n, L, s)).real.copy()
    out.setflags(write=False)
    return out


def kinetic_energy_free(u: Field, s: float) -> float:
    """Whole-space A(u): Parseval sum plus the zeta cusp correction, the
    padded autocorrelation paired with the kernel by Parseval on the 2n circle."""
    n, dx = u.grid.points, u.grid.dx
    f = np.fft.rfft(u.values, 2 * n)
    spec = _kinetic_zeta_spectrum(n, u.grid.extent, s)
    corr = half_sum(spec * (f.real ** 2 + f.imag ** 2)) * dx * dx / (2 * n)
    return kinetic_energy(u, s) + corr


def fractional_laplacian_free(u: Field, s: float) -> Field:
    """Variational derivative of kinetic_energy_free/2: the torus operator
    plus the smooth convolution with the zeta kernel."""
    n = u.grid.points
    spec = _kinetic_zeta_spectrum(n, u.grid.extent, s)
    conv = np.fft.irfft(spec * np.fft.rfft(u.values, 2 * n), 2 * n)[:n]
    return Field(u.grid, fractional_laplacian(u, s).values + u.grid.dx * conv)


# ---------------------------------------------------------------------------
# Free-space Riesz kernel coefficients
#
# The multiplier on the padded 2L circle is A_{1,alpha} * g_hat(m) with
#   g_hat(m) = 2 * Integral_0^L x^{alpha-1} cos(pi m x / L) dx
#            = 2 L^alpha (1-alpha) (pi m)^{-alpha} W(pi m),   m >= 1,
#   g_hat(0) = 2 L^alpha / alpha,
# where W(w) = Integral_0^w v^{alpha-2} sin v dv.  For m <= _ASYMP_SWITCH,
# W is a series on [0,1] plus Gauss-Legendre panels on [1,pi] and on each
# [pi*k, pi*(k+1)]; beyond, the integration-by-parts asymptotic expansion
# at the special points w = pi*m (where sin w = 0).
# As m -> infinity, A * g_hat(m) -> |k_m|^{-alpha}: the continuum symbol.
# ---------------------------------------------------------------------------

_ASYMP_SWITCH = 40
_GL_NODES = 20


def _sine_moments_small(alpha: float, m_max: int) -> np.ndarray:
    """W(pi*m) for m = 1..m_max: series on [0,1], then Gauss-Legendre on
    [1,pi] and on each panel [pi*k, pi*(k+1)], summed cumulatively."""
    # series part: Integral_0^1 v^{alpha-2} sin v dv
    acc, term_j, j = 0.0, 0.0, 0
    fact = 1.0  # (2j+1)!
    while True:
        term_j = (-1.0) ** j / (fact * (alpha + 2.0 * j))
        acc += term_j
        if abs(term_j) < 1e-18 * abs(acc):
            break
        j += 1
        fact *= (2.0 * j) * (2.0 * j + 1.0)
    # the integrand is analytic but at v = 0, which lies 1.93 half-widths
    # from the centre of [1,pi] and at least 3 from that of every later
    # panel, so the _GL_NODES-point rule errs by ~3.6^(-2*_GL_NODES) at most
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = np.concatenate(([1.0], np.pi * np.arange(1, m_max + 1)))
    half_w = 0.5 * np.diff(edges)[:, None]
    v = edges[:-1, None] + half_w * (nodes + 1.0)
    panels = (half_w * (v ** (alpha - 2.0) * np.sin(v))) @ weights
    return acc + np.cumsum(panels)


def _sine_moment_tail_at_pi_m(m: np.ndarray, alpha: float) -> np.ndarray:
    """T(pi*m) = Integral_{pi m}^inf v^{alpha-2} sin v dv by the alternating
    integration-by-parts expansion (sin(pi m) = 0 collapses odd terms)."""
    beta = alpha - 2.0
    omega = np.pi * m.astype(np.float64)
    total = np.zeros_like(omega)
    coeff = 1.0
    power = omega ** beta
    prev_mag = np.full_like(omega, np.inf)
    for j in range(40):
        term = coeff * power
        mag = np.abs(term)
        # asymptotic series: stop before terms start growing
        grow = mag > prev_mag
        term = np.where(grow, 0.0, term)
        total += (-1.0) ** j * term
        if np.all(mag < 1e-18) or np.all(grow):
            break
        prev_mag = np.where(grow, prev_mag, mag)
        coeff *= (beta - 2.0 * j) * (beta - 2.0 * j - 1.0)
        power = power / omega ** 2
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    return sign * total


@lru_cache(maxsize=32)
def _freespace_multiplier_1d(n_pad: int, L: float, alpha: float) -> np.ndarray:
    """A_{1,alpha} * g_hat(m), m = 0..n_pad/2: the rfft half of the lattice."""
    a_const = riesz_normalization(1, alpha)
    half = n_pad // 2
    ghat = np.empty(half + 1)
    ghat[0] = 2.0 * L ** alpha / alpha
    m_small = np.arange(1, min(_ASYMP_SWITCH, half) + 1)
    ghat[m_small] = (2.0 * L ** alpha * (1.0 - alpha) * (np.pi * m_small) ** (-alpha)
                     * _sine_moments_small(alpha, m_small.size))
    if half > _ASYMP_SWITCH:
        m_big = np.arange(_ASYMP_SWITCH + 1, half + 1)
        g_inf = math.gamma(alpha - 1.0) * math.sin(math.pi * (alpha - 1.0) / 2.0)
        w_big = g_inf - _sine_moment_tail_at_pi_m(m_big, alpha)
        ghat[m_big] = (2.0 * L ** alpha * (1.0 - alpha)
                       * (np.pi * m_big) ** (-alpha) * w_big)
    out = a_const * ghat
    out.setflags(write=False)
    return out


def riesz_potential(rho: Field, alpha: float) -> Field:
    """I_alpha * rho with the A_{1,alpha} normalization folded in: exact
    whole-line convolution of the box-supported interpolant via kernel
    truncation on a zero-padded circle."""
    grid = rho.grid
    if not (0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha={alpha} outside (0, 1)")
    n = grid.points
    mult = _freespace_multiplier_1d(2 * n, grid.extent, alpha)
    pot = np.fft.irfft(np.fft.rfft(rho.values, 2 * n) * mult, 2 * n)[:n]
    return Field(grid, pot)


# ---------------------------------------------------------------------------
# Mass-preserving dilation
# ---------------------------------------------------------------------------

def _dilate_resample(uh: np.ndarray, t: float, n: int) -> np.ndarray:
    """Resample at t*x_j the trig interpolant whose fft is uh (complex out)."""
    u_s = np.fft.fftshift(uh)
    m = np.arange(n) - n // 2
    # node offset phase: x_0 = -L/2 gives exp(-i pi m (t-1))
    phase_in = np.exp(-1j * np.pi * m * (t - 1.0))
    nyq = u_s[0]                                  # coefficient at m = -n/2
    u_s = u_s * phase_in
    u_s[0] = 0.0
    # raw_l = sum_j u_s[j] exp(2 pi i t j l / n) as a Bluestein convolution
    # (jl = (j^2 + l^2 - (l-j)^2)/2) on the 2n circle; the chirp is built by
    # exp of an imaginary phase, so it keeps unit modulus at every n
    el = np.arange(n)
    chirp = np.exp(1j * np.pi * t * el * el / n)
    kern = np.zeros(2 * n, dtype=np.complex128)
    kern[:n] = chirp.conj()
    kern[n + 1:] = chirp[:0:-1].conj()
    raw = chirp * np.fft.ifft(np.fft.fft(u_s * chirp, 2 * n) * np.fft.fft(kern))[:n]
    out = raw * np.exp(-1j * np.pi * t * el) / n
    # real-field Nyquist treatment: split coefficient into +-n/2 halves
    x_rel = t * (el - n // 2) + n // 2            # (t*x_l - x_0)/dx
    return out + nyq * np.cos(np.pi * x_rel) / n


# largest share of the spectral energy a dilation may push past Nyquist
ALIAS_TOL = 1e-9


def dilate(u: Field, t: float) -> Field:
    """Spectral interpolation of t^{1/2} u(t x) onto the same grid.

    Raises AliasRisk when more than ALIAS_TOL of the spectral energy would
    be pushed past Nyquist (t > 1); content at scaled-down frequencies is
    always representable (t < 1), but the field must have decayed before
    the boundary for the widened support to stay in the box.
    """
    if t <= 0.0:
        raise OutOfRange(f"dilation factor must be positive, got {t}")
    if t == 1.0:
        return u
    n = u.grid.points
    uh = np.fft.fft(u.values)
    if t > 1.0:
        mask = np.abs(np.fft.fftfreq(n) * n) >= n / (2.0 * t)
        power = uh.real ** 2 + uh.imag ** 2
        total = float(np.sum(power))
        if total > 0.0:
            frac = float(np.sum(power[mask])) / total
            if frac > ALIAS_TOL:
                raise AliasRisk(t, frac)
    vals = _dilate_resample(uh, t, n)
    # t ** 0.5, not math.sqrt(t): the two differ in the last bit for some t
    out = vals.real * t ** 0.5
    if t > 1.0:
        # sample points with |t x| >= L/2 land outside the box, where the
        # field is decayed by precondition: evaluate the continuation as 0
        # instead of letting the periodic interpolant wrap the center back
        # in.  The roll-off is smooth so that slowly decaying tails are not
        # cut with a jump (which would splatter noise across the spectrum).
        half = 0.5 * u.grid.extent
        out = out * smooth_cutoff(u.grid.radius(), 0.9 * half / t, half / t)
    return Field(u.grid, out)


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------

def smooth_cutoff(r: np.ndarray, R0: float, R1: float) -> np.ndarray:
    """Vectorized bridge: exactly 1 for r <= R0, exactly 0 for r >= R1 and
    f(R1 - r) / (f(R1 - r) + f(r - R0)) between, f(x) = exp(-1/x) for
    x > 1e-3 and 0 otherwise.  energy.tau_eval is this bridge at one radius."""
    if not (0.0 < R0 < R1):
        raise OutOfRange(f"need 0 < R0 < R1, got {R0}, {R1}")
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= R1] = 0.0
    mid = (r > R0) & (r < R1)
    if np.any(mid):
        x_up = R1 - r[mid]
        x_dn = r[mid] - R0
        with np.errstate(over="ignore", under="ignore"):
            up = np.where(x_up > 1e-3, np.exp(-1.0 / np.maximum(x_up, 1e-300)), 0.0)
            dn = np.where(x_dn > 1e-3, np.exp(-1.0 / np.maximum(x_dn, 1e-300)), 0.0)
        tot = up + dn
        vals = np.where(tot > 0.0, up / np.where(tot > 0.0, tot, 1.0),
                        (x_dn < x_up).astype(float))
        out[mid] = vals
    return out


def band_limit(u: Field) -> Field:
    """Zero spectral content at and above n/4 (half Nyquist).

    A resolved field keeps its |u|^p density below Nyquist, which caps its
    meaningful content near a quarter of the band; what lies above half
    Nyquist is taper and kink noise that would accumulate over a chain of
    dilations, and without it every t <= 2 dilation is alias-free.  The
    solver's descent filters every iterate this way, and the sharp-tightness
    check filters a solver output before dilating it.
    """
    n = u.grid.points
    uh = np.fft.rfft(u.values)
    uh[np.arange(n // 2 + 1) >= 0.25 * n] = 0.0
    return Field(u.grid, np.fft.irfft(uh, n))


def edge_shell(grid: Grid) -> int:
    """Width in cells of the outer 1/16 shell at each end of the box."""
    return max(1, grid.points // 16)


def boundary_decay(u: Field) -> float:
    """max |u| over the outer 1/16 shell of the box, relative to max |u|.

    Diagnostic for the decayed-before-boundary precondition of the
    free-space Hartree evaluation and of dilation.
    """
    n = u.grid.points
    w = edge_shell(u.grid)
    amax = float(np.max(np.abs(u.values)))
    if amax == 0.0:
        return 0.0
    edge = max(float(np.max(np.abs(u.values[:w]))),
               float(np.max(np.abs(u.values[n - w:]))))
    return edge / amax


def random_field(grid: Grid, rng: np.random.Generator,
                 kmax_frac: float = 0.2) -> Field:
    """Random band-limited field under a centered super-Gaussian envelope.

    Spectral content is confined to |m| <= kmax_frac * n/2 and the
    exp(-(r/w)^8) envelope, w = 0.16 L, decays below 1e-15 by the quarter
    box, so dilations in [1/2, 2] and free-space Hartree evaluations stay
    alias-safe and box-supported.
    """
    n = grid.points
    m_cut = max(2, int(kmax_frac * n / 2))
    coeffs = rng.standard_normal(2 * m_cut + 1)
    spectrum = np.zeros(n, dtype=np.complex128)
    # place symmetric random coefficients around the zero mode
    spectrum[np.arange(-m_cut, m_cut + 1) % n] = coeffs
    vals = np.fft.ifft(spectrum).real
    r = grid.radius()
    width = 0.16 * grid.extent
    vals = vals * np.exp(-((r / width) ** 8))
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        raise ZeroField("random field degenerated to zero")
    return Field(grid, vals / peak)
