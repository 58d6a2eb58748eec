"""Parameter regime and derived constants for the mixed Hartree problem.

The admissible regime is

    N > 2s,   0 < s < 1,   (N - 4s)^+ < alpha < N,
    (N + 2s + alpha)/N < q < p = (N + alpha)/(N - 2s),

so both Hartree exponents sit strictly above the L^2-critical value
p_bar = (N + 2s + alpha)/N while p is the upper critical exponent.
Everything downstream (fiber maps, level laws, mass thresholds) is a
function of the exponents collected here.  The lab solves only N = 1
(so s < 1/2 and (1 - 4s)^+ < alpha < 1); the closed-form constants keep
their N argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveConstant, OutOfRange, RegimeViolation

__all__ = [
    "ExponentSet",
    "MassThreshold",
    "validate_regime",
    "sharp_constant",
    "mass_threshold",
    "riesz_normalization",
    "hls_constant",
    "sobolev_constant",
    "s_alpha_reference",
]


@dataclass(frozen=True)
class ExponentSet:
    """Validated parameters plus every derived exponent.

    delta_r = N*r - (N + alpha) is the dilation exponent of the Hartree
    energy B_r under the mass-preserving scaling u_t(x) = t^{N/2} u(tx);
    the kinetic term scales like t^{2s}.  k_q_coeff is the exponent-only
    factor of K_q: the full constant is K_q = k_q_coeff * C_{alpha,q},
    with C_{alpha,q} supplied by the scalar ground-state solver.
    """

    N: int
    s: float
    alpha: float
    q: float
    p: float          # upper critical exponent (N+alpha)/(N-2s)
    p_bar: float      # L^2-critical exponent (N+2s+alpha)/N
    p_lower: float    # lower Hardy-Littlewood-Sobolev exponent (N+alpha)/N
    delta_q: float
    delta_p: float
    gamma_q: float    # (Nq - N - alpha)/(2sq), in (0, 1)
    sigma: float      # (N+alpha)/(2(alpha+2s))
    theta_q: float    # 2*sigma*(p - q*gamma_q) - p (may be negative)
    k_q_coeff: float  # |2 - 2q*gamma_q| * p / (q(2p - 2))

    def k_q(self, c_alpha_q: float) -> float:
        """Full constant K_q given the sharp interpolation constant."""
        if c_alpha_q <= 0.0:
            raise NonPositiveConstant(f"C_alpha_q must be positive, got {c_alpha_q}")
        return self.k_q_coeff * c_alpha_q


@dataclass(frozen=True)
class MassThreshold:
    a_max: float
    k_q: float
    near_degenerate: bool  # gamma_q so close to 1 the power law blows up


def _check(cond: bool, name: str, detail: str) -> None:
    if not cond:
        raise RegimeViolation(name, detail)


def validate_regime(N: int, s: float, alpha: float, q: float) -> ExponentSet:
    """Check every regime inequality (strictly) and derive all exponents.

    Raises RegimeViolation naming the first violated inequality.  Boundary
    values are rejected: the hypotheses of the existence theory are strict.
    N must be 1: the lab has the whole-space operators only in 1D.
    """
    _check(isinstance(N, int) and not isinstance(N, bool) and N >= 1,
           "N must be a positive integer", f"got {N!r}")
    _check(N == 1, "N must be 1", f"got N={N}; only the 1D operators exist")
    _check(0.0 < s < 1.0, "s must lie in (0,1)", f"got s={s}")
    _check(N > 2.0 * s, "N must exceed 2s", f"got N={N}, 2s={2.0 * s}")
    lower_alpha = max(0.0, N - 4.0 * s)
    _check(alpha > lower_alpha,
           f"alpha must exceed N-4s={lower_alpha}" if N - 4.0 * s > 0
           else "alpha must exceed 0",
           f"got alpha={alpha}")
    _check(alpha < N, "alpha must be below N", f"got alpha={alpha}, N={N}")

    p = (N + alpha) / (N - 2.0 * s)
    p_bar = (N + 2.0 * s + alpha) / N
    _check(q > p_bar, "q must exceed p_bar", f"got q={q}, p_bar={p_bar}")
    _check(q < p, "q must be below p", f"got q={q}, p={p}")

    p_lower = (N + alpha) / N
    delta_q = N * q - (N + alpha)
    delta_p = N * p - (N + alpha)
    gamma_q = (N * q - N - alpha) / (2.0 * s * q)
    sigma = (N + alpha) / (2.0 * (alpha + 2.0 * s))
    theta_q = 2.0 * sigma * (p - q * gamma_q) - p
    # |2 - 2q*gamma_q| = 2q*gamma_q - 2 > 0 throughout the supercritical
    # regime; the composite K_q must be positive for the mass threshold
    # to be real-valued.
    k_q_coeff = (2.0 * q * gamma_q - 2.0) * p / (q * (2.0 * p - 2.0))

    return ExponentSet(
        N=N, s=s, alpha=alpha, q=q,
        p=p, p_bar=p_bar, p_lower=p_lower,
        delta_q=delta_q, delta_p=delta_p,
        gamma_q=gamma_q, sigma=sigma,
        theta_q=theta_q, k_q_coeff=k_q_coeff,
    )


def sharp_constant(exp: ExponentSet, t: float, norm2_of_U: float) -> float:
    """Sharp constant C_{alpha,t} of the subcritical interpolation inequality

        B_t(u) <= C_{alpha,t} * A(u)^{t*gamma} * mass(u)^{t*(1-gamma)},

    where U is the ground state of the scalar Choquard problem at exponent t
    and norm2_of_U its L^2 norm (not squared).
    """
    if not (exp.p_lower < t < exp.p):
        raise OutOfRange(f"t={t} outside ({exp.p_lower}, {exp.p})")
    if norm2_of_U <= 0.0:
        raise OutOfRange(f"norm2_of_U must be positive, got {norm2_of_U}")
    N, s, alpha = exp.N, exp.s, exp.alpha
    num = 2.0 * s * t
    gap = 2.0 * s * t - N * t + N + alpha     # positive for t < p
    dq = N * t - N - alpha                    # positive for t > p_lower
    return (num / gap) * (gap / dq) ** (dq / (2.0 * s)) * norm2_of_U ** (2.0 - 2.0 * t)


def mass_threshold(exp: ExponentSet, s_alpha: float, c_alpha_q: float) -> MassThreshold:
    """Mass threshold a_max = (K_q^{-1} S_alpha^{theta_q})^{1/(q(1-gamma_q))}.

    K_q = k_q_coeff * C_{alpha,q} and theta_q come straight from the
    ExponentSet; s_alpha is the critical Choquard constant.
    """
    if s_alpha <= 0.0:
        raise NonPositiveConstant(f"S_alpha must be positive, got {s_alpha}")
    k_q = exp.k_q(c_alpha_q)
    if k_q <= 0.0:
        raise NonPositiveConstant(f"K_q must be positive, got {k_q}")
    expo = 1.0 / (exp.q * (1.0 - exp.gamma_q))
    a_max = (s_alpha ** exp.theta_q / k_q) ** expo
    return MassThreshold(a_max=a_max, k_q=k_q, near_degenerate=(expo > 100.0))


def riesz_normalization(N: int, alpha: float) -> float:
    """Riesz kernel normalization A_{N,alpha} for I_alpha = A |x|^{alpha-N}.

    This is the constant that makes the Fourier symbol of I_alpha exactly
    |k|^{-alpha}:  A_{N,alpha} = Gamma((N-alpha)/2) / (pi^{N/2} 2^alpha
    Gamma(alpha/2)).  Diverges as alpha -> N (Gamma pole at 0).
    """
    if not (0.0 < alpha < N):
        raise OutOfRange(f"alpha={alpha} outside (0, {N})")
    return math.gamma((N - alpha) / 2.0) / (
        math.pi ** (N / 2.0) * 2.0 ** alpha * math.gamma(alpha / 2.0)
    )


def sobolev_constant(N: int, s: float) -> float:
    """Best constant S in A(u) >= S ||u||_{2s*}^2 (fractional Sobolev),
    attained by the bubbles (1+|x|^2)^{-(N-2s)/2} up to scaling."""
    if not (0.0 < s < 1.0 and N > 2.0 * s):
        raise OutOfRange(f"need 0<s<1 and N>2s, got N={N}, s={s}")
    return (2.0 ** (2.0 * s) * math.pi ** s
            * math.gamma((N + 2.0 * s) / 2.0) / math.gamma((N - 2.0 * s) / 2.0)
            * (math.gamma(N / 2.0) / math.gamma(N)) ** (2.0 * s / N))


def s_alpha_reference(exp: ExponentSet) -> float:
    """Critical Choquard constant from the sharp Sobolev and HLS constants.

    The bubbles saturate both B_p <= A_{N,a} C(N,a) ||u||_{2s*}^{2p} and the
    Sobolev embedding simultaneously, so the infimum of A/B_p^{1/p} equals
    S_sob * (A_{N,a} C(N,a))^{-1/p} exactly.  (Cross-validated against
    continuum quadrature of the bubble quotient to 1e-12.)
    """
    return sobolev_constant(exp.N, exp.s) * (
        riesz_normalization(exp.N, exp.alpha) * hls_constant(exp.N, exp.alpha)
    ) ** (-1.0 / exp.p)


def hls_constant(N: int, alpha: float) -> float:
    """Sharp Hardy-Littlewood-Sobolev constant C(N,alpha) at the symmetric
    exponent pair t = r = 2N/(N+alpha)."""
    if not (0.0 < alpha < N):
        raise OutOfRange(f"alpha={alpha} outside (0, {N})")
    return (
        math.pi ** ((N - alpha) / 2.0)
        * math.gamma(alpha / 2.0) / math.gamma((N + alpha) / 2.0)
        * (math.gamma(N / 2.0) / math.gamma(N)) ** (-alpha / N)
    )
