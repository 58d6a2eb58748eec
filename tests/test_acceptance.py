"""Acceptance suite: the twelve desk-scale criteria, one printed line each.

All criteria run at the calibrated desk configuration (1D, N=1, s=0.4,
alpha=0.5, q=3, p=7.5).  Criteria 3 and the closed-form half of 4 probe the
Pohozaev identity of the discrete critical point; on this fractional
problem the defect is dominated by the algebraically decaying |x|^{-(N+2s)}
solution tails and falls with the box like ~L^{-2.3} at dx 0.023 until a
resolution floor near 8e-7: measured 1.99e-4 (L=384, n=2^14), 3.5e-5
(768, 2^15), 6.3e-6 (1536, 2^16), 1.68e-6 (3072, 2^17), 9.1e-7
(6144, 2^18).  Refining to dx 0.0117 breaks the floor: the default
certificate grid (L=6144, n=2^19) measures |P|/(2sA) = 1.5e-7 and a
closed-form multiplier defect of 4.6e-7 in about 45 s on 2 shared Xeon
vCPUs, clearing both 1e-6 tolerances.  Set CHOQLAB_ACCEPTANCE_SMALL=1 for a 7 s certificate
solve on (3072, 2^17), where criterion 3 reads 1.7e-6 and
criterion 4 reads 5.1e-6 (honest fails with the scaling law printed).
"""

import os

import numpy as np
import pytest

from choqlab.energy import energy
from choqlab.fiber import FiberProfile
from choqlab.harness import (SEPARATION, ReportRow, affine_level_defect,
                             default_config, fiber_consistency_error,
                             interpolation_slacks, level_rise, oracle_density,
                             passes, psi_sign_change_defect, rerun_defect,
                             riesz_oracle_error, run_concentration,
                             sharp_tightness, truncated_ray_error,
                             write_report)
from choqlab.params import s_alpha_reference
from choqlab.snapshot import load_field, save_field
from choqlab.solver import level_curves, make_profile, solve_autonomous
from choqlab.spectral import Grid, band_limit, random_field
from conftest import DESK_MASS, make_positive_field

SEED = 20260808
SMALL = os.environ.get("CHOQLAB_ACCEPTANCE_SMALL", "") == "1"


def _line(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} - criterion {num:>2} ({name}): {detail}")
    return ok


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def cert_solve(cfg):
    """Certificate solve: the smallest grid on the measured defect law that
    clears the criterion-3 tolerance (or a faster smaller one on demand)."""
    grid = Grid(1, 3072.0, 131072) if SMALL else Grid(1, 6144.0, 524288)
    return solve_autonomous(cfg.exps, 0.0, DESK_MASS, grid)


@pytest.fixture(scope="module")
def concentration(cfg):
    return run_concentration(cfg)


def test_criterion_01_riesz_oracle(cfg):
    """Spectral Riesz potential vs the direct kernel integral, n=4096."""
    g = Grid(1, 60.0, 4096)
    assert oracle_density(g.axis()[0]) < 1e-12  # boundary decay precondition
    worst = riesz_oracle_error(g, cfg.exps.alpha, np.linspace(-15.0, 15.0, 41))
    assert _line(1, "riesz oracle", passes("riesz_kernel_oracle", worst),
                 f"max rel err {worst:.2e} < 1e-4 at 41 interior points")


def test_criterion_02_fiber_consistency(cfg):
    """Fiber map phi(t) vs energy(dilate(u, t)) on 20 random fields."""
    g = Grid(1, 48.0, 1024)
    rng = np.random.default_rng(SEED)
    fields = [make_positive_field(g, rng) for _ in range(20)]
    worst = fiber_consistency_error(fields, cfg.exps, 0.7, (0.5, 0.8, 1.25, 2.0))
    assert _line(2, "fiber consistency", passes("fiber_consistency", worst),
                 f"max rel err {worst:.2e} < 1e-7, t in {{0.5, 0.8, 1.25, 2}}")


def test_criterion_03_pohozaev_certificate(cert_solve):
    """|P(u)|/(2sA) < 1e-6 at the converged autonomous solve."""
    res = cert_solve
    assert res.grad_residual < 1e-6  # criticality is certified
    ok = res.poho_residual < 1e-6
    n = cert_solve.field.grid.points
    _line(3, "Pohozaev certificate", ok,
          f"|P|/(2sA) = {res.poho_residual:.3e} at n={n} "
          f"(tail-truncation defect ~ L^-2.3, resolution floor at dx 0.023)")
    assert ok


def test_criterion_04_multiplier_law(cfg, cert_solve):
    """Closed form lam*a = mu*a - coeff*B_q within 1e-6; lam < mu strictly."""
    exps = cfg.exps
    res = cert_solve
    ev = energy(res.field, exps, 0.0)
    lam_direct = ev.lam
    coeff = ((exps.N + exps.alpha) - (exps.N - 2 * exps.s) * exps.q) \
        / (2 * exps.s * exps.q)
    bq = ev.hartree_q
    lam_closed = (0.0 * DESK_MASS - coeff * bq) / DESK_MASS
    rel = abs(lam_direct - lam_closed) / abs(lam_closed)
    strict = res.lam < 0.0 and lam_direct == pytest.approx(res.lam, rel=1e-12)
    ok = rel < 1e-6 and strict
    _line(4, "multiplier law", ok,
          f"closed-form rel {rel:.3e} (identically A/(|lam| a) ~ 3.05 x the "
          f"Pohozaev defect), lambda = {res.lam:.6f} < mu = 0 "
          f"{'ok' if strict else 'VIOLATED'}")
    assert strict  # the sign law holds unconditionally
    assert ok


def test_criterion_05_affine_level_shift(cfg):
    """b_mu - b_0 = mu a/2 within 1e-4 relative for mu in {0.5, 1.0}."""
    g = Grid(1, 96.0, 2048)
    levels = {mu: solve_autonomous(cfg.exps, mu, DESK_MASS, g).level
              for mu in (0.0, 0.5, 1.0)}
    worst = affine_level_defect(levels, DESK_MASS)
    assert _line(5, "affine level shift", passes("affine_level_shift", worst),
                 f"max rel defect {worst:.2e} < 1e-4 over mu in {{0.5, 1}}")


def test_criterion_06_mass_monotonicity(cfg):
    """b_{0,T,a} nonincreasing over {0.5, 1, 1.5, 2} x a0, slack 1e-6."""
    masses = [0.5 * DESK_MASS, DESK_MASS, 1.5 * DESK_MASS, 2.0 * DESK_MASS]
    rows, _ = level_curves(cfg.exps, masses, [], Grid(1, 96.0, 4096),
                           DESK_MASS)
    assert all(r["grad"] < 1e-4 for r in rows)  # criticality per cell
    levels = [r["level"] for r in rows]
    assert _line(6, "mass monotonicity",
                 passes("mass_monotone", level_rise(levels)),
                 "levels " + " > ".join(f"{l:.6f}" for l in levels))


def test_criterion_07_interpolation_inequalities(cfg, scalar_ground, c_alpha_q):
    """Both sharp inequalities over 200 random fields + tightness at U."""
    exps, c_aq = cfg.exps, c_alpha_q
    g = Grid(1, 48.0, 1024)
    rng = np.random.default_rng(SEED + 1)
    fields = [make_positive_field(g, rng) if k % 2 == 0 else random_field(g, rng)
              for k in range(200)]
    worst_sub, worst_crit = interpolation_slacks(fields, exps, c_aq,
                                                 s_alpha_reference(exps))
    tight = sharp_tightness(band_limit(scalar_ground.field), exps, c_aq,
                            np.linspace(0.7, 1.3, 13))
    ok = (passes("interp_subcritical", worst_sub)
          and passes("interp_critical", worst_crit)
          and passes("sharp_tightness", tight))
    assert _line(7, "interpolation inequalities", ok,
                 f"subcritical slack {worst_sub:.2e} <= 1e-10, critical slack "
                 f"{worst_crit:.2e} <= 1e-3, tightness {tight:.5f} >= 0.99")


def test_criterion_08_truncated_ray_identity(cfg):
    """Finite-difference fiber derivative vs (t^{2s-1}/2) P_T at 10 pairs."""
    g = Grid(1, 48.0, 512)
    rng = np.random.default_rng(SEED + 2)
    fields = [make_positive_field(g, rng) for _ in range(4)]
    pairs = [(u, t) for u in fields for t in (0.7, 1.0, 1.5)][:10]
    worst = truncated_ray_error(pairs, cfg.exps)
    assert _line(8, "truncated ray identity",
                 passes("truncated_ray_identity", worst),
                 f"max rel err {worst:.2e} < 1e-6 over 10 (u, t) pairs")


def test_criterion_09_psi_uniqueness(cfg):
    """Exactly one sign change of Psi on a 1000-point log grid, 100 profiles."""
    rng = np.random.default_rng(SEED + 3)
    profiles = []
    for _ in range(100):
        a_kin = float(rng.uniform(0.2, 5.0))
        profiles.append(FiberProfile(
            A=a_kin, B_p=float(rng.uniform(0.0, 5.0)),
            B_q=float(a_kin * rng.uniform(0.05, 5.0)),
            a=float(rng.uniform(0.2, 4.0)), exps=cfg.exps))
    defect = psi_sign_change_defect(profiles)
    assert _line(9, "Psi uniqueness", passes("psi_unique_zero", defect),
                 "exactly one sign change on [1e-6, 1e6] for 100 profiles")


def test_criterion_10_profile_energy_barycenter(cfg, concentration):
    """|beta(Phi_eps(y)) - y| <= 2 eps R_eps and |J - b0| decreasing."""
    from choqlab.harness import barycenter
    exps = cfg.exps
    auto = solve_autonomous(exps, 0.0, DESK_MASS, cfg.grid)
    bound_ok = True
    gaps = []
    y = 8.0
    for eps in cfg.eps_list:
        prof, y_act = make_profile(auto.field, y, eps, DESK_MASS)
        beta = barycenter(prof, eps, cfg.box_radius)
        r_eps = eps ** -0.5
        bound_ok &= abs(beta - y_act) <= 2 * eps * r_eps
        v = cfg.potential.sample_on(cfg.grid, eps)
        gaps.append(abs(energy(prof, exps, v).total - auto.level))
    mono = all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    ok = bound_ok and mono
    assert _line(10, "profile energy/barycenter", ok,
                 f"barycenter bound {'holds' if bound_ok else 'VIOLATED'}, "
                 f"|J - b0| = {['%.4f' % g for g in gaps]} "
                 f"{'monotone' if mono else 'NOT monotone'}")


def test_criterion_11_concentration_multiplicity(cfg, concentration):
    """Double well, eps-sweep: two distinct localized solutions, lam < 0,
    judged on the sweep's smallest-eps cells."""
    conc_ok = concentration["passed"] and concentration["monotone"]
    m = concentration["multiplicity"]
    wells_ok = m["passed"]
    sep_ok = m["separation"] > SEPARATION
    level_ok = m["level_gap"] <= 1e-4
    lam_ok = all(l < 0.0 for l in m["lams"])
    ok = conc_ok and wells_ok and sep_ok and level_ok and lam_ok
    assert _line(11, "concentration + multiplicity", ok,
                 f"dists {['%.4f' % d for d in concentration['dists']]} "
                 f"monotone; separation {m['separation']:.3f} > {SEPARATION}; "
                 f"level gap {m['level_gap']:.2e} <= 1e-4; lambdas {m['lams']}")


def test_criterion_12_determinism_io(cfg, tmp_path):
    """Bit-exact re-run of a solve cell and snapshot round-trip."""
    g = Grid(1, 96.0, 2048)
    res1, res2 = (solve_autonomous(cfg.exps, 0.5, DESK_MASS, g)
                  for _ in range(2))
    bitwise = passes("determinism", rerun_defect(res1, res2))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for res, path in ((res1, p1), (res2, p2)):
        write_report([ReportRow("determinism", 0.4, DESK_MASS, 0.5, res.level,
                                res.lam, res.poho_residual, res.grad_residual,
                                0.0, 0.0, res.iterations, res.converged)], path)
    csv_ok = p1.read_bytes() == p2.read_bytes()
    snap = tmp_path / "u.chqf"
    save_field(res1.field, snap)
    loaded = load_field(snap)
    io_ok = np.array_equal(loaded.values, res1.field.values)
    ok = bitwise and csv_ok and io_ok
    assert _line(12, "determinism and IO", ok,
                 f"re-run bitwise={bitwise}, CSV bytes equal={csv_ok}, "
                 f"snapshot round-trip={io_ok}")
