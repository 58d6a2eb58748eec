"""Command-line interface.

One subcommand per computation: regime validation, the constant table
with the scalar ground state behind C_{alpha,q}, single solves, fiber
curves, level sweeps, the concentration sweep with its multiplicity
verdict, the verification battery and snapshot inspection.
Exit code 0 only when every assertion requested by the subcommand holds;
an input the lab rejects, or a file it cannot read or write, exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .errors import ChoqlabError, OutOfRange
from .fiber import extract_profile, fiber_maximizer, fiber_value, psi
from .harness import (CHECK_FIELDS, CHECKS, GROUND_GRID, ExperimentConfig,
                      ReportRow, affine_level_defect, barycenter,
                      default_config, level_rise, passes, run_concentration,
                      run_verify, solve_cell, write_report)
from .params import (critical_level, hls_constant, mass_threshold,
                     riesz_normalization, s_alpha_reference, sharp_constant,
                     validate_regime)
from .snapshot import load_field, save_field, save_solve_sidecar
from .solver import (_well_cells, level_curves, solve_autonomous,
                     solve_nonautonomous, solve_scalar_ground, x_star_root)
from .spectral import mass

__all__ = ["main"]


def _load_config(args) -> ExperimentConfig:
    """The config of a command that writes to --out; an --out that names
    something other than a directory is refused here, before any solve."""
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise FileExistsError(f"--out {args.out} is not a directory")
    return ExperimentConfig.from_file(args.config) if args.config else default_config()


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_validate(args) -> int:
    try:
        exps = validate_regime(args.N, args.s, args.alpha, args.q)
    except ChoqlabError as exc:
        print(f"REJECTED: {exc}")
        return 1
    print("regime admissible:")
    for name in ("p", "p_bar", "p_lower", "delta_q", "delta_p", "gamma_q",
                 "sigma", "theta_q", "k_q_coeff"):
        print(f"  {name} = {getattr(exps, name):.12g}")
    return 0


def _cmd_constants(args) -> int:
    cfg = _load_config(args)
    exps = cfg.exps
    print(f"# choqlab {__version__} constants (N={exps.N}, s={exps.s}, "
          f"alpha={exps.alpha}, q={exps.q})")
    a_na = riesz_normalization(exps.N, exps.alpha)
    c_hls = hls_constant(exps.N, exps.alpha)
    s_ref = s_alpha_reference(exps)
    print(f"A_N_alpha  = {a_na:.12g}")
    print(f"C_HLS      = {c_hls:.12g}")
    print(f"S_alpha    = {s_ref:.12g}   (sharp Sobolev x HLS composition)")
    gs = solve_scalar_ground(exps, GROUND_GRID)
    print(f"scalar ground state: residual={gs.residual:.2e} "
          f"iterations={gs.iterations} converged={gs.converged} "
          f"newton_stop={gs.newton.stop}")
    print(f"  ||U||_2 = {gs.norm2:.12g}  action = {gs.action:.12g} "
          f"scaling identity defect = {gs.poho_residual:.2e}")
    snap = _outpath(args, "scalar_ground.chqf")
    save_field(gs.field, snap)
    print(f"snapshot -> {snap}")
    c_aq = sharp_constant(exps, exps.q, gs.norm2)
    print(f"C_alpha_q  = {c_aq:.12g}")
    mt = mass_threshold(exps, s_ref, c_aq)
    print(f"K_q        = {mt.k_q:.12g}")
    print(f"theta_q    = {exps.theta_q:.12g}")
    print(f"a_max      = {mt.a_max:.12g}"
          + ("   [near-degenerate exponent]" if mt.near_degenerate else ""))
    print(f"c_star     = {critical_level(exps):.12g}   (critical bubble level)")
    xs = x_star_root(exps, s_ref, mt.k_q, cfg.a)
    print(f"X*(a={cfg.a}) = {xs:.12g}   (kinetic ridge root, diagnostic)")
    return 0 if gs.converged else 1


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    if args.mu is not None:
        res = solve_autonomous(cfg.exps, args.mu, cfg.a, cfg.grid)
        tag = f"autonomous_mu{args.mu:g}"
    else:
        if args.eps <= 0.0:
            raise OutOfRange(f"eps must be positive, got {args.eps}")
        wells = cfg.potential.centers
        if wells:
            _well_cells(cfg.grid, wells[-1], args.eps)   # before any solve
            auto = solve_autonomous(cfg.exps, 0.0, cfg.a, cfg.grid)
            res = solve_cell(cfg, auto.field, args.eps, wells[-1])
        else:
            res = solve_nonautonomous(
                cfg.exps, cfg.potential.sample_on(cfg.grid, args.eps), cfg.a,
                cfg.grid)
        tag = f"nonautonomous_eps{args.eps:g}"
    beta = barycenter(res.field, args.eps if args.mu is None else 1.0,
                      cfg.box_radius)
    print(f"{tag}: level={res.level:.10g} lambda={res.lam:.8g}")
    print(f"  grad_residual={res.grad_residual:.2e} "
          f"poho_residual={res.poho_residual:.2e} iterations={res.iterations} "
          f"converged={res.converged} descent_stop={res.descent_stop} "
          f"newton_stop={res.newton.stop}")
    snap = _outpath(args, f"{tag}.chqf")
    save_field(res.field, snap)
    save_solve_sidecar(res, snap + ".txt", extra={"barycenter": beta})
    print(f"snapshot -> {snap}")
    return 0 if res.converged else 1


def _cmd_fiber(args) -> int:
    if not (args.tmin > 0.0 and args.tmax > 0.0 and args.samples >= 1):
        raise OutOfRange(f"fiber needs tmin, tmax > 0 and samples >= 1, got "
                         f"{args.tmin}, {args.tmax}, {args.samples}")
    cfg = _load_config(args)
    res = solve_autonomous(cfg.exps, 0.0, cfg.a, cfg.grid)
    prof = extract_profile(res.field, cfg.exps)
    fm = fiber_maximizer(prof)
    path = _outpath(args, "fiber.csv")
    write_report([(t, fiber_value(prof, t), psi(prof, t))
                  for t in np.geomspace(args.tmin, args.tmax, args.samples)],
                 path, header=("t", "phi", "psi"))
    print(f"fiber curve at the a={cfg.a} solution (t*={fm.t_star:.6g}, "
          f"R={fm.value:.8g}) -> {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    a_list = [f * cfg.a for f in (0.5, 1.0, 1.5, 2.0)]
    mu_list = [0.0, 0.5, 1.0]
    a_rows, mu_rows = level_curves(cfg.exps, a_list, mu_list, cfg.grid,
                                   a0=cfg.a)
    path = _outpath(args, "levels.csv")
    write_report([ReportRow("sweep", 0.0, r["a"], r["mu"], r["level"], r["lam"],
                            r["poho"], r["grad"], 0.0, 0.0, r["iterations"],
                            r["converged"]) for r in a_rows + mu_rows], path)
    levels = [r["level"] for r in a_rows]
    rise = level_rise(levels)
    defect = affine_level_defect({r["mu"]: r["level"] for r in mu_rows}, cfg.a)
    mono = passes("mass_monotone", rise)
    affine = passes("affine_level_shift", defect)
    print(f"levels over a={a_list}: {['%.6f' % l for l in levels]} largest rise "
          f"{rise:.2e} (tol {CHECKS['mass_monotone'][0]:g}) nonincreasing={mono}")
    print(f"b_mu - b_0 = mu a/2 over mu={mu_list}: max rel defect {defect:.2e} "
          f"(tol {CHECKS['affine_level_shift'][0]:g}) ok={affine}")
    for r in a_rows + mu_rows:
        if "error" in r:
            print(f"FAILED: a={r['a']:g} mu={r['mu']:g}: {r['error']}")
    print(f"table -> {path}")
    return 0 if (mono and affine
                 and all(r["converged"] for r in a_rows + mu_rows)) else 1


def _cmd_concentrate(args) -> int:
    cfg = _load_config(args)
    out = run_concentration(cfg, threads=args.threads)
    path = _outpath(args, "concentration.csv")
    write_report(out["rows"], path)
    print(f"distance to M per eps: "
          f"{['%.5f' % d for d in out['dists']]} monotone={out['monotone']}")
    print(f"|level - b0| per eps: {['%.5f' % gp for gp in out['gaps']]} "
          f"b0 converged={out['autonomous_converged']}")
    print(f"report -> {path}")
    verdict = out.get("multiplicity")
    if verdict is None:                  # not two wells: no verdict
        return 0 if out["passed"] else 1
    if verdict["reason"]:
        print(f"INDISTINCT: {verdict['reason']}")
        return 1
    path = _outpath(args, "multiplicity.csv")
    write_report(verdict["rows"], path)
    print(f"wells {verdict['wells']}: barycenters "
          f"{['%.4f' % b for b in verdict['betas']]}")
    print(f"H^s separation {verdict['separation']:.4f} "
          f"(aligned {verdict['separation_aligned']:.2e}), "
          f"level gap {verdict['level_gap']:.2e}, lambdas {verdict['lams']}")
    print(f"report -> {path}")
    return 0 if out["passed"] and verdict["passed"] else 1


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    out = run_verify(cfg)
    path = _outpath(args, "verify.csv")
    write_report(out["rows"], path, CHECK_FIELDS)
    for name, status, measured, tol in out["rows"]:
        print(f"  [{status:>7}] {name:<28} measured={measured} tol={tol}")
    print(f"report -> {path}")
    return 0 if out["passed"] else 1


def _cmd_snapshot(args) -> int:
    u = load_field(args.path)
    print(f"grid: N={u.grid.N} extent={u.grid.extent} points={u.grid.points}")
    print(f"mass = {mass(u)!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="choqlab",
        description="Pseudospectral lab for normalized fractional Choquard solutions")
    parser.add_argument("--config", help="experiment config file (key = value INI)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads of the concentration sweep "
                             "(one chain per well)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a parameter regime")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--s", type=float, default=0.4)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--q", type=float, default=3.0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("constants",
                       help="sharp constants, with the scalar ground state "
                            "behind C_alpha_q")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("solve", help="one autonomous or non-autonomous solve")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--mu", type=float, default=None,
                      help="constant potential (autonomous mode)")
    mode.add_argument("--eps", type=float, default=0.1,
                      help="potential scale for the non-autonomous mode")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fiber", help="emit (t, phi, Psi) fiber curve CSV")
    p.add_argument("--tmin", type=float, default=0.05)
    p.add_argument("--tmax", type=float, default=20.0)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("sweep", help="level curves over masses and mu")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("concentrate",
                       help="eps-halving concentration sweep; on two "
                            "wells, the multiplicity verdict of its "
                            "smallest-eps pair")
    p.set_defaults(func=_cmd_concentrate)

    p = sub.add_parser("verify", help="cross-module verification battery")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("snapshot", help="inspect a field snapshot")
    p.add_argument("path")
    p.set_defaults(func=_cmd_snapshot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChoqlabError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
