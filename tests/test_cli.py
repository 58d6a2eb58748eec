"""CLI wiring (fast subcommands, experiments on small grids; the desk-scale
experiments run in the acceptance suite)."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from choqlab.cli import main
from choqlab.harness import default_config, run_verify
from choqlab.snapshot import load_field, save_field
from choqlab.spectral import Field, Grid, mass


def test_validate_accepts_and_rejects(capsys):
    assert main(["validate", "--N", "1", "--s", "0.4", "--alpha", "0.5",
                 "--q", "3.0"]) == 0
    out = capsys.readouterr().out
    assert "p = 7.5" in out
    assert main(["validate", "--N", "1", "--s", "0.4", "--alpha", "0.5",
                 "--q", "2.0"]) == 1
    assert "REJECTED" in capsys.readouterr().out
    # N=2 satisfies every regime inequality but has no 1D operators
    assert main(["validate", "--N", "2", "--s", "0.4", "--alpha", "0.5",
                 "--q", "1.8"]) == 1
    out = capsys.readouterr().out
    assert "REJECTED" in out and "N must be 1" in out


def test_concentrate_rejects_zero_threads(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--threads", "0", "concentrate"]) == 2
    assert "OutOfRange" in capsys.readouterr().err


def test_snapshot_info(tmp_path, capsys):
    g = Grid(1, 48.0, 512)
    x = g.axis()
    u = Field(g, np.exp(-x * x))
    path = tmp_path / "u.chqf"
    save_field(u, path)
    assert main(["snapshot", str(path)]) == 0
    out = capsys.readouterr().out
    assert "points=512" in out


def test_constants_saves_the_scalar_ground_state(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "constants"]) == 0
    out = capsys.readouterr().out
    assert "C_alpha_q  = 1.0259235" in out
    assert "converged=True newton_stop=tolerance" in out
    norm2 = float(out.split("||U||_2 = ")[1].split()[0])
    u = load_field(tmp_path / "scalar_ground.chqf")
    assert mass(u) == pytest.approx(norm2 ** 2, rel=1e-11)


def test_constants_fails_on_unconverged_ground_state(tmp_path, capsys,
                                                     monkeypatch):
    import choqlab.cli as cli

    solve = cli.solve_scalar_ground

    def unconverged(*args, **kwargs):
        gs = solve(*args, **kwargs)
        return dataclasses.replace(
            gs, converged=False,
            newton=dataclasses.replace(gs.newton, stop="budget"))

    monkeypatch.setattr(cli, "solve_scalar_ground", unconverged)
    assert main(["--out", str(tmp_path), "constants"]) == 1
    assert "converged=False newton_stop=budget" in capsys.readouterr().out


def test_fiber_csv(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--config", _write_cfg(tmp_path),
               "fiber", "--samples", "50"])
    assert rc == 0
    lines = (tmp_path / "fiber.csv").read_text().splitlines()
    assert lines[1] == "t,phi,psi"
    assert len(lines) == 52
    for line in lines[2:]:
        assert len([float(v) for v in line.split(",")]) == 3


def test_fiber_rejects_a_bad_range_before_any_solve(tmp_path, capsys,
                                                    monkeypatch):
    # geomspace needs positive ends: --tmin 0 is an input error, exit 2,
    # raised before the autonomous solve
    solves = _count_solves(monkeypatch)
    assert main(["--out", str(tmp_path), "fiber", "--tmin", "0"]) == 2
    assert "OutOfRange" in capsys.readouterr().err
    assert solves == []
    assert not (tmp_path / "fiber.csv").exists()


SOLVER_CHECKS = ("scalar_ground", "interp_subcritical", "interp_critical",
                 "sharp_tightness", "autonomous_certificates",
                 "affine_level_shift", "determinism")


def _verify_rows(out_dir):
    lines = (out_dir / "verify.csv").read_text().splitlines()
    assert lines[0] == "# choqlab-report v1"
    assert lines[1] == "check,status,measured,tolerance"
    return list(csv.reader(lines[2:]))


def test_verify_battery_passes(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "verify"]) == 0
    rows = _verify_rows(tmp_path)
    assert len(rows) == 13
    assert all(row[1] == "Passed" for row in rows)
    assert [row[0] for row in rows[6:]] == list(SOLVER_CHECKS)


def test_verify_skips_desk_checks_on_solver_failure():
    # a mass the desk solves reject: the battery fails, and the three checks
    # on those solves are Skipped with the solver's message
    out = run_verify(dataclasses.replace(default_config(), a=-1.0))
    message = "target mass must be positive, got -1.0"
    assert out["passed"] is False
    assert out["reason"] == f"solver failure: {message}"
    assert len(out["rows"]) == 13
    assert out["rows"][-3:] == [(name, "Skipped", message, "")
                                for name in SOLVER_CHECKS[-3:]]


def test_solve_sampled_potential(tmp_path, capsys):
    # no --mu: the double-well potential sampled at eps, seeded at a well
    rc = main(["--out", str(tmp_path), "--config", _write_cfg(tmp_path),
               "solve", "--eps", "0.4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "descent_stop=handover" in out and "newton_stop=tolerance" in out
    sidecar = (tmp_path / "nonautonomous_eps0.4.chqf.txt").read_text()
    assert "descent_stop = 'handover'" in sidecar
    assert "newton.stop = 'tolerance'" in sidecar
    # the config has no [sweep] section: box_radius is default_config()'s,
    # wide enough for the barycenter to see the well at y = 8
    beta = next(float(line.split(" = ")[1]) for line in sidecar.splitlines()
                if line.startswith("barycenter = "))
    assert abs(beta - 8.0) < 0.5


def test_sweep_prints_why_a_cell_failed(tmp_path, capsys, monkeypatch):
    # a cell that raised keeps its error in the table row; the sweep prints it
    import choqlab.cli as cli

    def curves(exps, a_list, mu_list, grid, a0):
        rows = [dict(a=a, mu=0.0, level=0.2 - 0.01 * a, lam=-0.1, poho=0.0,
                     grad=0.0, iterations=5, converged=True) for a in a_list]
        rows[0] = dict(rows[0], level=float("nan"), converged=False,
                       error="alias risk: tail energy 1e-3")
        mu_rows = [dict(rows[1], mu=mu, level=rows[1]["level"] + mu * a0 / 2)
                   for mu in mu_list]
        return rows, mu_rows

    monkeypatch.setattr(cli, "level_curves", curves)
    assert main(["--out", str(tmp_path), "sweep"]) == 1
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("FAILED")]
    assert failed == ["FAILED: a=0.75 mu=0: alias risk: tail energy 1e-3"]


def test_sweep_level_laws(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--config", _write_cfg(tmp_path),
               "sweep"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nonincreasing=True" in out and "ok=True" in out
    rows = (tmp_path / "levels.csv").read_text().splitlines()[2:]
    assert len(rows) == 7  # four masses and three mu


def _count_solves(monkeypatch):
    # every solve choqlab solve can reach: its own two and solve_cell's
    import choqlab.cli as cli
    import choqlab.harness as harness

    solves = []

    def recorded(*args, **kwargs):
        solves.append(args)
        raise AssertionError("a solve ran before the cell was checked")

    for module in (cli, harness):
        monkeypatch.setattr(module, "solve_autonomous", recorded)
        monkeypatch.setattr(module, "solve_nonautonomous", recorded)
    return solves


def test_solve_rejects_seed_at_box_edge(tmp_path, capsys, monkeypatch):
    # eps 0.2 puts the well at y/eps = 40: the seed's support reaches
    # x = 44.5, inside the outer 1/16 shell (|x| > 42) of the 96 box; the
    # cell is placed before the autonomous solve
    solves = _count_solves(monkeypatch)
    rc = main(["--out", str(tmp_path), "--config", _write_cfg(tmp_path),
               "solve", "--eps", "0.2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "OutOfBox" in err and "outer 1/16 shell" in err
    assert not (tmp_path / "nonautonomous_eps0.2.chqf").exists()
    assert solves == []


def test_solve_takes_mu_or_eps_not_both(tmp_path, capsys, monkeypatch):
    # --mu selects the autonomous solve, which reads no eps: giving both is
    # argparse's usage error (status 2), before any solve
    solves = _count_solves(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "solve", "--mu", "0", "--eps", "0.2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert solves == []


def test_seed_flag_is_gone(tmp_path, capsys):
    # run_verify seeds its corpus from harness.VERIFY_SEED; --seed is unknown
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "--seed=7", "verify"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_solve_rejects_nonpositive_eps(tmp_path, capsys, monkeypatch):
    # eps <= 0 is an input error before any solve, with wells or without
    solves = _count_solves(monkeypatch)
    path = Path(_write_cfg(tmp_path))
    assert main(["--out", str(tmp_path), "--config", str(path),
                 "solve", "--eps", "0"]) == 2
    assert "OutOfRange" in capsys.readouterr().err
    path.write_text(path.read_text().replace("kind = double_well", "kind = constant")
                    .replace("centers = -8.0, 8.0\nwidth = 2.0\n", ""))
    assert main(["--out", str(tmp_path), "--config", str(path),
                 "solve", "--eps", "-0.1"]) == 2
    assert "OutOfRange" in capsys.readouterr().err
    assert solves == []
    assert not list(tmp_path.glob("*.chqf"))


def test_concentrate_rejects_seed_at_box_edge(tmp_path, capsys):
    # the smallest eps puts the wells at y/eps = +-40 of the 96 box, where
    # the seed's support enters the outer 1/16 shell: exit 2, no report
    path = _write_cfg(tmp_path)
    with open(path, "a") as fh:
        fh.write("[sweep]\neps_list = 0.8, 0.4, 0.2\n")
    rc = main(["--out", str(tmp_path), "--config", path, "concentrate"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "OutOfBox" in err and "outer 1/16 shell" in err
    assert not (tmp_path / "concentration.csv").exists()


def _report_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# choqlab-report v1"
    return list(csv.reader(lines[2:]))


def _counted_solves(monkeypatch):
    # pass-through counters on the sweep's solves, by kind
    import choqlab.harness as harness

    counts = {"solve_autonomous": 0, "solve_nonautonomous": 0}
    for name in counts:
        def counted(*args, _name=name, _solve=getattr(harness, name), **kwargs):
            counts[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return counts


def test_multiplicity_judges_the_sweep_smallest_eps_pair(tmp_path, capsys,
                                                         monkeypatch):
    # one concentrate run writes both reports from one sweep: the verdict
    # reads its eps 0.1 cells, so each multiplicity.csv row is that sweep
    # row under another label
    counts = _counted_solves(monkeypatch)
    path = _write_cfg(tmp_path, extent=240.0)
    assert main(["--out", str(tmp_path), "--config", path,
                 "--threads", "2", "concentrate"]) == 0
    assert counts == {"solve_autonomous": 1, "solve_nonautonomous": 6}
    out = capsys.readouterr().out
    assert "H^s separation 1.41" in out
    smallest = [row for row in _report_rows(tmp_path / "concentration.csv")
                if float(row[1]) == 0.1]
    rows = _report_rows(tmp_path / "multiplicity.csv")
    assert len(rows) == len(smallest) == 2
    assert [row[0] for row in rows] == ["multiplicity"] * 2
    assert [row[1:] for row in rows] == [row[1:] for row in smallest]


def test_concentrate_single_well_writes_no_multiplicity_report(tmp_path,
                                                               capsys):
    # one well has no multiplicity verdict: the sweep alone sets the exit
    path = Path(_write_cfg(tmp_path, extent=240.0))
    path.write_text(path.read_text().replace("double_well", "single_well")
                    .replace("-8.0, 8.0", "8.0"))
    assert main(["--out", str(tmp_path), "--config", str(path),
                 "concentrate"]) == 0
    assert "separation" not in capsys.readouterr().out
    assert len(_report_rows(tmp_path / "concentration.csv")) == 3
    assert not (tmp_path / "multiplicity.csv").exists()


def test_concentrate_rejects_potential_without_wells(tmp_path, capsys,
                                                     monkeypatch):
    # the sweep follows the potential's wells: a constant potential, zero or
    # not, has none and exits 2 before any solve and without a report
    solves = _count_solves(monkeypatch)
    path = Path(_write_cfg(tmp_path))
    constant = (path.read_text().replace("kind = double_well", "kind = constant")
                .replace("centers = -8.0, 8.0\nwidth = 2.0\n", ""))
    for v_inf in ("0.2", "0.0"):
        path.write_text(constant.replace("v_inf = 0.2", f"v_inf = {v_inf}"))
        rc = main(["--out", str(tmp_path), "--config", str(path), "concentrate"])
        assert rc == 2
        assert "ConfigError" in capsys.readouterr().err
    assert solves == []
    assert not (tmp_path / "concentration.csv").exists()


def _write_cfg(tmp_path, extent=96.0):
    path = tmp_path / "exp.cfg"
    path.write_text(f"""
[params]
N = 1
s = 0.4
alpha = 0.5
q = 3.0
[grid]
extent = {extent}
points = 2048
[mass]
a = 1.5
[potential]
kind = double_well
centers = -8.0, 8.0
width = 2.0
v_inf = 0.2
""")
    return str(path)
