"""Potentials, barycenter, configuration, and report plumbing."""

import numpy as np
import pytest

from choqlab.errors import ConfigError, OutOfBox, OutOfRange
from choqlab.harness import (CHECK_FIELDS, DELTA_TARGET, ExperimentConfig,
                             ReportRow, SCHEMA_VERSION, barycenter,
                             default_config, write_report)
from choqlab.potentials import PotentialSpec, dist_to_set
from choqlab.spectral import Field, project_mass, translate
from conftest import make_positive_field


def test_potential_builtins(grid_unit):
    pot = PotentialSpec(kind="double_well", centers=(-8.0, 8.0), width=2.0,
                        v_inf=0.2)
    v = pot.sample_on(grid_unit, 1.0)
    assert np.all(v >= 0.0)
    # exact zero where a center falls on a grid point
    on_grid = PotentialSpec(kind="single_well", centers=(7.5,), width=2.0,
                            v_inf=0.2)
    vg = on_grid.sample_on(grid_unit, 1.0)
    x = grid_unit.axis()
    i = int(round((7.5 + 24.0) / grid_unit.dx))
    assert x[i] == 7.5
    assert vg[i] == 0.0
    # plateau approaches v_inf away from the wells
    assert v[0] == pytest.approx(0.2, rel=1e-6)
    with pytest.raises(OutOfRange):
        PotentialSpec(kind="double_well", centers=(1.0,), width=2.0)
    with pytest.raises(OutOfRange):
        PotentialSpec(kind="single_well", centers=(0.0,), width=2.0, v_inf=0.0)
    with pytest.raises(OutOfRange):
        PotentialSpec(kind="unknown")


def test_well_points():
    # M is the constructed centers, where V vanishes; a constant potential
    # has none
    pot = PotentialSpec(kind="double_well", centers=(-8.0, 8.0), width=2.0,
                        v_inf=0.2)
    m_points = pot.well_points()
    assert m_points == (-8.0, 8.0)
    assert np.all(pot(np.array(m_points)) == 0.0)
    assert dist_to_set(7.0, m_points) == pytest.approx(1.0)
    for v_inf in (0.0, 1.0):
        assert PotentialSpec(kind="constant", v_inf=v_inf).well_points() == ()


def test_barycenter_symmetry_and_shift(grid_unit, rng):
    u = project_mass(make_positive_field(grid_unit, rng), 1.0)
    sym = Field(grid_unit, 0.5 * (u.values + np.roll(u.values[::-1], 1)))
    beta = barycenter(sym, 0.2, box_radius=6.0)
    assert isinstance(beta, float)
    assert abs(beta) < 1e-10
    # integer-cell shift moves the barycenter accordingly inside the
    # identity region of zeta
    cells = 40
    shifted = translate(sym, cells)
    beta_s = barycenter(shifted, 0.2, box_radius=6.0)
    assert beta_s == pytest.approx(0.2 * cells * grid_unit.dx, abs=1e-9)


def test_experiment_config_parse(tmp_path):
    cfg_text = """
[params]
N = 1
s = 0.4
alpha = 0.5
q = 3.0
[grid]
extent = 96.0
points = 2048
[mass]
a = 1.5
[potential]
kind = double_well
centers = -8.0, 8.0
width = 2.0
v_inf = 0.2
[sweep]
eps_list = 0.4, 0.2, 0.1
"""
    path = tmp_path / "exp.cfg"
    path.write_text(cfg_text)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.exps.q == 3.0
    assert cfg.grid.points == 2048
    assert cfg.eps_list == (0.4, 0.2, 0.1)
    # omitted [sweep] keys take the default configuration's values
    assert cfg.box_radius == default_config().box_radius


def test_experiment_config_rejections(tmp_path):
    base = """
[params]
N = 1
s = 0.4
alpha = 0.5
q = 3.0
[grid]
extent = 96.0
points = 2048
[mass]
a = 1.5
[potential]
kind = constant
"""
    bad_radii = base + "[truncation]\nR0 = 3.0\nR1 = 1.0\n"
    path = tmp_path / "bad.cfg"
    path.write_text(bad_radii)
    with pytest.raises((ConfigError, OutOfRange)):
        ExperimentConfig.from_file(path)
    # [truncation] reaches no solver: any radii, valid or not, are refused
    # as an unknown section instead of being parsed and ignored
    path.write_text(base + "[truncation]\nR0 = 1.0\nR1 = 3.0\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        ExperimentConfig.from_file(path)
    path.write_text(base + "[sovler]\npoho_tol = 1e-8\n")
    with pytest.raises(ConfigError, match="sovler"):
        ExperimentConfig.from_file(path)
    # the output directory is --out, and the multiplicity radii are the
    # constants harness.DELTA and DELTA_TARGET: none is a config entry
    path.write_text(base + "[output]\ndir = out\n")
    with pytest.raises(ConfigError, match=r"unknown config section.*output"):
        ExperimentConfig.from_file(path)
    for key in ("delta", "delta_target"):
        path.write_text(base + f"[sweep]\n{key} = 1.0\n")
        with pytest.raises(ConfigError, match=rf"unknown key.*'{key}'"):
            ExperimentConfig.from_file(path)
    # only N = 1 has operators: N = 2 is rejected by the regime check
    path.write_text(base.replace("N = 1", "N = 2").replace("q = 3.0", "q = 1.8"))
    with pytest.raises(ConfigError, match="N must be 1"):
        ExperimentConfig.from_file(path)
    bad_eps = base + "[sweep]\neps_list = 0.1, 0.2, 0.4\n"
    path.write_text(bad_eps)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)
    # every eps must be positive: rejected when the file loads, not by
    # OutOfBox from the last positive cell of a sweep
    for eps_list in ("0.2, 0.1, -0.1", "0.2, 0.1, 0.0"):
        path.write_text(base + f"[sweep]\neps_list = {eps_list}\n")
        with pytest.raises(ConfigError,
                           match=r"eps_list in \[sweep\] must be positive"):
            ExperimentConfig.from_file(path)
    # the barycenter's radius must be positive: rejected when the file
    # loads, not after every solve of a sweep has run
    for key, value in (("box_radius", "0.0"), ("box_radius", "-3")):
        path.write_text(base + f"[sweep]\n{key} = {value}\n")
        with pytest.raises(ConfigError,
                           match=rf"{key} in \[sweep\] must be positive"):
            ExperimentConfig.from_file(path)
    # values that fail to parse, a missing section and a kind no builtin
    # has all surface as ConfigError
    path.write_text(base.replace("points = 2048", "points = many"))
    with pytest.raises(ConfigError, match="invalid config"):
        ExperimentConfig.from_file(path)
    path.write_text(base[base.index("[grid]"):])
    with pytest.raises(ConfigError, match="invalid config"):
        ExperimentConfig.from_file(path)
    path.write_text(base.replace("kind = constant", "kind = sampled"))
    with pytest.raises(ConfigError, match="unknown potential kind"):
        ExperimentConfig.from_file(path)
    # a constant potential reads neither centers nor width: naming one of
    # them is an error, not a key parsed and ignored
    for key, value in (("centers", "-8.0, 8.0"), ("width", "2.0")):
        path.write_text(base + f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_file(path)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.cfg")


def test_report_schema_and_atomicity(tmp_path):
    rows = [ReportRow("unit", 0.1, 1.5, 0.0, 0.18, -0.12, 1e-3, 1e-7,
                      7.99, 0.01, 42, True)]
    path = tmp_path / "report.csv"
    write_report(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == f"# {SCHEMA_VERSION}"
    assert text[1].split(",") == list(ReportRow.FIELDS)
    assert "unit" in text[2]
    assert not list(tmp_path.glob("*.tmp"))
    # the verification battery's report goes through the same writer
    check = tmp_path / "verify.csv"
    write_report([("riesz_kernel_oracle", "Passed", "1.0e-06", "1.0e-04")],
                 check, CHECK_FIELDS)
    text = check.read_text().splitlines()
    assert text[:2] == [f"# {SCHEMA_VERSION}", "check,status,measured,tolerance"]
    assert text[2] == "riesz_kernel_oracle,Passed,1.0e-06,1.0e-04"
    assert not list(tmp_path.glob("*.tmp"))


def test_default_config_valid():
    # the config holds only the problem, and nothing mutates it
    import dataclasses

    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "exps", "grid", "a", "potential", "eps_list", "box_radius"]
    cfg = default_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.a = 2.0
    assert cfg.exps.p == pytest.approx(7.5, rel=1e-12)
    assert cfg.eps_list == (0.4, 0.2, 0.1)
    assert cfg.potential.kind == "double_well"


def test_hs_distance_mirror_structure(grid_unit, rng, exps):
    from choqlab.harness import _hs_distance
    u = project_mass(make_positive_field(grid_unit, rng), 1.0)
    far = translate(u, 300)
    # unaligned: genuinely different functions
    assert _hs_distance(u, far, exps.s, aligned=False) > 0.5
    # aligned: translates collapse
    assert _hs_distance(u, far, exps.s, aligned=True) < 1e-6


def _verdict(fields, wells):
    # judge hand-built smallest-eps rows: each row carries its field's
    # barycenter (eps 1, cutoff beyond the box), level 0.2 and lambda -0.1
    from choqlab.harness import _multiplicity_verdict

    rows = [ReportRow("concentration", 1.0, 1.0, 0.0, 0.2, -0.1, 0.0, 0.0,
                      barycenter(f, 1.0, box_radius=24.0), 0.0, 5, True)
            for f in fields]
    return _multiplicity_verdict(default_config(), rows, fields, wells)


def test_multiplicity_verdict_on_hand_built_pairs(grid_unit, rng):
    u = project_mass(make_positive_field(grid_unit, rng), 1.0)
    far = translate(u, 300)
    wells = [barycenter(f, 1.0, box_radius=24.0) for f in (u, far)]
    # a mirror pair: distinct functions at distinct wells
    out = _verdict([u, far], wells)
    assert out["reason"] is None and out["passed"] is True
    assert out["level_gap"] == 0.0
    assert [row.experiment for row in out["rows"]] == ["multiplicity"] * 2
    # one field twice: the pair collapsed
    out = _verdict([u, u], wells)
    assert out["passed"] is False
    assert out["reason"].startswith("solutions collapsed")
    # wells closer than 2 DELTA = 3.2
    out = _verdict([u, far], [0.0, 2.0])
    assert out["passed"] is False
    assert out["reason"].startswith("wells merged")


def test_concentration_gates_on_convergence(monkeypatch):
    # a small single-well sweep whose distances to M shrink to well under
    # DELTA_TARGET; with every cell reported unconverged it must not pass
    import dataclasses

    import choqlab.harness as harness
    from choqlab.spectral import Grid

    cfg = dataclasses.replace(
        default_config(), grid=Grid(1, 120.0, 2048),
        potential=PotentialSpec(kind="single_well", centers=(4.0,), width=1.0,
                                v_inf=0.2),
        box_radius=5.0)
    real = harness.solve_nonautonomous

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(harness, "solve_nonautonomous", unconverged)
    out = harness.run_concentration(cfg)
    assert out["monotone"] and out["dists"][-1] <= DELTA_TARGET
    assert not any(row.converged for row in out["rows"])
    assert out["passed"] is False


def test_concentration_gates_on_the_autonomous_seed(monkeypatch):
    # the autonomous solve seeds every chain and is the level b0 of the
    # gaps: reported unconverged, the sweep fails though every cell converged
    import dataclasses

    import choqlab.harness as harness
    from choqlab.spectral import Grid

    cfg = dataclasses.replace(
        default_config(), grid=Grid(1, 240.0, 2048),
        potential=PotentialSpec(kind="single_well", centers=(8.0,), width=2.0,
                                v_inf=0.2))
    real = harness.solve_autonomous

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(harness, "solve_autonomous", unconverged)
    out = harness.run_concentration(cfg)
    assert out["monotone"] and out["dists"][-1] <= DELTA_TARGET
    assert all(row.converged for row in out["rows"])
    assert out["autonomous_converged"] is False
    assert out["passed"] is False


def test_single_well_sweep_passes():
    # one well is one chain: its three cells run in turn, each seeded by the
    # converged field of the previous eps
    import dataclasses

    from choqlab.harness import run_concentration

    cfg = dataclasses.replace(
        default_config(),
        potential=PotentialSpec(kind="single_well", centers=(8.0,), width=2.0,
                                v_inf=0.2))
    out = run_concentration(cfg, threads=2)
    assert len(out["rows"]) == 3
    assert all(row.converged for row in out["rows"])
    assert out["autonomous_converged"] is True
    assert out["passed"] is True


def test_concentration_places_every_cell_before_any_solve(monkeypatch):
    # eps 0.07 puts the wells at y/eps = +-114 in the 240 box, where the
    # seed's support enters the outer 1/16 shell: OutOfBox ends the sweep
    # before the autonomous solve and before any cell is solved
    import dataclasses

    import choqlab.harness as harness

    solves = []

    def refuse(*args, **kwargs):
        solves.append(args)
        raise AssertionError("a solve ran before every cell was placed")

    monkeypatch.setattr(harness, "solve_autonomous", refuse)
    monkeypatch.setattr(harness, "solve_nonautonomous", refuse)
    cfg = dataclasses.replace(default_config(), eps_list=(0.4, 0.2, 0.07))
    with pytest.raises(OutOfBox, match="outer 1/16 shell"):
        harness.run_concentration(cfg)
    assert solves == []


def test_chained_cells_take_short_newton_tails(monkeypatch):
    # continuation in eps: the eps 0.2 and 0.1 cells of each well start from
    # the converged field of the previous eps, so Newton takes at most 7
    # steps and no halving (from make_profile seeds: 8/1 and 12/3)
    import choqlab.harness as harness

    real = harness.solve_nonautonomous
    newton = {}

    def recorded(*args, **kwargs):
        res = real(*args, **kwargs)
        newton[res.level] = res.newton
        return res

    monkeypatch.setattr(harness, "solve_nonautonomous", recorded)
    out = harness.run_concentration(default_config(), threads=2)
    assert out["passed"] is True
    chained = [newton[row.level] for row in out["rows"] if row.eps < 0.4]
    assert len(chained) == 4
    assert all(st.steps <= 7 and st.backtracks == 0 for st in chained)


def test_concentration_rows_do_not_depend_on_threads():
    # each well's chain is one deterministic sequence of solves, whichever
    # worker runs it
    import dataclasses

    from choqlab.harness import run_concentration
    from choqlab.spectral import Grid

    cfg = dataclasses.replace(default_config(), grid=Grid(1, 240.0, 2048))
    one, two = (run_concentration(cfg, threads=t) for t in (1, 2))
    assert [r.as_list() for r in one["rows"]] == [r.as_list() for r in two["rows"]]
    assert one["dists"] == two["dists"]
    assert one["multiplicity"] == two["multiplicity"]


def test_concentration_rejects_thread_counts_below_one():
    # the cells run on a pool of `threads` workers; 0 or fewer is an input
    # error before any solve
    from choqlab.harness import run_concentration

    for threads in (0, -1):
        with pytest.raises(OutOfRange):
            run_concentration(default_config(), threads=threads)


@pytest.mark.parametrize("points", [1024, 4096])
def test_concentration_survives_alias_risk(points):
    # on coarse grids the descent's trials are rough; the line search scores
    # them without dilating (V frozen at the trial), and only a rescale of an
    # accepted iterate dilates, so no cell meets AliasRisk: every cell is
    # solved and reported, and the Newton endgame converges each of them
    import dataclasses

    from choqlab.harness import run_concentration
    from choqlab.spectral import Grid

    cfg = dataclasses.replace(default_config(), grid=Grid(1, 240.0, points))
    out = run_concentration(cfg)
    assert not out["skipped"]
    assert len(out["rows"]) == 6
    assert all(np.isfinite(row.level) for row in out["rows"])
    assert all(row.converged for row in out["rows"])


def test_config_solver_section_is_refused(tmp_path):
    base = """
[params]
N = 1
s = 0.4
alpha = 0.5
q = 3.0
[grid]
extent = 96.0
points = 2048
[mass]
a = 1.5
[potential]
kind = constant
"""
    path = tmp_path / "solver.cfg"
    # the former settings are constants now (solver.POHO_TOL among them), or
    # read off the solve: a [solver] section, even an empty one, is an
    # unknown section
    for body in [""] + [f"{key} = 1\n" for key in (
            "poho_tol", "step", "refine", "newton_tol", "switch_tol",
            "alias_tol", "max_iter", "newton_max", "grad_tol")]:
        path.write_text(base + "[solver]\n" + body)
        with pytest.raises(ConfigError, match=r"unknown config section.*solver"):
            ExperimentConfig.from_file(path)
    # a key no field reads is an error, in any section
    path.write_text(base.replace("a = 1.5", "a = 1.5\nmas = 2.0"))
    with pytest.raises(ConfigError, match="mas"):
        ExperimentConfig.from_file(path)


def test_readme_config_is_the_default(tmp_path):
    # the README's INI block is documented to reproduce default_config()
    import dataclasses
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.cfg"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    cfg = ExperimentConfig.from_file(path)
    ref = default_config()
    for f in dataclasses.fields(ref):
        assert getattr(cfg, f.name) == getattr(ref, f.name), f.name
