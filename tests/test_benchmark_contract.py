"""The bindings the benchmark's tracer relies on.

perfbench/run.py wraps choqlab's public functions from outside and fails
its self-test when a function it expects is never called; these tests
catch a rename or a signature change before the benchmark does."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from choqlab import solver
from choqlab.solver import SolveConfig, solve_nonautonomous
from conftest import DESK_MASS

ROOT = Path(__file__).resolve().parents[1]


def _expected_calls() -> dict:
    """EXPECTED_CALLS of perfbench/run.py, read from its source: importing
    run.py would set the thread environment variables of this process."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "EXPECTED_CALLS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no EXPECTED_CALLS")


def test_expected_calls_name_public_functions():
    # the tracer wraps the public functions each layer module defines; every
    # name the self-test expects (bar the Krylov wrapper) must be one of them
    names = {n for calls in _expected_calls().values() for n in calls}
    assert names
    for name in sorted(names - {"solver.krylov"}):
        layer, attr = name.split(".")
        mod = importlib.import_module(f"choqlab.{layer}")
        obj = getattr(mod, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, name
        assert obj.__name__ == attr, name   # not an alias of another function


def test_tracer_wraps_the_solver_krylov_binding():
    # perfbench/layertrace.py finds the Krylov solver as solver.lgmres by
    # identity; under another solver the traced self-test misses
    # solver.krylov and the benchmark refuses the run
    import scipy.sparse.linalg

    assert solver.lgmres is scipy.sparse.linalg.lgmres


def test_kernels_trace_self_test():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "kernels",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert record["correct"] is True, out.stdout
    assert record["failed"] == 0


def test_sampled_newton_reaches_hartree_jvp(exps, grid_unit, monkeypatch):
    # the tracer counts the Newton matvec through solver.hartree_jvp, and the
    # concentration workload expects the rescale's dilate, extract_profile
    # and fiber_maximizer among its calls
    names = ("hartree_jvp", "dilate", "extract_profile", "fiber_maximizer")
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(solver, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(solver, name, counting(name))
    # a short solve: five descent iterations at most, then two Newton steps
    monkeypatch.setattr(solver, "_MAX_ITER", 5)
    monkeypatch.setattr(solver, "_NEWTON_MAX", 2)
    x = grid_unit.axis()
    potential = 0.2 - 0.1 * np.exp(-(x / 8.0) ** 2)
    config = SolveConfig(grad_tol=1e-6, poho_tol=0.1)
    solve_nonautonomous(exps, potential, DESK_MASS, grid_unit, config=config)
    assert all(calls.values()), calls


def test_trace_rows_count_descent_iterations(autonomous_mu0):
    # the tracer reads solver.descent_iters as the trace rows whose phase is
    # "descent": one per descent iteration, then one row for Newton
    res = autonomous_mu0
    phases = [row[0] for row in res.trace]
    assert phases.count("descent") == res.iterations
    assert phases[-1] == "newton"
