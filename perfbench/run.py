"""choqlab benchmark: time to a certified solution, set-up cost and memory.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 30 --trace 0

Workloads: concentration and kernels (see workloads.py); between them
they reach every layer.

The run imports choqlab from ``src/`` next to this directory, warms the
kernel caches of the workload's grids, then repeats units of work, each
checked against its certificates, until the next unit would end past
``--seconds`` (at least one unit runs).  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` one more unit runs under the layer tracer and
the JSON holds the per-layer metrics instead.  Everything else printed is
for people: the environment, every metric with its unit, the span table,
how far the outputs moved from ``reference.json`` and, as one JSON line,
this run's outputs (to paste into ``reference.json`` when a change means
to move them).

BLAS/OpenMP pools are pinned to one thread, so the harness's two-thread
pool in the concentration workload is the only parallelism.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# before numpy loads (choqlab imports it in main)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

# the wrapped layers must cover all but this share of the traced wall on
# the main thread, and of each worker's span from its first call to its last
COVERAGE_TOL = 0.05

# set-up time is the median of this many set-ups (import choqlab, then warm
# the kernel caches): the run's own and the rest in fresh interpreters,
# since both happen once a process
SETUP_SAMPLES = 5

# wrapped functions each workload must reach: a wrapper that records no
# call means the tracer lost a binding
EXPECTED_CALLS = {
    "concentration": ("harness.run_concentration", "harness.barycenter",
                      "solver.solve_autonomous", "solver.solve_nonautonomous",
                      "solver.make_profile", "solver.krylov",
                      "spectral.riesz_potential", "spectral.translate",
                      "spectral.dilate", "spectral.band_limit",
                      "energy.hartree_jvp", "fiber.extract_profile",
                      "fiber.fiber_maximizer"),
    "kernels": ("spectral.random_field", "spectral.riesz_potential",
                "spectral.kinetic_energy_free", "spectral.fractional_laplacian_free",
                "energy.hartree_jvp"),
}


# which end-to-end metric each per-layer metric should move, and on which
# workload (first matching key wins)
MOVES = (
    ("spectral.kernel_build.", "setup_s on kernels"),
    ("spectral.fft.calls", "wall_s on concentration"),
    ("spectral.fft.mbytes_computed",
     "wall_s on concentration and kernels; computed from transform lengths"),
    (".n2e", "wall_s on kernels"),
    (".fft_calls", "transforms per operator call; wall_s on kernels (dilate: "
                   "on concentration)"),
    ("spectral.", "wall_s on concentration"),
    ("energy.riesz_per_jvp",
     "wall_s on concentration; 2.0 while each jvp re-solves the fixed potential"),
    ("energy.", "wall_s on concentration"),
    ("fiber.", "wall_s on concentration: line-search ray levels"),
    ("solver.descent_iters", "wall_s on concentration"),
    ("solver.krylov.info_nonzero", "retried/failed Krylov solves; should not move"),
    ("solver.krylov.", "wall_s on concentration"),
    ("solver.solve.self_s", "wall_s on concentration: descent glue"),
    ("harness.", "wall_s on concentration"),
    ("trace.", "tracer health"),
)


def _moves(name: str) -> str:
    return next((text for key, text in MOVES if key in name), "")


def _load_choqlab():
    """Import choqlab from this checkout's sources; the import time."""
    if not (SRC / "choqlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no choqlab sources in {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import choqlab
    elapsed = perf_counter() - t0
    if Path(choqlab.__file__).resolve().parent != SRC / "choqlab":
        raise SystemExit(f"perfbench: imported choqlab from {choqlab.__file__}")
    return elapsed


def _fresh_setup_s(workload: str, seed: int) -> float:
    """Time the set-up (import choqlab, warm-up) in a fresh interpreter."""
    code = ("import sys; from time import perf_counter; sys.path[:0] = sys.argv[1:3]; "
            "t0 = perf_counter(); import choqlab; t1 = perf_counter(); "
            "import workloads; wl = workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])); "
            "t2 = perf_counter(); wl.warm_up(); print(t1 - t0 + perf_counter() - t2)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE), workload,
                          str(seed)], check=True, capture_output=True, text=True,
                         timeout=120)
    return float(out.stdout)


def _environment() -> dict:
    import numpy
    import scipy
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "numpy_fft": "pocketfft" if hasattr(numpy.fft, "_pocketfft") else "unknown",
           "thread_pins": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return env


def _run_units(wl, seconds: float):
    """Repeat units until the next one would end past the time budget."""
    units = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        unit = _checked_unit(wl, len(units))
        unit.elapsed = perf_counter() - t0
        units.append(unit)
        if perf_counter() - start + unit.elapsed > seconds:
            return units


def _checked_unit(wl, rep: int):
    import workloads
    from choqlab.errors import ChoqlabError
    try:
        return wl.unit(rep)
    except ChoqlabError as exc:
        return workloads.Unit(wl.ops, [f"{type(exc).__name__}: {exc}"], {}, "")


def _wall(unit) -> float:
    return unit.wall_s or unit.elapsed


def _per_layer(wl, units, traced, first_calls, sm, tracer_wall: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the traced unit."""
    import layertrace
    import workloads
    m = {}
    for op in ("riesz_potential", "kinetic_energy_free", "fractional_laplacian_free",
               "dilate"):
        name = f"spectral.{op}"
        m[f"{name}.calls"] = (sm.calls(name), "count")
        m[f"{name}.self_s"] = (sm.self_s(name), "s")
    m["spectral.band_limit.self_s"] = (sm.self_s("spectral.band_limit"), "s")
    m["spectral.fft.calls"] = (sm.fft_calls, "count")
    m["spectral.fft.mbytes_computed"] = (sm.fft_bytes / 1e6, "MB")

    kernel_times = {}
    for unit in units:
        for key, t in unit.op_times.items():
            kernel_times.setdefault(key, []).append(t)
    for op in workloads.KERNEL_OPS:
        for g in workloads.KERNEL_GRIDS:
            t = kernel_times.get((op, g.points))
            m[f"spectral.{op}.n2e{g.points.bit_length() - 1}.s"] = (
                statistics.median(t) if t else 0.0, "s")
    for op in workloads.KERNEL_OPS + ("dilate",):
        name = f"energy.{op}" if op == "hartree_jvp" else f"spectral.{op}"
        calls = sm.calls(name)
        m[f"spectral.{op}.fft_calls"] = (sm.fft_calls_in(name) / calls if calls else 0.0,
                                         "count")
    for g in workloads.KERNEL_GRIDS:
        build = 0.0
        if wl.name == "kernels":
            steady = (statistics.median(kernel_times[("riesz_potential", g.points)])
                      + statistics.median(kernel_times[("kinetic_energy_free", g.points)]))
            build = first_calls[g.points] - steady
        m[f"spectral.kernel_build.n2e{g.points.bit_length() - 1}.s"] = (build, "s")

    for name in ("energy.hartree_jvp", "energy.hartree_energy"):
        m[f"{name}.calls"] = (sm.calls(name), "count")
        m[f"{name}.self_s"] = (sm.self_s(name), "s")
    jvps = sm.calls("energy.hartree_jvp")
    m["energy.riesz_per_jvp"] = (
        sm.child_calls("energy.hartree_jvp", "spectral.riesz_potential") / jvps
        if jvps else 0.0, "ratio")

    m["fiber.extract_profile.calls"] = (sm.calls("fiber.extract_profile"), "count")
    m["fiber.extract_profile.self_s"] = (sm.self_s("fiber.extract_profile"), "s")
    m["fiber.fiber_maximizer.self_s"] = (sm.self_s("fiber.fiber_maximizer"), "s")

    k = layertrace.KRYLOV
    m["solver.descent_iters"] = (sm.descent_iters, "count")
    m["solver.krylov.calls"] = (sm.calls(k), "count")
    m["solver.krylov.matvecs"] = (sm.matvecs, "count")
    m["solver.krylov.s"] = (sm.total_s(k), "s")
    m["solver.krylov.self_s"] = (sm.self_s(k), "s")
    m["solver.krylov.info_nonzero"] = (sum(1 for i in sm.krylov_info if i != 0), "count")
    m["solver.solve.self_s"] = (sum(sm.self_s(n) for n in layertrace.SOLVES), "s")

    cells = [t1 - t0 for t0, t1 in sm.spans("solver.solve_nonautonomous", worker=True)]
    seeds = sm.spans("solver.solve_autonomous", parent="harness.run_concentration")
    workers = [(t0, t1) for _, p, t0, t1, w in sm.intervals if w and p is None]
    efficiency = 0.0
    if cells and workers:
        phase = max(t1 for _, t1 in workers) - min(t0 for t0, _ in workers)
        efficiency = sum(cells) / (wl.threads * phase)
    m["harness.cell_s.p50"] = (statistics.median(cells) if cells else 0.0, "s")
    m["harness.cell_s.max"] = (max(cells) if cells else 0.0, "s")
    m["harness.autonomous_seed_s"] = (float(sum(t1 - t0 for t0, t1 in seeds)), "s")
    m["harness.parallel_efficiency"] = (efficiency, "ratio")

    untraced = statistics.median(_wall(u) for u in units)
    m["trace.overhead_frac"] = (_wall(traced) / untraced - 1.0, "ratio")
    m["trace.unattributed_s"] = (tracer_wall - sm.main_root_s + sm.worker_gap_s, "s")
    return m


def _trace_checks(wl, units, traced, sm, tracer, tracer_wall: float) -> list:
    """Failures of the tracer's own checks (empty when all hold)."""
    failures = []
    if traced.digest != units[0].digest:
        failures.append("traced outputs differ from untraced outputs")
    missing = [n for n in EXPECTED_CALLS[wl.name] if sm.calls(n) == 0]
    unknown = [n for n in EXPECTED_CALLS[wl.name] if n not in tracer.wrapped]
    if missing or unknown:
        failures.append(f"self-test: no calls recorded for {missing + unknown}")
    # time outside every wrapped call: on the main thread, the traced wall
    # less its root spans; on a worker, the gaps between its root spans
    main_gap = tracer_wall - sm.main_root_s
    if main_gap > COVERAGE_TOL * tracer_wall:
        failures.append(f"layers leave {main_gap:.3f} of {tracer_wall:.3f} s "
                        "unattributed on the main thread")
    if sm.worker_gap_s > COVERAGE_TOL * sm.worker_extent_s:
        failures.append(f"layers leave {sm.worker_gap_s:.3f} of {sm.worker_extent_s:.3f} s "
                        "unattributed on the worker threads")
    print(f"trace check: digests equal={traced.digest == units[0].digest}, "
          f"self-test wrapped {len(tracer.wrapped)} functions, missing={missing + unknown}, "
          f"unattributed {main_gap:.4f} of {tracer_wall:.4f} s (main), "
          f"{sm.worker_gap_s:.4f} of {sm.worker_extent_s:.4f} s (workers), "
          f"self times {sm.self_sum_s:.4f} s")
    return failures


def _print_span_table(sm) -> None:
    print(f"{'span':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'fft/call':>8s}")
    for name, (calls, total, self_s, ffts) in sorted(
            sm.agg.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:44s} {calls:9d} {total:10.4f} {self_s:10.4f} {ffts / calls:8.2f}")


def _print_drift(name: str, seed: int, outputs: dict) -> None:
    print("outputs: " + json.dumps({name: {"seed": seed, "outputs": outputs}},
                                   sort_keys=True))
    try:
        ref = json.loads(REFERENCE.read_text()).get(name)
    except (OSError, ValueError):
        ref = None
    if not ref:
        print(f"drift: no reference outputs recorded for {name}")
        return
    print(f"drift vs reference (seed {ref['seed']}): key, reference, now, |now-ref|, rel")
    for key, now in outputs.items():
        was = ref["outputs"].get(key)
        if was is None:
            print(f"  {key:36s} {'-':>22s} {now!r:>22}")
            continue
        diff = abs(now - was)
        rel = diff / abs(was) if was else diff
        print(f"  {key:36s} {was!r:>22} {now!r:>22} {diff:10.3e} {rel:10.3e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("concentration", "kernels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = _load_choqlab()
    import layertrace
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    t0 = perf_counter()
    first_calls = wl.warm_up()
    warm_s = perf_counter() - t0
    # set-up time is an end-to-end metric: a traced run does not report it
    samples = 1 if args.trace else SETUP_SAMPLES
    setups = [import_s + warm_s] + [_fresh_setup_s(wl.name, args.seed)
                                    for _ in range(samples - 1)]
    setup_s = statistics.median(setups)
    print(f"env: {json.dumps(_environment())}")
    print(f"workload {wl.name}, seed {args.seed}; this process: import {import_s:.3f} s, "
          f"kernel warm-up {warm_s:.3f} s; set-ups " + ", ".join(f"{t:.3f}" for t in setups)
          + f" s (median {setup_s:.4f})")

    units = _run_units(wl, args.seconds)
    walls = [_wall(u) for u in units]
    e2e = {"wall_s": (statistics.median(walls), "s"),
           "setup_s": (setup_s, "s"),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    failures = [f for u in units for f in u.failures]
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    outputs = dict(units[0].outputs)
    print(f"units: {len(units)}, wall per unit: "
          + ", ".join(f"{w:.4f}" for w in walls)
          + f" s (median {e2e['wall_s'][0]:.4f})")

    layers = {}
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        t0 = perf_counter()
        try:
            traced = _checked_unit(wl, 0)
        finally:
            tracer_wall = perf_counter() - t0
            tracer.uninstall()
        traced.elapsed = tracer_wall
        sm = tracer.summary()
        attempted += traced.ops
        failed += traced.failed
        failures += traced.failures
        failures += _trace_checks(wl, units, traced, sm, tracer, tracer_wall)
        layers = _per_layer(wl, units, traced, first_calls, sm, tracer_wall)
        outputs["krylov_matvecs"] = sm.matvecs
        outputs["krylov_calls"] = sm.calls(layertrace.KRYLOV)
        outputs["fft_calls"] = sm.fft_calls
        _print_span_table(sm)

    _print_drift(wl.name, args.seed, outputs)
    if not wl.fresh_inputs and any(u.digest != units[0].digest for u in units):
        failures.append("repeated units differ bit for bit")
    for f in dict.fromkeys(failures):
        print(f"FAILED ({failures.count(f)}x): {f}")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"metric {name:44s} {value!r:>24} {unit:6s} {_moves(name)}")
    correct = not failures
    if failures and not failed:
        failed = 1                # a failed check counts as a failed op
    metrics = layers if args.trace else e2e
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
