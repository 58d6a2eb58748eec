"""Outside-in tracing of the choqlab layers.

The tracer replaces each public function of the layer modules with a
wrapper that records a span: name, parent, start and end.  It patches
every choqlab module that bound the function at import (``from .spectral
import riesz_potential`` makes a second reference that patching
``choqlab.spectral`` alone would miss), and it restores every binding on
``uninstall``.  Spans live on per-thread stacks, so the harness thread pool
attributes work to the thread that did it.  Besides spans it counts:

* calls into the numpy.fft transform entry points, and the bytes those
  transforms read and write, computed from the array sizes;
* Krylov solves: the ``info`` code of every ``lgmres`` call in
  ``choqlab.solver`` and the matvecs it made, counted by wrapping the
  operator it is passed (the products themselves are untouched);
* descent iterations, from the ``trace`` of each returned SolveResult.

Aggregates are kept per thread and merged at the end, so every count is
exact however the threads interleave.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter

import numpy as np
from scipy.sparse.linalg import LinearOperator

LAYERS = ("spectral", "energy", "fiber", "solver", "harness")

# numpy.fft entry points that transform data (helpers such as fftfreq and
# fftshift are not transforms and are not counted)
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft")

SOLVES = ("solver.solve_autonomous", "solver.solve_nonautonomous")
KRYLOV = "solver.krylov"

# spans whose start and end are kept individually, besides every root span
# (the rest are only aggregated)
_INTERVALS = SOLVES + ("harness.run_concentration",)


class _ThreadState:
    """Span stack and aggregates of one thread."""

    def __init__(self, ident: int):
        self.ident = ident
        self.stack = []           # frames [name, child_s, fft_calls_at_entry]
        self.agg = {}             # name -> [calls, total_s, self_s, fft_calls]
        self.pairs = {}           # (parent, name) -> calls
        self.intervals = []       # (name, parent, start, end)
        self.root_s = 0.0         # summed duration of this thread's root spans
        self.fft_calls = 0
        self.fft_bytes = 0
        self.matvecs = 0
        self.krylov_info = []
        self.descent_iters = 0


class Tracer:
    """Installs span-recording wrappers into the choqlab layer modules."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []        # (namespace object, attribute, original)
        self.main_ident = threading.get_ident()
        self.wrapped = []         # span names of the wrapped functions

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    # -- spans --------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1][0] if st.stack else None
            frame = [name, 0.0, st.fft_calls]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                dur = t1 - t0
                rec = st.agg.get(name)
                if rec is None:
                    rec = st.agg[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                rec[3] += st.fft_calls - frame[2]
                key = (parent, name)
                st.pairs[key] = st.pairs.get(key, 0) + 1
                if st.stack:
                    st.stack[-1][1] += dur
                else:
                    st.root_s += dur
                if name in _INTERVALS or parent is None:
                    st.intervals.append((name, parent, t0, t1))
            if on_result is not None:
                on_result(st, parent, result)
            return result

        return wrapper

    def _count_descent(self, st, parent, result):
        # a solve nested in another solve is already counted by its caller
        if parent not in SOLVES:
            st.descent_iters += sum(1 for row in result.trace if row[0] == "descent")

    def _fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            st = tracer._state()
            st.fft_calls += 1
            st.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    def _krylov(self, fn):
        tracer = self

        def counted_lgmres(A, b, *args, **kwargs):
            st = tracer._state()

            def matvec(x):
                st.matvecs += 1
                return A.matvec(x)

            op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            x, info = fn(op, b, *args, **kwargs)
            st.krylov_info.append(int(info))
            return x, info

        return self._span(KRYLOV, counted_lgmres)

    # -- install / uninstall ------------------------------------------------

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        # import_module, not attribute access: choqlab.energy is the
        # function energy() that the package re-exports, not the module
        package = importlib.import_module("choqlab")
        modules = [package] + [importlib.import_module(f"choqlab.{m}")
                               for m in LAYERS]
        modules += [m for n, m in sorted(sys.modules.items())
                    if n.startswith("choqlab.") and m not in modules]
        replacements = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"choqlab.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                hook = self._count_descent if name in SOLVES else None
                replacements[id(obj)] = self._span(name, obj, hook)
                self.wrapped.append(name)
        solver = importlib.import_module("choqlab.solver")
        replacements[id(solver.lgmres)] = self._krylov(solver.lgmres)
        self.wrapped.append(KRYLOV)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._patch(mod, attr, replacements[id(obj)])
        for attr in FFT_ENTRY_POINTS:
            self._patch(np.fft, attr, self._fft(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- merged results -----------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self._states, self.main_ident)


class TraceSummary:
    """Merged aggregates of every thread that ran a traced call."""

    def __init__(self, states, main_ident):
        self.agg = {}
        self.pairs = {}
        self.intervals = []
        self.main_root_s = 0.0
        self.worker_extent_s = 0.0    # first root-span start to last end, per worker
        self.worker_gap_s = 0.0       # the part of that no root span covers
        self.fft_calls = self.fft_bytes = self.matvecs = self.descent_iters = 0
        self.krylov_info = []
        for st in states:
            for name, rec in st.agg.items():
                acc = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
            for key, n in st.pairs.items():
                self.pairs[key] = self.pairs.get(key, 0) + n
            self.intervals += [iv + (st.ident != main_ident,) for iv in st.intervals]
            roots = [(t0, t1) for _, parent, t0, t1 in st.intervals if parent is None]
            if st.ident == main_ident:
                self.main_root_s += st.root_s
            elif roots:
                extent = max(t1 for _, t1 in roots) - min(t0 for t0, _ in roots)
                self.worker_extent_s += extent
                self.worker_gap_s += extent - st.root_s
            self.fft_calls += st.fft_calls
            self.fft_bytes += st.fft_bytes
            self.matvecs += st.matvecs
            self.descent_iters += st.descent_iters
            self.krylov_info += st.krylov_info

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def fft_calls_in(self, name: str) -> int:
        """FFT calls made inside spans of name, children included."""
        return self.agg.get(name, [0, 0.0, 0.0, 0])[3]

    def child_calls(self, parent: str, name: str) -> int:
        return self.pairs.get((parent, name), 0)

    def spans(self, name: str, parent=None, worker=None):
        """(start, end) of the kept spans of name, optionally filtered."""
        return [(t0, t1) for n, p, t0, t1, w in self.intervals
                if n == name and (parent is None or p == parent)
                and (worker is None or w == worker)]

    @property
    def self_sum_s(self) -> float:
        return sum(rec[2] for rec in self.agg.values())
