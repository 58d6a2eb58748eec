"""Trapping potentials V >= 0 with an exactly constructed zero set M.

Builtins place wells by multiplying factors 1 - exp(-((x-c)/w)^2), so V
vanishes exactly at the well centers and plateaus at v_inf away from them
(assumption (V): the asymptotic floor is strictly positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyM, OutOfRange
from .spectral import Field, Grid

__all__ = ["PotentialSpec", "detect_M", "dist_to_set"]

_BUILTIN_KINDS = ("constant", "single_well", "double_well", "sampled")


@dataclass(frozen=True)
class PotentialSpec:
    """Potential in slow coordinates z; sampled on the grid as V(eps x).

    kind "constant": V == v_inf everywhere (degenerate: M is empty unless
    v_inf == 0).  Wells: centers is a tuple of points, width the common
    Gaussian well width.  kind "sampled": values taken from a Field in
    slow coordinates on its own grid (nearest sample).
    """

    kind: str
    centers: tuple = ()
    width: float = 0.3
    v_inf: float = 1.0
    sample: Field | None = None

    def __post_init__(self):
        if self.kind not in _BUILTIN_KINDS:
            raise OutOfRange(f"unknown potential kind {self.kind!r}")
        if self.kind in ("single_well", "double_well"):
            want = 1 if self.kind == "single_well" else 2
            if len(self.centers) != want:
                raise OutOfRange(f"{self.kind} needs {want} centers, got "
                                 f"{len(self.centers)}")
            if self.width <= 0.0:
                raise OutOfRange("well width must be positive")
        if self.kind != "constant" and self.kind != "sampled" and self.v_inf <= 0.0:
            raise OutOfRange("builtin potentials require v_inf > 0 (assumption V)")
        if self.kind == "sampled" and self.sample is None:
            raise OutOfRange("sampled potential needs a Field")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Evaluate V at slow-coordinate points z."""
        z = np.asarray(z, dtype=float)
        if self.kind == "constant":
            return np.full(z.shape, float(self.v_inf))
        if self.kind == "sampled":
            g = self.sample.grid
            idx = np.rint((z + 0.5 * g.extent) / g.dx).astype(int) % g.points
            return self.sample.values[idx]
        out = np.full_like(z, float(self.v_inf), dtype=float)
        for c in self.centers:
            out = out * (1.0 - np.exp(-(((z - c) / self.width) ** 2)))
        return out

    def sample_on(self, grid: Grid, eps: float) -> np.ndarray:
        """V(eps x) on the solver grid (fast coordinates x)."""
        return self(eps * grid.axis())

    def well_points(self) -> tuple:
        if self.kind in ("single_well", "double_well"):
            return tuple(self.centers)
        return ()


def detect_M(pot: PotentialSpec, grid: Grid, eps: float, delta: float,
             tol_m: float = 1e-10):
    """Zero set M and its delta-neighborhood M_delta, in slow coordinates.

    For builtins the constructed centers are returned exactly; for sampled
    potentials the grid scan V(eps x) < tol_m decides.  A constant zero
    potential makes every point qualify, which is flagged as degenerate.
    """
    z = eps * grid.axis()
    vals = pot.sample_on(grid, eps)
    mask = vals < tol_m
    if pot.kind in ("single_well", "double_well"):
        m_points = np.asarray(pot.well_points(), dtype=float)
    else:
        if not np.any(mask):
            raise EmptyM(f"no grid point has V < {tol_m}")
        m_points = z[mask]
    degenerate = bool(np.all(mask))
    dists = np.abs(z[:, None] - np.asarray(m_points)[None, :]).min(axis=1)
    m_delta = z[dists <= delta]
    return m_points, m_delta, degenerate


def dist_to_set(point, m_points) -> float:
    """Distance from a point (a scalar or a length-1 array) to the finite
    set M."""
    m = np.asarray(m_points, dtype=float)
    return float(np.min(np.abs(m - np.asarray(point, dtype=float))))
