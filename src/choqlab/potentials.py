"""Trapping potentials V >= 0 with an exactly constructed zero set M.

Builtins place wells by multiplying factors 1 - exp(-((x-c)/w)^2), so V
vanishes exactly at the well centers and plateaus at v_inf away from them
(assumption (V): the asymptotic floor is strictly positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyM, OutOfRange
from .spectral import Grid

__all__ = ["PotentialSpec", "detect_M", "dist_to_set"]

_BUILTIN_KINDS = ("constant", "single_well", "double_well")

# V below this counts as zero in the grid scan for M
_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class PotentialSpec:
    """Potential in slow coordinates z; sampled on the grid as V(eps x).

    kind "constant": V == v_inf everywhere (degenerate: M is empty unless
    v_inf == 0).  Wells: centers is a tuple of points, width the common
    Gaussian well width.
    """

    kind: str
    centers: tuple = ()
    width: float = 0.3
    v_inf: float = 1.0

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
        if self.kind != "constant" and self.v_inf <= 0.0:
            raise OutOfRange("well potentials require v_inf > 0 (assumption V)")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Evaluate V at slow-coordinate points z."""
        z = np.asarray(z, dtype=float)
        if self.kind == "constant":
            return np.full(z.shape, float(self.v_inf))
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


def detect_M(pot: PotentialSpec, grid: Grid, eps: float):
    """Zero set M in slow coordinates and whether it is degenerate.

    For wells the constructed centers are returned exactly; for a constant
    potential the grid scan V(eps x) < _ZERO_TOL decides.  A constant zero
    potential makes every point qualify, which is flagged as degenerate.
    """
    z = eps * grid.axis()
    mask = pot.sample_on(grid, eps) < _ZERO_TOL
    if pot.kind in ("single_well", "double_well"):
        m_points = np.asarray(pot.well_points(), dtype=float)
    else:
        if not np.any(mask):
            raise EmptyM(f"no grid point has V < {_ZERO_TOL}")
        m_points = z[mask]
    return m_points, bool(np.all(mask))


def dist_to_set(point: float, m_points) -> float:
    """Distance from a point to the finite set M."""
    return float(np.min(np.abs(np.asarray(m_points, dtype=float) - point)))
