"""Trapping potentials V >= 0 built from their zero set M.

The wells multiply factors 1 - exp(-((x-c)/w)^2), so V vanishes exactly at
the well centers and plateaus at v_inf away from them (assumption (V): the
asymptotic floor is strictly positive).  Without centers V == v_inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .spectral import Grid

__all__ = ["PotentialSpec", "dist_to_set"]


@dataclass(frozen=True)
class PotentialSpec:
    """Potential in slow coordinates z; sampled on the grid as V(eps x).

    centers is the zero set M, at most two points (the multiplicity verdict
    judges two wells); width is the common Gaussian well width.
    """

    centers: tuple = ()
    width: float = 0.3
    v_inf: float = 1.0

    def __post_init__(self):
        if len(self.centers) > 2:
            raise OutOfRange(f"at most two wells, got {len(self.centers)} centers")
        if self.centers and not self.width > 0.0:
            raise OutOfRange("well width must be positive")
        if self.centers and not self.v_inf > 0.0:
            raise OutOfRange("well potentials require v_inf > 0 (assumption V)")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Evaluate V at slow-coordinate points z."""
        z = np.asarray(z, dtype=float)
        out = np.full_like(z, float(self.v_inf), dtype=float)
        for c in self.centers:
            out = out * (1.0 - np.exp(-(((z - c) / self.width) ** 2)))
        return out

    def sample_on(self, grid: Grid, eps: float) -> np.ndarray:
        """V(eps x) on the solver grid (fast coordinates x)."""
        return self(eps * grid.axis())


def dist_to_set(point: float, m_points) -> float:
    """Distance from a point to the finite set M."""
    return float(np.min(np.abs(np.asarray(m_points, dtype=float) - point)))
