"""Trapping potentials V >= 0 with an exactly constructed zero set M.

Builtins place wells by multiplying factors 1 - exp(-((x-c)/w)^2), so V
vanishes exactly at the well centers and plateaus at v_inf away from them
(assumption (V): the asymptotic floor is strictly positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .spectral import Grid

__all__ = ["PotentialSpec", "dist_to_set"]

_BUILTIN_KINDS = ("constant", "single_well", "double_well")


@dataclass(frozen=True)
class PotentialSpec:
    """Potential in slow coordinates z; sampled on the grid as V(eps x).

    kind "constant": V == v_inf everywhere, with no wells.  Wells: centers
    is a tuple of points, width the common Gaussian well width.
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
        """The zero set M of a well potential, exact by construction; ()
        for a constant potential."""
        if self.kind in ("single_well", "double_well"):
            return tuple(self.centers)
        return ()


def dist_to_set(point: float, m_points) -> float:
    """Distance from a point to the finite set M."""
    return float(np.min(np.abs(np.asarray(m_points, dtype=float) - point)))
