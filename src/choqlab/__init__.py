"""choqlab: pseudospectral solver and verification lab for normalized
solutions of fractional Choquard equations with mixed Hartree terms."""

__version__ = "0.1.0"

from .params import (ExponentSet, MassThreshold, critical_level, hls_constant,
                     mass_threshold, riesz_normalization, s_alpha_reference,
                     sharp_constant, sobolev_constant, validate_regime)
from .spectral import (Field, Grid, band_limit, boundary_decay, dilate,
                       fractional_laplacian, fractional_laplacian_free,
                       kinetic_energy, kinetic_energy_free, mass,
                       project_mass, random_field, riesz_potential,
                       smooth_cutoff, translate)
from .energy import Evaluation, Truncation, energy, tau_eval, tau_prime
from .fiber import (FiberMax, FiberProfile, extract_profile, fiber_maximizer,
                    fiber_value, psi, ray_level)
from .solver import (GroundState, NewtonStats, SolveResult, default_init,
                     level_curves, make_profile, solve_autonomous,
                     solve_nonautonomous, solve_scalar_ground, x_star_root)
from .potentials import PotentialSpec
from .harness import (ExperimentConfig, ReportRow, barycenter, default_config,
                      run_concentration, run_verify)
from .snapshot import load_field, save_field
