"""Solver and verifier toolkit for potential mean field games of controls.

The package minimizes the transport-constrained primal cost of a
price-coupled congestion game on the periodic lattice, recovers the dual
fields (value function, price, congestion multiplier), cross-checks with an
independent Anderson-mixed fixed-point solver, and certifies candidate equilibria
through duality-gap, complementarity and residual reports, plus Sobolev-type
regularity diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    CFLViolation,
    ConfigParse,
    Diverged,
    HypothesisViolation,
    InvalidOption,
    MFGError,
    MissingArtifact,
    NegativeDensity,
    NoConvergence,
    NotPSD,
)
from .grid import Grid
from .model import CaseInfo, ProblemSpec, check_assumptions, classify_exponents
from .prox import prox_F, prox_kinetic_congestion, prox_Phi_star
from .verify import ResidualReport, Solution, complementarity_value, eval_B, eval_D, weak_solution_report
from .varsolve import ConvergenceLog, SolverOptions, solve_primal_dual, uniqueness_probe
from .picard import PicardOptions, PicardResult, feedback, picard_iterate, solve_fp, solve_hjb, update_price
from .diagnostics import RegularityRecord, diagnose, space_regularity, space_shift_sum, time_shift_sum
from .config import load_spec
from .instances import bump_instance, uniform_instance
