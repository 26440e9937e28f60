"""Convex-body projection geometry.

Polytopes and zonotopes with exact support/volume/surface computations,
shadow (projection) functionals, quermassintegrals, the classical positions
(minimal surface area, isotropic, John, Loewner, minimal mean width), and a
verification suite that tests a catalog of shadow inequalities on a body
corpus at desk scale.
"""

from .bodies import (BodySpec, ball_approx, corpus, cross_polytope, cube,
                     from_generators, from_name, from_points, random_hull,
                     random_zonotope, read_body, simplex, write_body)
from .bodyops import project_body, to_polytope, transform_body
from .checks import (CHECK_IDS, CHECK_MAP, CHECKS, BodyContext, CheckResult,
                     CheckSpec, SuiteConfig, run_check)
from .polytope import Polytope
from .positions import (PositionResult, isotropic_position, john_position,
                        lowner_position, min_mean_width_position,
                        minimal_surface_position)
from .quermass import b_constant, omega, quermassintegral, vrad
from .sampling import (Estimate, RngSeed, grassmann_frames, mc_estimate,
                       minimize_on_grassmannian, minimize_on_sphere,
                       sphere_points)
from .suite import extremizer_search, run_suite
from .zonotope import Zonotope, projection_body, zonotope_to_polytope

__version__ = "0.1.0"

__all__ = [
    "BodySpec", "ball_approx", "corpus", "cross_polytope", "cube",
    "from_generators", "from_name", "from_points", "random_hull",
    "random_zonotope", "read_body", "simplex", "write_body",
    "project_body", "to_polytope", "transform_body",
    "CHECK_IDS", "CHECK_MAP", "CHECKS", "BodyContext", "CheckResult",
    "CheckSpec", "SuiteConfig", "run_check",
    "Polytope",
    "PositionResult", "isotropic_position", "john_position",
    "lowner_position", "min_mean_width_position",
    "minimal_surface_position",
    "b_constant", "omega", "quermassintegral", "vrad",
    "Estimate", "RngSeed", "grassmann_frames", "mc_estimate",
    "minimize_on_grassmannian", "minimize_on_sphere", "sphere_points",
    "extremizer_search", "run_suite",
    "Zonotope", "projection_body", "zonotope_to_polytope",
    "__version__",
]
