"""Solvers for cone-constrained difference-of-convex programs.

The package provides DC decompositions for matrix-valued maps and the
largest-eigenvalue scalarization, a convex-concave procedure (CCP) and its
penalty variant for programs of the form

    minimize  g0(x) - h0(x)
    subject to  G(x) - H(x) <=_K 0,   x in A,

plus criticality/KKT certificates and a small problem library.
"""

from .ccp import CcpConfig, Record, Trace, check_strong_descent, run_ccp
from .certificates import (CriticalityCertificate, KktResiduals, certify,
                           criticality_residual,
                           generalized_criticality_residual, infeasibility,
                           kkt_residual)
# the cones inner product is not re-exported here: `inner` is the name of
# the inner-solver submodule (use coneccp.cones.inner)
from .cones import (Cone, ConeElement, Orthant, ProductCone, PsdCone,
                    cone_from_descriptor, dist_to_neg_cone,
                    lambda_max_scalarize, project_pos, slack_cost)
from .convexity import verify_k_convexity
from .dc import (ComponentwiseDcMatrix, ConeDcMap, ConeDerivative,
                 ConvexOracle, KConvexOracle, ScalarDcFunction,
                 SmoothKConvexOracle, SmoothMatrixMap,
                 estimate_hessian_bound, lambda_max_dc_decomposition,
                 lambda_max_subgradient, offdiag_dc_extraction,
                 regularized_dc_decomposition)
from .errors import (BoundTooSmall, ConeCcpError, InfeasibleStart,
                     InvalidElement, InvalidPenalty, InvariantViolation,
                     OracleCheckError, SchemaError, SubproblemInfeasible)
from .feasible import FeasibleSet, box
from .inner import SlaterProbe, SolveReport, slater_probe, solve_convex
from .library import (ProblemInstance, builtin, example29, quadratic_sdp,
                      random_componentwise_dc, stiefel, with_strong_convexity)
from .penalty import (PenaltyConfig, check_merit_decrease,
                      detect_feasible_handoff, run_penalty_ccp)
from .problem_io import load_problem
from .subproblem import (LinearizedConstraint, SubproblemSpec,
                         build_constrained, build_penalized, recover_slack)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
