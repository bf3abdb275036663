"""Linearization of perturbed Van der Pol and polynomial Lienard equations
through the generalized Cole-Hopf substitution psi = P + phi'/phi."""

from .catalog import (CatalogConstants, ClosedFormSolution, ComplexKError,
                      KZeroInconsistentError, AlphaNonzeroError, case1, case2,
                      case3, p_general)
from .colehopf import (AnnihilationReport, LedgerEntry, TransformBundle,
                       VdpParams, bundle_from_json, bundle_to_json,
                       seeded_construction, solve_chain, verify_annihilation,
                       verify_printed_coeffs)
from .expr import (Expr, EvalDomainError, ParseError, UnboundParameterError,
                   diff, lambdify, parse, simplify, subst, to_str)
from .lienard import LienardSpec, lienard_coeffs, riccati_u
from .odesolve import (DisjointSegmentsError, ErrorMetrics, Grid,
                       IntegratorConfig, ResidualReport, SegmentTooShortError,
                       StepUnderflowError, Trajectory, cole_hopf_map, compare,
                       integrate_linear, integrate_vdp, lienard_residual,
                       residual, trajectory_csv, trajectory_json)
from .wcalc import CoeffSet, WPoly, psi_poly, reduce_lienard, reduce_vdp, w_derive

__version__ = "0.1.0"
