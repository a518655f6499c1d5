"""Cycle machinery for generalized 3x+1 mappings.

Trajectory iteration, cycle detection and exact enumeration, the PP/PG
node walk locating ratio products near 1, least-term bounds, and bounded
exhaustive searches.  Everything runs in pure Python on exact integers.
"""

from .affine import AffineMap, branch_affine, compose_affine
from .cycles import (BudgetExceededError, CatalogVerification, Cycle,
                     CycleCatalog, CutoffExceededError, NotAClosedCycleError,
                     canonicalize, cycle_affine, detect_cycle,
                     enumerate_cycles_exact, verify_catalog)
from .mappings import (DEFAULT_MAX_MAGNITUDE, DEFAULT_MAX_STEPS, BranchCounts,
                       InvalidMappingError, MagnitudeCutoff, MappingDef,
                       Trajectory, branch_counts, carnielli_L,
                       carnielli_T, collatz, mapping_from_file,
                       mapping_from_name, matthews_4branch,
                       permutation_variant, three_x_plus_one, trajectory,
                       validate)
from .nodes import (COLLATZ_CONSTANT, COLLATZ_CONSTANT_FROM_8, COLLATZ_FAMILY,
                    THREE_X1_CONSTANT, THREE_X1_FAMILY, BoundResult, LnLambda,
                    Node, NodeFamily, ReciprocityReport, bound_C,
                    family_for_mapping, generate_nodes, iter_nodes,
                    lambda_exact, lambda_in_open_interval, ln_lambda,
                    node_family, reciprocity_check, rho_max)
from .search import (LambdaProfile, ProfileRecord, SearchReport,
                     lambda_profile, search_node, search_range)

__version__ = "0.1.0"


# perfbench reads available_backends and active_backend
def available_backends() -> tuple[str, ...]:
    """Names of the walkers: only the pure-Python one."""
    return ("pure",)


def active_backend() -> str:
    """Name of the walker that runs every walk."""
    return "pure"
