"""Exact integral group homology and negative-degree products for finite groups.

Everything is computed over Z with exact arithmetic: group homology from a
free resolution, the negative-degree groups of the Tate theory through the
norm correspondence, and the product on those groups by two independent
constructions (a join of resolutions and a composition of lifted chain
maps) that are cross-checked against each other.
"""

from .errors import (GroupError, InternalCheckError, ResolutionError,
                     SchemaError, SizeBudgetError, TateJoinError)
from .groups import (FiniteGroup, GroupRingElement, augmentation, build_group,
                     cyclic, dihedral, from_permutations, norm_element,
                     quaternion8, symmetric, trivial)
from .intlinalg import (IntMatrix, NoSolution, SmithDecomposition,
                        kernel_basis, smith_normal_form,
                        sparse_invariant_factors)
from .zglinalg import ZGMatrix, ZGSolver
from .resolutions import (JoinResolution, Resolution, ValidationReport,
                          bar_resolution, include_cycle_tensor, join,
                          join_rank, load_resolution,
                          periodic_cyclic_resolution, syzygy_resolution,
                          validate_resolution)
from .tate import (HomologyGroup, InvariantCycle, ZERO, down_vector, homology,
                   is_cycle, is_stably_zero, lift_vector, phi, phi_inverse,
                   random_cycle, tate_group)
from .products import (ComparisonLift, ProductContext, ProductTable,
                       composition_product, join_product, product_table)
from .selfcheck import run_verify

__version__ = "0.1.0"

__all__ = [
    "TateJoinError", "GroupError", "SchemaError", "ResolutionError",
    "SizeBudgetError", "InternalCheckError",
    "FiniteGroup", "GroupRingElement", "build_group", "cyclic", "trivial",
    "dihedral", "symmetric", "quaternion8", "from_permutations",
    "norm_element", "augmentation",
    "IntMatrix", "SmithDecomposition", "smith_normal_form", "kernel_basis",
    "NoSolution", "sparse_invariant_factors",
    "ZGMatrix", "ZGSolver",
    "Resolution", "JoinResolution", "ValidationReport", "load_resolution",
    "validate_resolution", "periodic_cyclic_resolution", "bar_resolution",
    "syzygy_resolution", "join", "join_rank", "include_cycle_tensor",
    "HomologyGroup", "homology", "down_vector", "lift_vector",
    "is_cycle", "InvariantCycle", "phi", "phi_inverse", "is_stably_zero",
    "ZERO", "tate_group", "random_cycle",
    "ComparisonLift", "ProductContext",
    "join_product", "composition_product", "ProductTable", "product_table",
    "run_verify",
]
