"""Computations with the sharp partial order on complex matrices of
index at most 1."""

from .core import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Matrix,
    Tolerance,
    approx_eq,
    is_projector,
    matrix_dumps,
    matrix_from_obj,
    matrix_loads,
    matrix_to_obj,
    singular_values,
    svd,
)
from .errors import SharpOrderError
from .ginv import group_inverse, index_le_one, is_ep, moore_penrose
from .hs import HSDecomposition, hs_decompose, hs_from_obj, hs_reconstruct, hs_to_obj
from .jordan import (
    EigenBlocks,
    JordanSpec,
    build_jordan_matrix,
    make_spec,
    spec_from_obj,
    spec_to_obj,
    validate_similarity,
    weyr_structure,
)
from .commutant import (
    CommutantProjector,
    admissible_ranks,
    delta_membership,
    projector_from_obj,
    projector_to_obj,
    sample_delta_projector,
)
from .sharp import (
    conjecture_refutation,
    extend_to_nonsingular,
    jordan_predecessors,
    phi,
    phi_inv,
    proj_leq,
    psi,
    psi_inv,
    sharp_leq,
    successor_form,
)
from .lattice import (
    DownsetDescriptor,
    boolean_center,
    classify_downset,
    complement_in_downset,
    interval_iso_backward,
    interval_iso_forward,
    join_commuting,
    matrix_meet,
    max_chain,
    meet_commuting,
    meet_in_c2,
    non_lattice_witness,
)
from .equations import (
    SolutionFamily,
    count_solutions,
    finite_solutions,
    solve_ep_commute_idempotent,
    solve_jordan_commuting_projectors,
    solve_xbx_family,
    split_ep_solution,
    verify_power_commute,
)
from .oracle import (
    brute_common_lower_bounds,
    brute_commuting_idempotents,
    enumerate_index1,
    predecessor_table,
    verify_glb,
)
from .hasse import hasse_dot, hasse_skeleton
from .scalars import QQi

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
