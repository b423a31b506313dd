"""Computations with the sharp partial order on complex matrices of
index at most 1.

The public names load lazily (PEP 562): ``import sharporder`` imports no
submodule, and the first read of a name imports the module that defines it
and binds the name here, so every later read is a plain attribute read.
A CLI process thus compiles only the modules its command runs."""

import importlib

# (defining module, its public names)
_EXPORTS = (
    ("core", ("DEFAULT_TOL", "EXACT", "FLOAT", "Matrix", "Tolerance", "approx_eq",
              "is_projector", "matrix_dumps", "matrix_from_obj", "matrix_loads",
              "matrix_to_obj", "singular_values", "svd")),
    ("errors", ("SharpOrderError",)),
    ("ginv", ("group_inverse", "index_le_one", "is_ep", "moore_penrose")),
    ("hs", ("HSDecomposition", "hs_decompose", "hs_from_obj", "hs_reconstruct", "hs_to_obj")),
    ("jordan", ("EigenBlocks", "JordanSpec", "build_jordan_matrix", "make_spec",
                "spec_from_obj", "spec_to_obj", "validate_similarity", "weyr_structure")),
    ("commutant", ("CommutantProjector", "admissible_ranks", "delta_membership",
                   "projector_from_obj", "projector_to_obj", "sample_delta_projector")),
    ("sharp", ("conjecture_refutation", "extend_to_nonsingular", "jordan_predecessors", "phi",
               "phi_inv", "proj_leq", "psi", "psi_inv", "sharp_leq", "successor_form")),
    ("lattice", ("DownsetDescriptor", "boolean_center", "classify_downset",
                 "complement_in_downset", "interval_iso_backward", "interval_iso_forward",
                 "join_commuting", "matrix_meet", "max_chain", "meet_commuting", "meet_in_c2",
                 "non_lattice_witness")),
    ("equations", ("SolutionFamily", "count_solutions", "finite_solutions",
                   "solve_ep_commute_idempotent", "solve_jordan_commuting_projectors",
                   "solve_xbx_family", "split_ep_solution", "verify_power_commute")),
    ("oracle", ("brute_common_lower_bounds", "brute_commuting_idempotents", "enumerate_index1",
                "predecessor_table", "verify_glb")),
    ("hasse", ("hasse_dot", "hasse_skeleton")),
    ("scalars", ("QQi",)),
)

__all__ = sorted(name for _, names in _EXPORTS for name in names)

__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
