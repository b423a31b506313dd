"""The package's public names: a pinned list, each the object that its
defining module holds, and each imported on its first read only (PEP 562),
so that `import sharporder` loads no submodule."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sharporder

from conftest import loaded_in_fresh_interpreter

# defining module -> its public names
PUBLIC = {
    "core": ["DEFAULT_TOL", "EXACT", "FLOAT", "Matrix", "Tolerance", "approx_eq", "is_projector",
             "matrix_dumps", "matrix_from_obj", "matrix_loads", "matrix_to_obj",
             "singular_values", "svd"],
    "errors": ["SharpOrderError"],
    "ginv": ["group_inverse", "index_le_one", "is_ep", "moore_penrose"],
    "hs": ["HSDecomposition", "hs_decompose", "hs_from_obj", "hs_reconstruct", "hs_to_obj"],
    "jordan": ["EigenBlocks", "JordanSpec", "build_jordan_matrix", "make_spec", "spec_from_obj",
               "spec_to_obj", "validate_similarity", "weyr_structure"],
    "commutant": ["CommutantProjector", "admissible_ranks", "delta_membership",
                  "projector_from_obj", "projector_to_obj", "sample_delta_projector"],
    "sharp": ["conjecture_refutation", "extend_to_nonsingular", "jordan_predecessors", "phi",
              "phi_inv", "proj_leq", "psi", "psi_inv", "sharp_leq", "successor_form"],
    "lattice": ["DownsetDescriptor", "boolean_center", "classify_downset",
                "complement_in_downset", "interval_iso_backward", "interval_iso_forward",
                "join_commuting", "matrix_meet", "max_chain", "meet_commuting", "meet_in_c2",
                "non_lattice_witness"],
    "equations": ["SolutionFamily", "count_solutions", "finite_solutions",
                  "solve_ep_commute_idempotent", "solve_jordan_commuting_projectors",
                  "solve_xbx_family", "split_ep_solution", "verify_power_commute"],
    "oracle": ["brute_common_lower_bounds", "brute_commuting_idempotents", "enumerate_index1",
               "predecessor_table", "verify_glb"],
    "hasse": ["hasse_dot", "hasse_skeleton"],
    "scalars": ["QQi"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_is_the_pinned_list():
    assert len(NAMES) == 75
    assert sorted(sharporder.__all__) == NAMES
    assert set(NAMES) <= set(dir(sharporder))


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names],
                         ids=lambda v: v)
def test_name_is_its_defining_module_object(module, name):
    value = getattr(sharporder, name)
    assert value is getattr(importlib.import_module(f"sharporder.{module}"), name)
    if callable(value):
        assert value.__module__ == f"sharporder.{module}"
    # bound on the first read, so every later read is a plain attribute read
    assert vars(sharporder)[name] is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'sharporder' has no attribute 'nope'"):
        sharporder.nope
    assert not hasattr(sharporder, "nope")
    assert "nope" not in vars(sharporder)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sharporder import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_import_loads_no_submodule():
    assert loaded_in_fresh_interpreter("import sharporder") == ["sharporder"]


def test_core_loads_no_float_backend():
    # the float backend and numpy are imported on first float use only
    assert loaded_in_fresh_interpreter("import sharporder.core") == [
        "sharporder", "sharporder.core", "sharporder.errors", "sharporder.scalars"]
    assert loaded_in_fresh_interpreter(
        "from sharporder import FLOAT, Matrix; Matrix.zeros(1, 1, FLOAT)") == [
        "numpy", "sharporder", "sharporder.core", "sharporder.errors", "sharporder.floatmatrix",
        "sharporder.scalars"]


# perfbench/tracer.py wraps its traced functions and Matrix methods by name
# and skips a name the package no longer has, whose span then reads 0 with
# no error.  core.rref_exact traces core.exact_rref, which the forward-only
# elimination replaced; it is the one stale name allowed, until the tracer
# drops it
STALE_SPANS = {"core.rref_exact"}


def test_traced_names_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert {span for span, module, attr in tracer.FUNCTIONS
            if not hasattr(importlib.import_module(f"sharporder.{module}"), attr)} <= STALE_SPANS
    # on the base, and not overridden, or the wrapper is never called
    matrix = importlib.import_module("sharporder.core").Matrix
    assert [attr for attr, _, _ in tracer.METHODS if attr not in matrix.__dict__] == []
    assert [(cls.__name__, attr) for cls in matrix.__subclasses__()
            for attr, _, _ in tracer.METHODS if attr in cls.__dict__] == []
