"""Command-line front end: JSON in/out plus DOT rendering.

Exit codes: 0 success (and "true" for check-style commands), 1 for a
negative check result, 2 for malformed input, 3 for violated preconditions.
Machine-readable errors go to stderr as {"error": code}.

A process runs one command, so each command imports the modules it runs in
its own body: a process loads and compiles those only.
"""

import functools
import json
import sys

import click

from .core import DEFAULT_TOL, Matrix, Tolerance, matrix_from_obj, matrix_to_obj
from .errors import MalformedInput, PrecondViolated, SharpOrderError


def _emit(obj):
    click.echo(json.dumps(obj, sort_keys=True))


def _fail(exc: SharpOrderError, code: int):
    click.echo(json.dumps({"error": exc.code}, sort_keys=True), err=True)
    sys.exit(code)


def handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except MalformedInput as exc:
            _fail(exc, 2)
        except SharpOrderError as exc:
            _fail(exc, 3)
    return wrapper


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    # ValueError: JSONDecodeError, or an integer too long to parse
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _load_matrix(path) -> Matrix:
    return matrix_from_obj(_load_json(path))


def _load_spec(path):
    from .jordan import spec_from_obj

    return spec_from_obj(_load_json(path))


def _tol_option(f):
    """The --tol and --rank-threshold options, handed to the command as one
    Tolerance named tol, and handle_errors around both: a bad value exits 2."""
    @functools.wraps(f)
    def with_tol(*args, tol, rank_threshold, **kwargs):
        return f(*args, tol=Tolerance(rel=tol, rank_threshold_factor=rank_threshold), **kwargs)

    command = click.option("--tol", type=float, default=DEFAULT_TOL.rel, show_default=True,
                           help="relative comparison tolerance")(handle_errors(with_tol))
    return click.option("--rank-threshold", type=float,
                        default=DEFAULT_TOL.rank_threshold_factor, show_default=True,
                        help="rank cutoff as a fraction of the top singular value")(command)


def _downset_setup(b_path, spec_path, tol):
    """Shared plumbing: decompose B, check the spec matches its core block."""
    from .hs import hs_decompose
    from .jordan import validate_similarity

    b = _load_matrix(b_path)
    spec = _load_spec(spec_path)
    d = hs_decompose(b, tol)
    if spec.P is None:
        raise PrecondViolated("spec must carry the similarity matrix P")
    if not validate_similarity(spec.P, spec, d.sigma_k(), tol):
        raise PrecondViolated("spec does not describe the core block of B")
    return b, spec, d


@click.group()
def main():
    """Computations around the sharp partial order on index <= 1 matrices."""


# ----------------------------------------------------------------------
# decompose / inverse / check


@main.group()
def decompose():
    """Matrix decompositions."""


@decompose.command("hs")
@click.option("--in", "in_path", required=True, type=click.Path())
@_tol_option
def decompose_hs(in_path, tol):
    from .hs import hs_decompose, hs_to_obj

    d = hs_decompose(_load_matrix(in_path), tol)
    _emit(hs_to_obj(d))


@main.command()
@click.argument("kind", type=click.Choice(["group", "mp"]))
@click.option("--in", "in_path", required=True, type=click.Path())
@_tol_option
def inverse(kind, in_path, tol):
    from .ginv import group_inverse, moore_penrose

    a = _load_matrix(in_path)
    out = group_inverse(a, tol) if kind == "group" else moore_penrose(a, tol)
    _emit(matrix_to_obj(out))


@main.group()
def check():
    """Predicates with exit-code results."""


@check.command("order")
@click.option("--a", "a_path", required=True, type=click.Path())
@click.option("--b", "b_path", required=True, type=click.Path())
@_tol_option
def check_order(a_path, b_path, tol):
    from .sharp import sharp_leq

    leq = sharp_leq(_load_matrix(a_path), _load_matrix(b_path), tol)
    _emit({"leq": leq})
    sys.exit(0 if leq else 1)


# ----------------------------------------------------------------------
# downset


@main.group()
def downset():
    """Structure of the down-set [O, B]."""


@downset.command("classify")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@handle_errors
def downset_classify(spec_path):
    from .lattice import classify_downset

    _emit(classify_downset(_load_spec(spec_path)).to_obj())


@downset.command("boolean")
@click.option("--b", "b_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@_tol_option
def downset_boolean(b_path, spec_path, tol):
    from .commutant import center_choices
    from .sharp import phi_inv_stack, psi_choices

    _, spec, d = _downset_setup(b_path, spec_path, tol)
    centers = psi_choices(spec, center_choices(spec))
    _emit([matrix_to_obj(a) for a in phi_inv_stack(centers, d, tol)])


@downset.command("sample")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
@handle_errors
def downset_sample(spec_path, seed, count):
    from .commutant import projector_to_obj, sample_delta_projector

    if count < 0:
        raise MalformedInput("--count must not be negative")
    spec = _load_spec(spec_path)
    out = [projector_to_obj(sample_delta_projector(spec, seed + i))
           for i in range(count)]
    _emit(out)


@downset.command("chain")
@click.option("--b", "b_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@_tol_option
def downset_chain(b_path, spec_path, tol):
    from .lattice import max_chain

    _, spec, d = _downset_setup(b_path, spec_path, tol)
    _emit([matrix_to_obj(m) for m in max_chain(d, spec, tol)])


# ----------------------------------------------------------------------
# witnesses and counterexamples


@main.group()
def witness():
    """Constructive witnesses."""


@witness.command("nonlattice")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@_tol_option
def witness_nonlattice(spec_path, tol):
    from .lattice import non_lattice_witness, witness_relations

    quad = non_lattice_witness(_load_spec(spec_path), tol)
    out = {f"T{i}": matrix_to_obj(t) for i, t in enumerate(quad, 1)}
    _emit({**out, "relations": witness_relations(*quad, tol)})


@main.group()
def refute():
    """Counterexamples."""


@refute.command("conjecture")
@handle_errors
def refute_conjecture():
    from .sharp import conjecture_refutation

    b, a, report = conjecture_refutation()
    _emit({"B": matrix_to_obj(b), "A": matrix_to_obj(a), "report": report})


@main.command()
@click.option("--b1", "b1_path", required=True, type=click.Path())
@click.option("--b2", "b2_path", required=True, type=click.Path())
@handle_errors
def meet2(b1_path, b2_path):
    from .lattice import meet_in_c2

    m = meet_in_c2(_load_matrix(b1_path), _load_matrix(b2_path))
    _emit(matrix_to_obj(m))


# ----------------------------------------------------------------------
# equations


@main.group()
def equations():
    """Solution families of {BX=XB, X^2=X} and related systems."""


@equations.command("count")
@click.option("--b", "b_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@_tol_option
def equations_count(b_path, spec_path, tol):
    from .equations import count_solutions

    _, spec, d = _downset_setup(b_path, spec_path, tol)
    _emit({"count": count_solutions(d, spec, tol)})


@equations.command("solve")
@click.option("--b", "b_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@_tol_option
def equations_solve(b_path, spec_path, tol):
    from .equations import finite_solutions, verify_power_commute

    b, spec, d = _downset_setup(b_path, spec_path, tol)
    members = finite_solutions(d, spec, tol)
    if members is None:
        _emit({"finite_count": None, "kind": "infinite_family",
               "free_part_shape": [spec.r, spec.r]})
        return
    for s in members:
        if not verify_power_commute(s, b, 3, tol):
            raise PrecondViolated("materialized solution fails verification")
    _emit({"count": len(members), "solutions": [matrix_to_obj(s) for s in members]})


# ----------------------------------------------------------------------
# hasse


@main.command("hasse")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--antichain-samples", type=int, default=3, show_default=True)
@handle_errors
def hasse_cmd(spec_path, out_path, seed, antichain_samples):
    from .hasse import hasse_dot

    dot = hasse_dot(_load_spec(spec_path), seed=seed,
                    antichain_samples=antichain_samples)
    try:
        with open(out_path, "w") as fh:
            fh.write(dot)
    except OSError as exc:
        raise MalformedInput(f"cannot write {out_path}: {exc}") from exc
    _emit({"written": out_path})


if __name__ == "__main__":
    main()
