"""Command-line front end: JSON in/out plus DOT rendering.

Exit codes: 0 success (and "true" for check-style commands), 1 for a
negative check result, 2 for malformed input or a usage error, 3 for
violated preconditions.  Machine-readable errors go to stderr as
{"error": code}; a usage error prints argparse's message there.

A process runs one command, so each command imports the modules it runs in
its own body: a process loads and compiles those only.  The parser is the
standard library's argparse, which loads faster than a third-party one.
"""

import argparse
import json
import sys

from .core import DEFAULT_TOL, Matrix, Tolerance, matrix_from_obj, matrix_to_obj
from .errors import BudgetExceeded, MalformedInput, PrecondViolated, SharpOrderError

# the dense work one command may ask for, checked once its input is parsed
# and before anything is built: a command that builds r x r matrices from a
# spec takes r <= MAX_R, and a command writes or draws at most MAX_ENTRIES
# entries
MAX_R = 128
MAX_ENTRIES = 2 ** 20


def _budget(r=0, entries=0):
    """BudgetExceeded when r exceeds MAX_R or entries MAX_ENTRIES."""
    if r > MAX_R:
        raise BudgetExceeded(f"the spec's Jordan matrix is larger than {MAX_R}x{MAX_R}")
    if entries > MAX_ENTRIES:
        raise BudgetExceeded(f"the output would have more than {MAX_ENTRIES} entries")


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _fail(exc: SharpOrderError, code: int):
    print(json.dumps({"error": exc.code}, sort_keys=True), file=sys.stderr)
    sys.exit(code)


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


def _downset_setup(b_path, spec_path, tol, written=None):
    """Shared plumbing: load B and the spec, check the entries the command
    will write, written(n, spec) for an n x n B, against the budget, then
    decompose B and check that the spec matches its core block."""
    from .hs import hs_decompose
    from .jordan import validate_similarity

    b = _load_matrix(b_path)
    spec = _load_spec(spec_path)
    if written is not None:
        _budget(entries=written(b.rows, spec))
    d = hs_decompose(b, tol)
    if spec.P is None:
        raise PrecondViolated("spec must carry the similarity matrix P")
    if not validate_similarity(spec.P, spec, d.sigma_k(), tol):
        raise PrecondViolated("spec does not describe the core block of B")
    return b, spec, d


# ----------------------------------------------------------------------
# the command bodies, each called with its options by their dest names


def decompose_hs(in_path, tol):
    from .hs import hs_decompose, hs_to_obj

    d = hs_decompose(_load_matrix(in_path), tol)
    _emit(hs_to_obj(d))


def inverse(kind, in_path, tol):
    from .ginv import group_inverse, moore_penrose

    a = _load_matrix(in_path)
    out = group_inverse(a, tol) if kind == "group" else moore_penrose(a, tol)
    _emit(matrix_to_obj(out))


def check_order(a_path, b_path, tol):
    from .sharp import sharp_leq

    leq = sharp_leq(_load_matrix(a_path), _load_matrix(b_path), tol)
    _emit({"leq": leq})
    sys.exit(0 if leq else 1)


def downset_classify(spec_path):
    from .lattice import classify_downset

    _emit(classify_downset(_load_spec(spec_path)).to_obj())


def downset_boolean(b_path, spec_path, tol):
    from .jordan import center_choices
    from .sharp import phi_inv_stack, psi_choices

    _, spec, d = _downset_setup(b_path, spec_path, tol, lambda n, spec: 2 ** spec.s * n * n)
    centers = psi_choices(spec, center_choices(spec))
    _emit([matrix_to_obj(a) for a in phi_inv_stack(centers, d, tol)])


def downset_sample(spec_path, seed, count):
    from .commutant import projector_to_obj, sample_delta_projector

    if count < 0:
        raise MalformedInput("--count must not be negative")
    spec = _load_spec(spec_path)
    _budget(spec.r, spec.r ** 2 * count)
    out = [projector_to_obj(sample_delta_projector(spec, seed + i))
           for i in range(count)]
    _emit(out)


def downset_chain(b_path, spec_path, tol):
    from .lattice import max_chain

    _, spec, d = _downset_setup(b_path, spec_path, tol,
                                lambda n, spec: (len(spec.block_sizes) + 1) * n * n)
    _emit([matrix_to_obj(m) for m in max_chain(d, spec, tol)])


def witness_nonlattice(spec_path, tol):
    from .lattice import non_lattice_witness, witness_relations

    spec = _load_spec(spec_path)
    _budget(spec.r)
    quad = non_lattice_witness(spec, tol)
    out = {f"T{i}": matrix_to_obj(t) for i, t in enumerate(quad, 1)}
    _emit({**out, "relations": witness_relations(*quad, tol)})


def refute_conjecture():
    from .sharp import conjecture_refutation

    b, a, report = conjecture_refutation()
    _emit({"B": matrix_to_obj(b), "A": matrix_to_obj(a), "report": report})


def meet2(b1_path, b2_path):
    from .lattice import meet_in_c2

    m = meet_in_c2(_load_matrix(b1_path), _load_matrix(b2_path))
    _emit(matrix_to_obj(m))


def equations_count(b_path, spec_path, tol):
    from .equations import count_solutions

    _, spec, d = _downset_setup(b_path, spec_path, tol)
    _emit({"count": count_solutions(d, spec, tol)})


def equations_solve(b_path, spec_path, tol):
    from .equations import _finite_count, finite_solutions, verify_power_commute

    b, spec, d = _downset_setup(b_path, spec_path, tol,
                                lambda n, spec: (_finite_count(n, spec) or 0) * n * n)
    members = finite_solutions(d, spec, tol)
    if members is None:
        _emit({"finite_count": None, "kind": "infinite_family",
               "free_part_shape": [spec.r, spec.r]})
        return
    for s in members:
        if not verify_power_commute(s, b, 3, tol):
            raise PrecondViolated("materialized solution fails verification")
    _emit({"count": len(members), "solutions": [matrix_to_obj(s) for s in members]})


def hasse_cmd(spec_path, out_path, seed, antichain_samples):
    from .hasse import hasse_dot

    spec = _load_spec(spec_path)
    # each sampled factor (an eigenvalue with two or more blocks) draws
    # antichain_samples r x r projectors
    sampled = sum(e.t >= 2 for e in spec.eigenvalues)
    _budget(spec.r, antichain_samples * sampled * spec.r ** 2)
    dot = hasse_dot(spec, seed=seed, antichain_samples=antichain_samples)
    try:
        with open(out_path, "w") as fh:
            fh.write(dot)
    except OSError as exc:
        raise MalformedInput(f"cannot write {out_path}: {exc}") from exc
    _emit({"written": out_path})


# ----------------------------------------------------------------------
# the parser


_TOL = "TOL"

# name and description of each group
_GROUPS = (
    ("decompose", "Matrix decompositions."),
    ("check", "Predicates with exit-code results."),
    ("downset", "Structure of the down-set [O, B]."),
    ("witness", "Constructive witnesses."),
    ("refute", "Counterexamples."),
    ("equations", "Solution families of {BX=XB, X^2=X} and related systems."),
)

# group (None: a top-level command), name, options (see _add_options),
# description, body
_COMMANDS = (
    ("decompose", "hs", ("--in", _TOL), "Hartwig-Spindelboeck decomposition of a matrix.",
     decompose_hs),
    (None, "inverse", ("kind", "--in", _TOL), "Group or Moore-Penrose inverse of a matrix.",
     inverse),
    ("check", "order", ("--a", "--b", _TOL), "Whether A <= B: exit 0 if so, 1 if not.",
     check_order),
    ("downset", "classify", ("--spec",), "Lattice structure of [O, B] from the Jordan data.",
     downset_classify),
    ("downset", "boolean", ("--b", "--spec", _TOL), "The Boolean centre of [O, B].",
     downset_boolean),
    ("downset", "sample", ("--spec", "--seed=0", "--count=1"),
     "Seeded random projectors commuting with J.", downset_sample),
    ("downset", "chain", ("--b", "--spec", _TOL), "A maximal chain from O to B.",
     downset_chain),
    ("witness", "nonlattice", ("--spec", _TOL), "Four matrices showing [O, B] is no lattice.",
     witness_nonlattice),
    ("refute", "conjecture", (), "A predecessor of B = I that is not diagonal.",
     refute_conjecture),
    (None, "meet2", ("--b1", "--b2"), "The meet of two 2x2 matrices.", meet2),
    ("equations", "count", ("--b", "--spec", _TOL), "Number of solutions of BX=XB, X^2=X.",
     equations_count),
    ("equations", "solve", ("--b", "--spec", _TOL), "The solutions of BX=XB, X^2=X.",
     equations_solve),
    (None, "hasse", ("--spec", "--out", "--seed=0", "--antichain-samples=3"),
     "Hasse-diagram skeleton of [O, B] as DOT.", hasse_cmd),
)


def _add_options(parser, options):
    """Add a command's options: "kind", the inverse's kind; "--x", a
    required path, handed to the body as x_path; "--x=N", an int with
    default N; _TOL, --tol and --rank-threshold, handed to the body as one
    Tolerance named tol."""
    for option in options:
        name, _, default = option.partition("=")
        if option == "kind":
            parser.add_argument(option, choices=("group", "mp"))
        elif option == _TOL:
            parser.add_argument("--tol", type=float, default=DEFAULT_TOL.rel,
                                help="relative comparison tolerance (default: %(default)s)")
            parser.add_argument("--rank-threshold", type=float,
                                default=DEFAULT_TOL.rank_threshold_factor,
                                help="rank cutoff as a fraction of the top singular value "
                                     "(default: %(default)s)")
        elif default:
            parser.add_argument(name, type=int, default=int(default),
                                help="(default: %(default)s)")
        else:
            parser.add_argument(name, dest=f"{name[2:]}_path", required=True, metavar="PATH")


def _parser(prog, args):
    """The parser of what args name: of one command when they name it (a
    top-level command, or a group and one of its commands), of a group's
    commands when they name the group only, else of all 13; a command's
    parser names its body.  The parse is the same either way: building the
    other commands' parsers would only cost each process some time."""
    def commands(parser):
        return parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    named = [row for row in _COMMANDS if [row[0] or row[1]] == args[:1]]
    rows = [row for row in named if row[0] is None or args[1:2] == [row[1]]] or named or _COMMANDS
    root = argparse.ArgumentParser(prog=prog, allow_abbrev=False, description=(
        "Computations around the sharp partial order on index <= 1 matrices."))
    top = commands(root)
    groups = {}
    for group, name, options, help, body in rows:
        if group is not None and group not in groups:
            about = dict(_GROUPS)[group]
            groups[group] = commands(top.add_parser(group, help=about, description=about,
                                                    allow_abbrev=False))
        parser = groups[group] if group else top
        command = parser.add_parser(name, help=help, description=help, allow_abbrev=False)
        _add_options(command, options)
        command.set_defaults(body=body)
    return root


def _join_float_options(args):
    """args with each --tol and --rank-threshold joined to the value after
    it, as --tol=-1e-3: argparse reads a separate value that starts with "-"
    and is no plain decimal as an option, and a joined one as the value, so
    the tolerance check rejects a negative one as malformed input."""
    out = []
    for arg in args:
        if out and out[-1] in ("--tol", "--rank-threshold"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(args=None, prog_name=None):
    """Run the command that args (by default sys.argv[1:]) name, and exit
    with its code."""
    args = _join_float_options(sys.argv[1:] if args is None else args)
    kwargs = vars(_parser(prog_name or main.name, args).parse_args(args))
    del kwargs["command"]
    body = kwargs.pop("body")
    try:
        if "tol" in kwargs:
            kwargs["tol"] = Tolerance(rel=kwargs["tol"],
                                      rank_threshold_factor=kwargs.pop("rank_threshold"))
        body(**kwargs)
    except MalformedInput as exc:
        _fail(exc, 2)
    except SharpOrderError as exc:
        _fail(exc, 3)
    sys.exit(0)


# click.testing.CliRunner().invoke(main, argv) runs main.main(args=argv,
# prog_name=main.name), so a test can run a command in the process
main.main = main
main.name = "sharporder"


if __name__ == "__main__":
    main()
