"""DOT (Graphviz) rendering of a finite skeleton of the down-set poset.

The full poset is infinite whenever some eigenvalue has two or more Jordan
blocks, so the rendering shows the Boolean center plus a configurable number
of sampled mid-rank antichain representatives per such eigenvalue, with an
ellipsis node standing in for the rest of each antichain.
"""

from .commutant import sample_delta_projector
from .core import DEFAULT_TOL, approx_eq
from .errors import BudgetExceeded, MalformedInput
from .jordan import JordanSpec
from .lattice import boolean_center
from .sharp import proj_leq

MAX_NODES = 64


def _dedupe(mats, tol):
    """mats without each matrix that is approx_eq to one kept before it
    (in exact mode, equal to it)."""
    out = []
    for m in mats:
        if not any(approx_eq(m, x, tol) for x in out):
            out.append(m)
    return out


def hasse_skeleton(spec: JordanSpec, seed=0, antichain_samples=3, tol=DEFAULT_TOL):
    """Nodes (matrix, role, factor index) and the sampled-factor indices.

    Roles are "center" and "sample"; factor index is the eigenvalue the
    sample belongs to (None for center nodes).
    """
    if antichain_samples < 0:
        raise MalformedInput("antichain_samples must not be negative")
    nodes = [(cp.expand(), "center", None) for cp in boolean_center(spec)]
    sampled_factors = []
    for j, e in enumerate(spec.eigenvalues):
        if e.t < 2:
            continue
        sampled_factors.append(j)
        # one nonzero bit: the largest block of this eigenvalue only
        bits = []
        for jj, ee in enumerate(spec.eigenvalues):
            bits.extend([1 if (jj == j and i == 0) else 0 for i in range(ee.t)])
        samples = []
        for i in range(antichain_samples):
            cp = sample_delta_projector(spec, seed * 7919 + j * 131 + i,
                                        block_choices=bits, tol=tol)
            samples.append(cp.expand())
        center_mats = [n[0] for n in nodes]
        for m in _dedupe(samples, tol):
            if any(approx_eq(m, c, tol) for c in center_mats):
                continue
            nodes.append((m, "sample", j))
    return nodes, sampled_factors


def hasse_dot(spec: JordanSpec, seed=0, antichain_samples=3, tol=DEFAULT_TOL) -> str:
    """The DOT digraph of the skeleton; edges are covering relations among
    the emitted nodes, directed low to high.  BudgetExceeded when the
    skeleton has more than MAX_NODES nodes and ellipses: before anything is
    built when its 2^s central nodes and one ellipsis per eigenvalue with
    two or more blocks are too many already."""
    if 2 ** spec.s + sum(e.t >= 2 for e in spec.eigenvalues) > MAX_NODES:
        raise BudgetExceeded(f"skeleton exceeds {MAX_NODES} nodes")
    nodes, sampled_factors = hasse_skeleton(spec, seed, antichain_samples, tol)
    if len(nodes) + len(sampled_factors) > MAX_NODES:
        raise BudgetExceeded(f"skeleton exceeds {MAX_NODES} nodes")
    n = len(nodes)
    mats = [x[0] for x in nodes]
    ranks = [m.rank(tol) for m in mats]
    leq = [[i != k and proj_leq(mats[i], mats[k], tol) for k in range(n)]
           for i in range(n)]
    covers = []
    for i in range(n):
        for k in range(n):
            if not leq[i][k]:
                continue
            if any(leq[i][w] and leq[w][k] for w in range(n)):
                continue
            covers.append((i, k))

    lines = ["digraph downset {", "  rankdir=BT;"]
    for i, (m, role, j) in enumerate(nodes):
        lines.append(f'  n{i} [label="rank {ranks[i]} ({role})"];')
    for j in sampled_factors:
        lines.append(
            f'  e{j} [label="infinite antichain (factor {j})", shape=plaintext];')
    for i, k in covers:
        lines.append(f"  n{i} -> n{k};")
    # tie each ellipsis to the same neighbors as that factor's first sample
    for j in sampled_factors:
        first = next((i for i, x in enumerate(nodes)
                      if x[1] == "sample" and x[2] == j), None)
        if first is None:
            continue
        for i, k in covers:
            if k == first:
                lines.append(f"  n{i} -> e{j} [style=dashed];")
            if i == first:
                lines.append(f"  e{j} -> n{k} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
