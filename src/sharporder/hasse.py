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


def hasse_skeleton(spec: JordanSpec, seed=0, antichain_samples=3, tol=DEFAULT_TOL):
    """Nodes (matrix, role, factor index) and the sampled-factor indices.

    Roles are "center" and "sample"; factor index is the eigenvalue the
    sample belongs to (None for center nodes).  A sample is kept unless it
    is approx_eq to (in exact mode, equal to) a sample of its eigenvalue
    drawn before it, or then to a center node.  BudgetExceeded as soon as
    the nodes and one ellipsis per sampled eigenvalue are more than
    MAX_NODES: before any node is built when the 2^s center nodes are too
    many already, else at the first sample too many, so the work is bounded
    by the budget and not by antichain_samples.
    """
    if antichain_samples < 0:
        raise MalformedInput("antichain_samples must not be negative")
    sampled_factors = [j for j, e in enumerate(spec.eigenvalues) if e.t >= 2]
    budget = MAX_NODES - len(sampled_factors)
    if 2 ** spec.s > budget:
        raise BudgetExceeded(f"skeleton exceeds {MAX_NODES} nodes")
    nodes = [(cp.expand(), "center", None) for cp in boolean_center(spec)]
    center_mats = [n[0] for n in nodes]
    for j in sampled_factors:
        # one nonzero bit: the largest block of this eigenvalue only
        bits = []
        for jj, ee in enumerate(spec.eigenvalues):
            bits.extend([1 if (jj == j and i == 0) else 0 for i in range(ee.t)])
        # every distinct sample, a center one too: a later sample near one
        # that is dropped as a center is dropped with it
        drawn = []
        for i in range(antichain_samples):
            m = sample_delta_projector(spec, seed * 7919 + j * 131 + i,
                                       block_choices=bits, tol=tol).expand()
            if any(approx_eq(m, x, tol) for x in drawn):
                continue
            drawn.append(m)
            if any(approx_eq(m, c, tol) for c in center_mats):
                continue
            if len(nodes) == budget:
                raise BudgetExceeded(f"skeleton exceeds {MAX_NODES} nodes")
            nodes.append((m, "sample", j))
    return nodes, sampled_factors


def hasse_dot(spec: JordanSpec, seed=0, antichain_samples=3, tol=DEFAULT_TOL) -> str:
    """The DOT digraph of the skeleton; edges are covering relations among
    the emitted nodes, directed low to high.  BudgetExceeded, from
    hasse_skeleton, when the skeleton has more than MAX_NODES nodes and
    ellipses."""
    nodes, sampled_factors = hasse_skeleton(spec, seed, antichain_samples, tol)
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
