"""Shared builders for the test suite.

Float pipelines are built from B = P (J + zero padding) P* with unitary P so
the core-block similarity after decomposition is available in closed form
(nonsingular case) or via plain eigenvectors (diagonalizable core).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import sharporder
from sharporder import (
    EXACT,
    FLOAT,
    Matrix,
    Tolerance,
    build_jordan_matrix,
    hs_decompose,
    make_spec,
    sample_delta_projector,
    validate_similarity,
)
from sharporder.jordan import JordanSpec
from sharporder.sharp import phi_inv, psi

# CI runs with --hypothesis-profile=ci: a failing example prints the blob
# that @reproduce_failure replays locally; examples and deadlines as default
settings.register_profile("ci", print_blob=True)

TOL8 = Tolerance(rel=1e-8)
TOL7 = Tolerance(rel=1e-7)


def loaded_in_fresh_interpreter(statement):
    """The sorted sharporder and numpy modules that statement loads in a
    fresh interpreter."""
    src = str(Path(sharporder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (f"import json, sys; {statement}; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('sharporder') or m == 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.fixture
def rng():
    return random.Random(0)


def rand_unimodular(n, rnd, shears=None):
    """A random integer matrix with determinant +-1 and small entries."""
    m = Matrix.identity(n, EXACT)
    rows = [list(r) for r in (m.row(i) for i in range(n))]
    for _ in range(shears if shears is not None else 2 * n):
        i = rnd.randrange(n)
        j = rnd.randrange(n)
        if i == j:
            continue
        c = rnd.choice([-1, 1])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix.exact(rows)


def rand_unitary(n, np_rng):
    g = np_rng.standard_normal((n, n)) + 1j * np_rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # make the factorization unique so seeds fully determine the result
    d = np.diag(r).copy()
    d[np.abs(d) < 1e-12] = 1.0
    return Matrix.floating(q @ np.diag(d / np.abs(d)))


def rand_exact_spec(rnd, max_s=3, max_t=1, max_size=2, p_dim=None):
    """A random exact JordanSpec with distinct small nonzero eigenvalues."""
    s = rnd.randint(1, max_s)
    lams = rnd.sample([1, 2, 3, -1, -2, 5], s)
    pairs = []
    for lam in lams:
        t = rnd.randint(1, max_t)
        sizes = sorted((rnd.randint(1, max_size) for _ in range(t)), reverse=True)
        pairs.append((lam, sizes))
    return make_spec(pairs)


def float_context(pairs, extra_zeros, seed, coupling=0.0):
    """(B, hs, spec-with-P) where B = P [[J, J X], [O, O]] P* with unitary P.

    X is a seeded Gaussian matrix times coupling: with coupling 0, B is the
    EP matrix P diag(J, O) P*; otherwise a singular B is not EP.  The
    returned spec describes the core block of the decomposition and carries
    a validated similarity matrix, so tau elements can be produced by
    conjugating commutant projectors.
    """
    spec0 = make_spec(pairs, mode=FLOAT)
    j = build_jordan_matrix(spec0)
    r = spec0.r
    n = r + extra_zeros
    np_rng = np.random.default_rng(seed)
    p = rand_unitary(n, np_rng)
    inner = np.zeros((n, n), dtype=complex)
    inner[:r, :r] = j.array
    if coupling:
        inner[:r, r:] = coupling * j.array @ np_rng.standard_normal((r, n - r))
    b = Matrix.floating(p.array @ inner @ p.array.conj().T)
    hs = hs_decompose(b, TOL7)
    sk = hs.sigma_k()
    if extra_zeros == 0:
        pp = hs.U.H @ p
    else:
        if any(max(sizes) > 1 for _, sizes in pairs):
            raise ValueError("singular contexts need a diagonalizable core")
        pp = _eig_similarity(sk, [lam for lam, sizes in pairs for _ in sizes])
    spec = make_spec(pairs, P=pp, mode=FLOAT)
    assert validate_similarity(pp, spec, sk, TOL7)
    return b, hs, spec


def _eig_similarity(sk, lam_order):
    """Eigenvector similarity of a diagonalizable core block, with columns
    grouped to match the spec's eigenvalue order."""
    vals, vecs = np.linalg.eig(sk.array)
    cols = []
    used = set()
    for lam in lam_order:
        best = min((i for i in range(len(vals)) if i not in used),
                   key=lambda i: abs(vals[i] - lam))
        used.add(best)
        cols.append(vecs[:, best])
    return Matrix.floating(np.column_stack(cols))


def sample_tau(spec: JordanSpec, seed, tol=TOL7):
    """A random element of tau: a sampled commutant projector conjugated by
    the spec's similarity matrix."""
    cp = sample_delta_projector(spec, seed, tol=tol)
    return psi(cp.expand(), spec.P)


def dense_embedding(hs, x, y=None, z=None):
    """U [[X, Y], [O, Z]] U* for the r x r array X, r x (n - r) Y and
    (n - r) x (n - r) Z of a decomposition, None standing for O: the dense
    formula the float down-set maps were written in before they went
    through the similarity Q, kept as their reference."""
    r = hs.r
    inner = np.zeros((hs.n, hs.n), dtype=complex)
    inner[:r, :r] = x
    if y is not None:
        inner[:r, r:] = y
    if z is not None:
        inner[r:, r:] = z
    u = hs.U.array
    return Matrix.floating(u @ inner @ u.conj().T)


def sample_predecessor(hs, spec, seed, tol=TOL7):
    t = sample_tau(spec, seed, tol)
    return phi_inv(t, hs, tol), t
