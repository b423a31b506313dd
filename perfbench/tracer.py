"""Span tracing of the sharporder layers, installed from outside the package.

``Tracer.install`` replaces each traced function in every ``sharporder.*``
namespace that binds it, and the traced ``Matrix`` methods on the class, so
calls made inside the library are traced as well as the benchmark's own.
Spans are kept in memory (name, parent span, operation id, start, end) and
written out once the run ends.  ``Tracer.uninstall`` restores the originals.
"""

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute) of the traced module-level functions
FUNCTIONS = [
    ("core.rref_exact", "core", "exact_rref"),
    ("core.svd", "core", "svd"),
    ("core.matrix_from_obj", "core", "matrix_from_obj"),
    ("core.matrix_to_obj", "core", "matrix_to_obj"),
    ("jordan.spec_from_obj", "jordan", "spec_from_obj"),
    ("jordan.spec_to_obj", "jordan", "spec_to_obj"),
    ("jordan.validate_similarity", "jordan", "validate_similarity"),
    ("ginv.index_le_one", "ginv", "index_le_one"),
    ("ginv.moore_penrose", "ginv", "moore_penrose"),
    ("ginv.group_inverse", "ginv", "group_inverse"),
    ("hs.hs_decompose", "hs", "hs_decompose"),
    ("commutant.sample_delta_projector", "commutant", "sample_delta_projector"),
    ("commutant.delta_membership", "commutant", "delta_membership"),
    ("sharp.sharp_leq", "sharp", "sharp_leq"),
    ("sharp.proj_leq", "sharp", "proj_leq"),
    ("sharp.phi", "sharp", "phi"),
    ("sharp.phi_inv", "sharp", "phi_inv"),
    ("sharp.psi", "sharp", "psi"),
    ("lattice.meet_in_c2", "lattice", "meet_in_c2"),
    ("lattice.non_lattice_witness", "lattice", "non_lattice_witness"),
    ("lattice.classify_downset", "lattice", "classify_downset"),
    ("lattice.max_chain", "lattice", "max_chain"),
    ("lattice.interval_iso_forward", "lattice", "interval_iso_forward"),
    ("lattice.interval_iso_backward", "lattice", "interval_iso_backward"),
    ("equations.count_solutions", "equations", "count_solutions"),
    ("equations.verify_power_commute", "equations", "verify_power_commute"),
    ("equations.solve_ep_commute_idempotent", "equations", "solve_ep_commute_idempotent"),
    ("oracle.predecessor_table", "oracle", "predecessor_table"),
    ("oracle.verify_glb", "oracle", "verify_glb"),
    ("oracle.leq_unchecked", "oracle", "leq_unchecked"),
    ("hasse.hasse_dot", "hasse", "hasse_dot"),
]

# Matrix methods: (attribute, span name in exact mode, span name in float
# mode); None leaves that mode untraced
METHODS = [
    ("__matmul__", "core.matmul_exact", "core.matmul_float"),
    ("__eq__", "core.eq_exact", None),
    ("key", "core.eq_exact", None),
    ("rank", "core.rank_exact", None),
    ("inverse", "core.inverse_exact", None),
]

SPAN_NAMES = sorted({name for name, _, _ in FUNCTIONS}
                    | {n for _, e, f in METHODS for n in (e, f) if n})

# index_le_one spans on an exact argument; the hit ratio counts those that
# returned without a child rank_exact span
_EXACT_ARG = "ginv.index_le_one"


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.exact_arg = array("b")
        self._stack = []
        self._saved = []
        self.enabled = False
        self.current_op = -1
        self.t0 = perf_counter()

    # ------------------------------------------------------------------
    # recording

    def _open(self, name_id, exact_arg=0):
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.exact_arg.append(exact_arg)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap_function(self, name, fn):
        name_id = self._id[name]
        flag_exact = name == _EXACT_ARG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            exact = flag_exact and args and getattr(args[0], "mode", None) == "exact"
            i = self._open(name_id, 1 if exact else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    def _wrap_method(self, fn, exact_name, float_name):
        ids = {"exact": self._id[exact_name] if exact_name else None,
               "float": self._id[float_name] if float_name else None}

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            name_id = ids.get(obj.mode) if self.enabled else None
            if name_id is None:
                return fn(obj, *args, **kwargs)
            i = self._open(name_id)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._close(i)
        return traced

    # ------------------------------------------------------------------
    # installing

    def install(self):
        """Wrap every traced name; a name the package no longer has is
        skipped and reports zero calls."""
        importlib.import_module("sharporder.cli")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "sharporder" or k.startswith("sharporder.")) and m is not None]
        for name, mod, attr in FUNCTIONS:
            fn = getattr(importlib.import_module("sharporder." + mod), attr, None)
            if fn is None:
                continue
            wrapped = self._wrap_function(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, wrapped)
        matrix = importlib.import_module("sharporder.core").Matrix
        for attr, exact_name, float_name in METHODS:
            fn = matrix.__dict__.get(attr)
            if fn is None:
                continue
            self._saved.append((matrix, attr, fn))
            setattr(matrix, attr, self._wrap_method(fn, exact_name, float_name))

    def uninstall(self):
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()
        self.enabled = False

    # ------------------------------------------------------------------
    # results

    def summary(self):
        """Per span name: calls and self time (duration minus the time
        covered by direct child spans); plus the index_le_one hit ratio."""
        n = len(self.name)
        child = [0.0] * n
        has_rank_child = set()
        rank_id = self._id["core.rank_exact"]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                if self.name[i] == rank_id:
                    has_rank_child.add(p)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        exact_calls = exact_hits = 0
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
            if self.exact_arg[i]:
                exact_calls += 1
                exact_hits += i not in has_rank_child
        out = {}
        for k, name in enumerate(self.names):
            out[name + ".calls"] = calls[k]
            out[name + ".self_s"] = self_s[k]
        out["ginv.index_le_one.hit_ratio"] = exact_hits / exact_calls if exact_calls else 0.0
        return out

    def write(self, path):
        """Spans as gzipped JSON lines: a header naming the span ids, then
        [op, parent, name id, start, end] with times in seconds from the
        tracer's creation."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            t0 = self.t0
            for i in range(len(self.name)):
                fh.write("[%d,%d,%d,%.7f,%.7f]\n" % (
                    self.op[i], self.parent[i], self.name[i],
                    self.start[i] - t0, self.end[i] - t0))
