"""Spans around the library's public functions, recorded from outside.

The tracer replaces module attributes of ``conzopt`` with timing
wrappers while it is installed, so the library itself is unchanged and
untraced runs pay nothing. Every binding of a wrapped function is
replaced, including names imported into other modules (for example
``conzopt.admm.ldlt_factorize`` and ``conzopt.builders.cartesian_product``).
A name that no longer exists is skipped and reported in ``missing``.

Spans are kept in memory as (name, start, end, parent, op) tuples and
written out when the run ends. A span's self time is its duration minus
the durations of its direct children; since everything runs on one
thread, children never overlap.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) -> span name; "Class.__init__" wraps construction.
TARGETS = {
    ("sparse", "ldlt_factorize"): "sparse.factorize",
    ("sparse", "ldlt_solve"): "sparse.solve",
    ("sparse", "multiply"): "sparse.product",
    ("sparse", "SparseMat.__init__"): "sparse.assemble",
    ("sparse", "hcat"): "sparse.assemble",
    ("sparse", "vcat"): "sparse.assemble",
    ("sparse", "blkdiag"): "sparse.assemble",
    ("sets", "point_set"): "sets.ops",
    ("sets", "affine_map"): "sets.ops",
    ("sets", "minkowski_sum"): "sets.ops",
    ("sets", "cartesian_product"): "sets.ops",
    ("sets", "generalized_intersection"): "sets.ops",
    ("sets", "intersection"): "sets.ops",
    ("sets", "interval_to_zono"): "sets.ops",
    ("sets", "make_regular_polygon"): "sets.ops",
    ("sets", "zonotope_support"): "sets.ops",
    ("reach", "reach_standard"): "reach.recursion",
    ("reach", "reach_graph"): "reach.recursion",
    ("reach", "reach_sparse"): "reach.recursion",
    ("reach", "svse_step_sparse"): "reach.recursion",
    ("reach", "svse_step_standard"): "reach.recursion",
    ("builders", "build_mpc"): "builders.build",
    ("builders", "build_mhe"): "builders.build",
    ("builders", "safety_verify"): "builders.build",
    ("builders", "extract_trajectory"): "builders.build",
    ("builders", "reduce_prior"): "builders.reduce_prior",
    ("admm", "reduce_qp"): "admm.reduce",
    ("admm", "reduce_feasibility"): "admm.reduce",
    ("admm", "reduce_support"): "admm.reduce",
    ("admm", "ReducedQp.__init__"): "admm.reduce",
    ("admm", "admm_solve"): "admm.iterate",
    ("admm", "support"): "admm.iterate",
    ("admm", "support_batch"): "admm.iterate",
    ("admm", "bounding_box"): "admm.iterate",
    ("admm", "check_empty"): "admm.iterate",
    ("admm", "is_empty"): "admm.iterate",
    ("admm", "contains_point"): "admm.iterate",
    ("admm", "infeasibility_check"): "admm.iterate",
    # The one private name: the batch loop is the only place that sees
    # every column's iteration count, status and certificate.
    ("admm", "_iterate_batch"): "admm.iterate",
}

# Span names whose self time is reported, in report order.
TIMED = ("sparse.factorize", "sparse.solve", "sparse.product", "sparse.assemble",
         "sets.ops", "reach.recursion", "builders.build", "builders.reduce_prior",
         "admm.reduce", "admm.iterate")

# Every per-layer metric with its unit, in report order.
UNITS = {
    **{f"{name}_s": "s" for name in TIMED},
    "sparse.factorize_calls": "count", "sparse.solve_calls": "count", "sets.ops_calls": "count",
    "sparse.factor_nnz": "nnz", "sparse.solve_cols": "cols", "sparse.matrices_built": "count",
    "admm.solves": "count", "admm.iterations": "count", "admm.iterations_max": "count",
    "admm.cert_checks": "count", "admm.cert_hit_ratio": "ratio",
    "admm.cert_first_iter_frac": "ratio", "bench.other_s": "s", "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = ("admm.iterations", "admm.cert_checks", "sparse.factorize_calls",
                "sparse.solve_calls", "sets.ops_calls", "sparse.factor_nnz",
                "sparse.matrices_built")


class Tracer:
    """Records spans and counts while installed on a set of modules."""

    def __init__(self, modules):
        self.modules = modules          # short name -> module, e.g. "admm"
        self.spans = []                 # (name, start, end, parent, op)
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.missing = []
        self._patched = []              # (owner, attribute, original)

    # -- installation -------------------------------------------------

    def install(self):
        hooks = {
            ("sparse", "ldlt_factorize"): self._count_factor,
            ("sparse", "ldlt_solve"): self._count_solve,
            ("sparse", "SparseMat.__init__"): self._count_matrix,
            ("admm", "_iterate_batch"): self._count_batch,
        }
        for (mod_name, attr), span in TARGETS.items():
            module = self.modules.get(mod_name)
            cls_name, _, method = attr.partition(".")
            owner = getattr(module, cls_name, None)
            if owner is None or (method and method not in vars(owner)):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            hook = hooks.get((mod_name, attr))
            if method:
                original = vars(owner)[method]
                self._patch(owner, method, original, self._wrap(original, span, hook))
                continue
            original, wrapper = owner, self._wrap(owner, span, hook)
            # rebind the function wherever a library module imported it
            for name, mod in list(sys.modules.items()):
                if name == "conzopt" or name.startswith("conzopt."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap(self, fn, span, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span, t0, t1, parent, tracer.op)
            if hook is not None:
                hook(sig, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # -- counters -----------------------------------------------------

    def _count_factor(self, sig, args, kwargs, factor):
        L = getattr(factor, "L", None)
        self.counts["sparse.factor_nnz"] += int(getattr(L, "nnz", 0))

    def _count_matrix(self, sig, args, kwargs, result):
        self.counts["sparse.matrices_built"] += 1

    def _count_solve(self, sig, args, kwargs, result):
        x = np.asarray(result)
        self.counts["sparse.solve_cols"] += 1 if x.ndim == 1 else int(x.shape[1])

    def _count_batch(self, sig, args, kwargs, results):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        reduced = bound.arguments.get("reduced")
        settings = bound.arguments.get("settings")
        k_inf = int(getattr(settings, "k_inf", 1))
        has_rows = int(getattr(reduced, "n_c", 0)) > 0
        c = self.counts
        for res in results:
            its = int(res.iterations)
            c["admm.solves"] += 1
            c["admm.iterations"] += its
            c["admm.iterations_max"] = max(c["admm.iterations_max"], its)
            if has_rows:
                c["admm.cert_checks"] += math.ceil(its / k_inf)
            if res.status == "infeasible":
                c["admm.certificates"] += 1
                c["admm.certificates_first_iter"] += int(its == 1)

    # -- analysis -----------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def self_times(self):
        """Per span name: total self time and number of calls, over the
        spans recorded inside operations."""
        n = len(self.spans)
        dur = np.empty(n)
        child = np.zeros(n)
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            dur[i] = t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own = Counter()
        calls = Counter()
        for i, (name, _, _, _, op) in enumerate(self.spans):
            if op >= 0:
                own[name] += dur[i] - child[i]
                calls[name] += 1
        return own, calls

    def metrics(self, op_seconds):
        """Per-layer metrics for the spans recorded since the last reset.

        op_seconds is the summed latency of the traced operations; the
        part of it that no span covers is reported as bench.other_s.
        """
        own, calls = self.self_times()
        c = self.counts
        out = {f"{name}_s": float(own.get(name, 0.0)) for name in TIMED}
        # reduce_prior does its work in children (bounding_box, set ops), so
        # it is reported inclusive; its own self time counts as builders
        out["builders.build_s"] += out["builders.reduce_prior_s"]
        out["builders.reduce_prior_s"] = float(sum(
            t1 - t0 for name, t0, t1, _, op in self.spans
            if name == "builders.reduce_prior" and op >= 0))
        out["sparse.factorize_calls"] = calls.get("sparse.factorize", 0)
        out["sparse.solve_calls"] = calls.get("sparse.solve", 0)
        out["sets.ops_calls"] = calls.get("sets.ops", 0)
        for key in ("sparse.factor_nnz", "sparse.solve_cols", "sparse.matrices_built",
                    "admm.solves", "admm.iterations", "admm.iterations_max", "admm.cert_checks"):
            out[key] = int(c.get(key, 0))
        checks = c.get("admm.cert_checks", 0)
        certs = c.get("admm.certificates", 0)
        out["admm.cert_hit_ratio"] = certs / checks if checks else 0.0
        out["admm.cert_first_iter_frac"] = c.get("admm.certificates_first_iter", 0) / certs if certs else 0.0
        out["bench.other_s"] = float(op_seconds - sum(own.values()))
        return out



def write_spans(spans, path):
    """Write (name, start, end, parent, op) spans as JSON lines."""
    with open(path, "w") as fh:
        for name, t0, t1, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                 "parent": parent, "op": op}) + "\n")
