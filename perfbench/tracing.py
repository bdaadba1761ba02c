"""Per-layer spans for the traced benchmark pass.

A Tracer replaces module attributes of ``mpotrace`` (``mpo.compress``,
``tensor.truncated_svd``, ``lanczos.run_lanczos``, ...) with timing wrappers
for the duration of a ``with`` block and restores them afterwards. Callers
inside the package look these functions up through the module at call time,
so every call on the real call path is seen. The ``mpotrace.*`` re-exports
are bound at import and are deliberately left alone.

Each wrapped call is a span: calls, inclusive seconds and self seconds
(inclusive minus the time of nested spans) accumulate per function. Hooks
record counts at the same boundaries: bytes, bond extents, discarded weight,
Lanczos steps and termination reasons, and every Lanczos run seen, so the
caller can compare its nodes with an exact ground energy. Work done by a
hook (the norm behind ``discarded_rel``) is excluded from every enclosing
span.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

TRACED = {
    "tensor": ("truncated_svd", "symtridiag_eig"),
    "mpo": ("compress", "multiply", "add", "inner_product", "frobenius_norm"),
    "lanczos": ("run_lanczos", "save_run", "load_run"),
    "thermal": ("sweep_observables", "partition_traces", "correlation_zz", "expectation"),
    "cli": ("run_sweep", "write_sweep_csv"),
}


class Tracer:
    """Context manager that records spans of the package's layer functions."""

    def __init__(self, package):
        self.package = package
        self.stats = defaultdict(float)
        self.runs = []  # every LanczosRun executed or loaded inside the block
        self._stack = []  # per open span: seconds covered by its child spans
        self._excluded = 0.0  # hook seconds, removed from all enclosing spans
        self._originals = []
        self._inner_product = package.mpo.inner_product
        self._hooks = {
            "tensor.truncated_svd": self._svd_hook,
            "mpo.compress": self._compress_hook,
            "lanczos.run_lanczos": self._run_hook,
            "lanczos.load_run": self._load_hook,
            "lanczos.save_run": lambda args, out: self._add_bytes("lanczos.save_run", args[1]),
            "cli.write_sweep_csv": lambda args, out: self._add_bytes("cli.write_sweep_csv", args[0]),
        }

    def __enter__(self):
        for module_name, names in TRACED.items():
            module = getattr(self.package, module_name)
            for name in names:
                fn = getattr(module, name)
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{module_name}.{name}", fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()
        return False

    def _wrap(self, span, fn):
        hook = self._hooks.get(span)
        stack = self._stack
        stats = self.stats

        def traced(*args, **kwargs):
            stack.append(0.0)
            excluded0 = self._excluded
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0 - (self._excluded - excluded0)
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[f"{span}.calls"] += 1
                stats[f"{span}.s"] += dt
                stats[f"{span}.self_s"] += dt - children
            if hook is not None:
                h0 = time.perf_counter()
                hook(args, out)
                self._excluded += time.perf_counter() - h0
            return out

        return traced

    # -- hooks: counts recorded at the same boundaries as the spans

    def _svd_hook(self, args, out):
        self.stats["tensor.truncated_svd.bytes"] += args[0].nbytes

    def _compress_hook(self, args, out):
        u, (w, report) = args[0], out
        stats = self.stats
        stats["mpo.compress.bond_in_max"] = max(stats["mpo.compress.bond_in_max"], u.max_bond)
        kept = self._inner_product(w, w).real
        stats["mpo.compress.discarded"] += report.total_discarded
        stats["mpo.compress.weight_in"] += kept + report.total_discarded

    def _run_hook(self, args, run):
        self.runs.append(run)
        self.stats["lanczos.steps"] += run.projection.k
        self.stats[f"lanczos.term.{run.projection.termination}"] += 1

    def _load_hook(self, args, out):
        self.runs.append(out[0])
        self._add_bytes("lanczos.load_run", args[0])

    def _add_bytes(self, span, path):
        self.stats[f"{span}.bytes"] += os.path.getsize(path)
