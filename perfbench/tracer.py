"""Per-layer tracing of schrodg from outside the program.

The tracer wraps the public entry points of each schrodg module after
``import schrodg``.  A wrapped function is replaced in every schrodg module
that bound it (``eval_poly_many`` is imported by name into ``basis``,
``assembly``, ``norms`` and ``experiments``), so each call goes through one
wrapper and is counted once.  A call that re-enters a layer already on the
stack (``ExpSolution.dx`` calling ``value``, ``rect_rule`` calling
``mapped_interval``) belongs to the outer span and is not counted again.

Spans are aggregated in memory: per layer the inclusive time, the self time
(the span minus the child spans it covers) and the call count, and per
(parent, child) pair the child's time.  A target that a later refactor
removed is listed as missing; a layer with no target left is absent and
reports no metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, qualified name)
TARGETS = (
    ("mesh.build", "schrodg.mesh", "build_cartesian_mesh"),
    ("basis.build", "schrodg.basis", "element_basis"),
    ("basis.eval", "schrodg.basis", "eval_basis_many"),
    ("poly.eval", "schrodg.poly", "eval_poly_many"),
    ("quadrature.rule", "schrodg.quadrature", "mapped_interval"),
    ("quadrature.rule", "schrodg.quadrature", "rect_rule"),
    ("assembly.march", "schrodg.assembly", "march"),
    ("linalg.factor", "schrodg.linalg", "FactoredMatrix.__init__"),
    ("linalg.solve", "schrodg.linalg", "FactoredMatrix.solve"),
    ("linalg.cond2", "schrodg.linalg", "cond2"),
    ("norms.dg_norm", "schrodg.norms", "dg_norm"),
    ("solutions.eval", "schrodg.solutions", "ExpSolution.value"),
    ("solutions.eval", "schrodg.solutions", "ExpSolution.dx"),
    ("solutions.eval", "schrodg.solutions", "SquareWellSeries.value"),
    ("solutions.eval", "schrodg.solutions", "SquareWellSeries.dx"),
    ("experiments.write", "schrodg.experiments", "write_rows_csv"),
    ("experiments.write", "schrodg.experiments", "write_json"),
)


def _eval_points(args, kwargs):
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    ts = args[2] if len(args) > 2 else kwargs["ts"]
    return {"poly.eval_points": np.broadcast(np.asarray(xs), np.asarray(ts)).size}


def _slabs(args, kwargs):
    mesh = args[0] if args else kwargs["mesh"]
    return {"assembly.slabs": mesh.n_slabs}


def _factor_size(args, kwargs):
    # computed from the matrix size, not measured: dense complex128 LU
    # storage, and the 8/3 n^3 real flops of complex Gaussian elimination
    n = np.shape(args[1] if len(args) > 1 else kwargs["a"])[0]
    return {"linalg.factor_bytes_computed": 16 * n * n,
            "linalg.factor_flops_computed": 8 * n ** 3 / 3}


# layer -> (counter function, the keys it adds)
COUNTERS = {
    "poly.eval": (_eval_points, ("poly.eval_points",)),
    "assembly.march": (_slabs, ("assembly.slabs",)),
    "linalg.factor": (_factor_size, ("linalg.factor_bytes_computed",
                                     "linalg.factor_flops_computed")),
}


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.children = defaultdict(float)  # (parent layer, child layer) -> seconds
        self.missing: list[str] = []
        self.layers: set[str] = set()
        self._stack: list[list] = []  # [layer, seconds covered by child spans]
        self._active: set[str] = set()

    def _wrap(self, layer: str, fn):
        count = COUNTERS[layer][0] if layer in COUNTERS else None
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in active:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            if count is not None:
                for key, value in count(args, kwargs).items():
                    self.counts[key] += value
            frame = [layer, 0.0]
            stack.append(frame)
            active.add(layer)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                active.discard(layer)
                self.time[layer] += dt
                self.self_time[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    self.children[(stack[-1][0], layer)] += dt

        return traced

    def install(self) -> None:
        """Wrap every target; call after ``import schrodg``."""
        for layer, module_name, qualname in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(layer, original)
            self.layers.add(layer)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "schrodg" or name.startswith("schrodg."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def snapshot(self) -> dict:
        """Metrics of every present layer, plus the per-parent child times."""
        out: dict[str, float] = {}
        for layer in sorted(self.layers):
            out[f"{layer}_s"] = self.time[layer]
            out[f"{layer}_self_s"] = self.self_time[layer]
            out[f"{layer}_calls"] = self.calls[layer]
        for layer, (_, keys) in COUNTERS.items():
            if layer in self.layers:
                for key in keys:
                    out[key] = self.counts[key]
        if {"assembly.march", "linalg.factor"} <= self.layers and self.calls["linalg.factor"]:
            out["linalg.slabs_per_factor"] = (self.counts["assembly.slabs"]
                                              / self.calls["linalg.factor"])
        return {"metrics": out, "missing": self.missing,
                "children": [[p, c, t] for (p, c), t in sorted(self.children.items())]}

