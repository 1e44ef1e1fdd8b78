"""Mesh-dependent DG norms of piecewise fields, plus L2 slice diagnostics.

With [w]_t the time jump on space-like facets, [w]_N / <w> the normal jump
and average on time-like facets, and n the outward normal on the Dirichlet
boundary:

    |||w|||_DG^2  = 1/2 ( ||[w]_t||^2_space + ||w||^2_{final+initial}
                    + ||a^(1/2) [w]_N||^2_time + ||b^(1/2) [w_x]_N||^2_time
                    + ||a^(1/2) w||^2_dirichlet )

    |||w|||_DG+^2 = |||w|||_DG^2 + 1/2 ( ||w^-||^2_space
                    + ||a^(-1/2) <w_x>||^2_time + ||a^(-1/2) n w_x||^2_dirichlet
                    + ||b^(-1/2) <w>||^2_time )

A field exposes one-sided traces via value(eid, xs, ts) and dx(eid, xs, ts).
``eid`` is an element id or an int array of ids (nF,); with an array, the
points broadcast to (nF, nq) and row f lies on element eid[f].  The result
has the shape of the points.  Jumps are always formed from two one-sided
traces.

The norms read every facet off the grid.  They walk the mesh in chunks of
consecutive slabs, at most `_CHUNK_POINTS` points or T entries each: first the
space-like facets (the t-lines) chunk by chunk, then the time-like ones (the
x-lines).  Per chunk, each field gives its trace at each place of the chunk's
elements, their "top" and "bottom" or their "left" and "right" sides
(`Mesh.rule`), as a (slabs, columns, n) array, and a facet's two traces are
shifted slices of those: the jump across the t-line above slab s is
top[s] - bottom[s + 1], that across the x-line right of column ix is
right[:, ix] - left[:, ix + 1], and the Dirichlet owners are left[:, 0] and
right[:, -1].  A field with traces(slabs, n, place, dx) (a discrete solution)
gives them itself; any other is called once per chunk and place, with the
grid's points and every element of the chunk as one row.  `dg_norms` sums several
fields in one walk, each as in a walk of its own; the trace of a closed-form part
that the fields share is taken once per chunk.

A closed-form field built from a separable solution (with ``factors``) has
no sides: one trace serves both, read off tables: X once per norm call over
the Gauss nodes of the mesh's columns and over its x-lines, T once per chunk
over the t-lines it owns or over its slabs' Gauss times.  Each trace is rows
of X times rows of T, equal to value(x, t) at its points to the last bit
(`mode_sum`).
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import Mesh
from .poly import ScaledPolynomial, dense_terms, mi, scaled_monomials
from .quadrature import mapped_intervals
from .solutions import mode_sum


def field_points(eid, xs, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Normalize the arguments of a field call.

    Returns element ids (nF,), points X, T (nF, nq) and the shape of the
    result: that of the broadcast points, at least 1-D for a scalar id.
    """
    eids = np.asarray(eid, dtype=np.intp)
    if eids.ndim == 0:
        X, T = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float))
        return eids.reshape(1), X.reshape(1, -1), T.reshape(1, -1), X.shape or (1,)
    if eids.ndim != 1:
        raise ValueError("element ids must be a scalar or a 1-D array")
    X, T, _ = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float),
                                  eids[:, None])
    if X.ndim != 2:
        raise ValueError("points must broadcast to (number of ids, points per id)")
    return eids, X, T, X.shape


class ClosedFormField:
    """A globally defined field; element ids are ignored.  The norms read one with
    ``factors`` (a separable solution's, see `schrodg.solutions`) off factor tables."""

    def __init__(self, value_fn, dx_fn, factors=None):
        self._value = value_fn
        self._dx = dx_fn
        self.factors = factors

    def value(self, eid, xs, ts):
        xs, ts = np.broadcast_arrays(np.atleast_1d(xs), np.atleast_1d(ts))
        return np.asarray(self._value(xs, ts), dtype=complex)

    def dx(self, eid, xs, ts):
        xs, ts = np.broadcast_arrays(np.atleast_1d(xs), np.atleast_1d(ts))
        return np.asarray(self._dx(xs, ts), dtype=complex)


def exact_field(sol) -> ClosedFormField:
    """Field view of a solution object with value/dx methods, and factors if it has them."""
    return ClosedFormField(sol.value, sol.dx, getattr(sol, "factors", None))


class PiecewisePolyField:
    """One polynomial per element (d = 1), e.g. an elementwise interpolant."""

    def __init__(self, polys: list[ScaledPolynomial]):
        self._exps, self._coeffs = dense_terms(polys)
        # per element: center x, center t, h_x, h_t
        self._frame = np.array([(p.center[0][0], p.center[1], *p.scales) for p in polys],
                               dtype=float).reshape(-1, 4)

    def _eval(self, eid, xs, ts, dx: bool) -> np.ndarray:
        eids, X, T, shape = field_points(eid, xs, ts)
        z, s, hx, ht = (self._frame[eids, k][:, None] for k in range(4))
        mon = scaled_monomials(self._exps, ((X - z) / hx, (T - s) / ht), mi(1, 0) if dx else None)
        out = np.einsum("fk,kfq->fq", self._coeffs[eids], mon)
        return (out / hx if dx else out).reshape(shape)

    def value(self, eid, xs, ts):
        return self._eval(eid, xs, ts, dx=False)

    def dx(self, eid, xs, ts):
        return self._eval(eid, xs, ts, dx=True)


class DifferenceField:
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def value(self, eid, xs, ts):
        return self.a.value(eid, xs, ts) - self.b.value(eid, xs, ts)

    def dx(self, eid, xs, ts):
        return self.a.dx(eid, xs, ts) - self.b.dx(eid, xs, ts)


class _FactorTables:
    """A separable field's factor tables on one mesh's grid and n-point rule: X over
    the Gauss nodes of the grid's columns, and value and dx over its x-lines; T at
    some t-lines, or at the Gauss nodes of some slabs.  Only the last T is kept,
    reused while the chunks ask for the same times, and the node X goes at the first
    time-like trace: a walk over the space-like facets, then the time-like ones,
    evaluates every table once.
    """

    def __init__(self, factors, mesh: Mesh, n: int):
        self.factors, self.mesh, self.n = factors, mesh, n
        xs = mesh.xs
        self._nodes = factors(mapped_intervals(xs[:-1], xs[1:], n)[0].reshape(-1),
                              np.empty(0))[0]
        self._lines = {dx: factors(xs, np.empty(0), dx)[0] for dx in (False, True)}
        self.modes = self._nodes.shape[1]
        self._t = (None,)  # the times of the last T, and its rows (T.T)

    def _t_rows(self, t: np.ndarray) -> np.ndarray:
        """T.T at the times ``t``."""
        if self._t[0] != t.tobytes():
            self._t = (None,)  # freed before the next one is built
            self._t = t.tobytes(), self.factors(np.empty(0), t)[1].T
        return self._t[1]

    def on_t_lines(self, t: np.ndarray) -> np.ndarray:
        """The value at the Gauss nodes of every column on the t-lines at times ``t``,
        (len(t), nx, n)."""
        return mode_sum(self._nodes[None], self._t_rows(t)[:, None]).reshape(len(t), -1, self.n)

    def on_x_lines(self, t: np.ndarray, dx: bool) -> np.ndarray:
        """The value (or dx) on every x-line at the Gauss times ``t`` of some slabs, slab
        by slab, (slabs, nx + 1, n)."""
        self._nodes = None
        grid = mode_sum(self._lines[dx][:, None], self._t_rows(t)[None])  # (x-line, time)
        return grid.reshape(len(self._lines[dx]), -1, self.n).swapaxes(0, 1)


def _tabulate(field, mesh: Mesh, n: int, tables: dict):
    """``field`` with every separable closed-form part replaced by its `_FactorTables`,
    kept in ``tables`` by part: a part that several fields share gets one."""
    if isinstance(field, DifferenceField):
        return DifferenceField(_tabulate(field.a, mesh, n, tables),
                               _tabulate(field.b, mesh, n, tables))
    if isinstance(field, ClosedFormField) and field.factors is not None:
        tables[field] = tables.get(field) or _FactorTables(field.factors, mesh, n)
        return tables[field]
    return field


def _wsum_sq(w, z) -> float:
    z = np.asarray(z)
    return float(np.sum(w * (z.real * z.real + z.imag * z.imag)))


class _Chunk:
    """The places of a chunk of consecutive slabs: its elements' tops, and the bottoms of
    the elements just above the t-lines it owns (the tops of its slabs, and slab 0's
    bottom too), or its elements' left and right sides.  Each trace of a separable
    part is kept for the chunk, so the fields of a walk share it."""

    def __init__(self, mesh: Mesh, n: int, slabs: range, nodes: np.ndarray):
        self.mesh, self.n, self.slabs, self._nodes = mesh, n, slabs, nodes
        self.lines = range(slabs.start + (slabs.start > 0), slabs.stop + 1)  # owned t-lines
        self._kept = {}

    def slabs_at(self, place: str) -> range:
        if place == "bottom":  # the slabs just above the owned t-lines
            return range(self.lines.start, min(self.lines.stop, self.mesh.nt))
        return self.slabs

    def trace(self, field, place: str, dx: bool = False) -> np.ndarray:
        """``field``'s value (or dx) at the n-point rule on ``place`` of the elements of
        `slabs_at` (place), (slabs, nx, n); a difference is split into its parts."""
        if isinstance(field, DifferenceField):
            return self.trace(field.a, place, dx) - self.trace(field.b, place, dx)
        slabs, mesh, n = self.slabs_at(place), self.mesh, self.n
        if isinstance(field, _FactorTables):
            return self._separable(field, place, dx)
        if hasattr(field, "traces"):
            return field.traces(slabs, n, place, dx)
        ids = np.arange(slabs.start * mesh.nx, slabs.stop * mesh.nx)
        if place in ("top", "bottom"):
            t = mesh.ts[np.array(slabs) + (place == "top")]
            X, T = np.tile(self._nodes, (len(slabs), 1)), np.repeat(t, mesh.nx)[:, None]
        else:
            x = mesh.xs[1:] if place == "right" else mesh.xs[:-1]
            X, T = np.tile(x, len(slabs))[:, None], np.repeat(self._times(), mesh.nx, axis=0)
        X, T = np.broadcast_arrays(X, T)
        return (field.dx if dx else field.value)(ids, X, T).reshape(len(slabs), mesh.nx, n)

    def _times(self) -> np.ndarray:
        """The Gauss times of every slab of the chunk, (slabs, n)."""
        ts = self.mesh.ts
        return mapped_intervals(ts[self.slabs.start:self.slabs.stop],
                                ts[self.slabs.start + 1:self.slabs.stop + 1], self.n)[0]

    def _separable(self, table: _FactorTables, place: str, dx: bool) -> np.ndarray:
        # one trace on the owned t-lines, or on every x-line, serves both sides
        key = (table, place in ("top", "bottom"), dx)
        if key not in self._kept:
            self._kept[key] = (table.on_t_lines(self.mesh.ts[self.lines.start:self.lines.stop])
                               if key[1] else table.on_x_lines(self._times().reshape(-1), dx))
        kept = self._kept[key]
        if place == "top":  # the t-lines above the chunk's slabs: the last len(slabs)
            return kept[len(kept) - len(self.slabs):]
        if place == "bottom":
            return kept[:len(self.slabs_at("bottom"))]
        return kept[:, 1:] if place == "right" else kept[:, :-1]


_CHUNK_POINTS = 1 << 14  # a chunk's largest array: the points of one place, or T


def _norm_terms(fields, mesh: Mesh, n: int, with_plus: bool) -> list[tuple[float, float]]:
    tables = {}
    fields = [_tabulate(field, mesh, n, tables) for field in fields]
    nx, nt = mesh.nx, mesh.nt
    step = max(1, _CHUNK_POINTS // (n * max([nx + 1] + [t.modes for t in tables.values()])))
    chunks = [range(s, min(s + step, nt)) for s in range(0, nt, step)]
    nodes = mapped_intervals(mesh.xs[:-1], mesh.xs[1:], n)[0]
    sums = [[0.0, 0.0] for _ in fields]
    W, alpha, beta = mesh.rule(n, "top")[2], 1.0 / mesh.h[0], mesh.h[0]
    for slabs in chunks:  # the space-like facets: interior, final, initial
        at = _Chunk(mesh, n, slabs, nodes)
        k = min(slabs.stop, nt - 1) - slabs.start  # interior t-lines the chunk owns
        for field, s in zip(fields, sums):
            top = at.trace(field, "top")
            bottom = at.trace(field, "bottom") if k > 0 or slabs.start == 0 else None
            if k > 0:
                s[0] += _wsum_sq(W, top[:k] - bottom[len(bottom) - k:])
                s[1] += _wsum_sq(W, top[:k]) if with_plus else 0.0
            if slabs.stop == nt:
                s[0] += _wsum_sq(W, top[-1])
            if slabs.start == 0:
                s[0] += _wsum_sq(W, bottom[0])
    W = mesh.rule(n, "left")[2]
    for slabs in chunks:  # the time-like facets: interior, then Dirichlet (x_lo, x_hi)
        at = _Chunk(mesh, n, slabs, nodes)
        for field, s in zip(fields, sums):
            right, left = at.trace(field, "right"), at.trace(field, "left")
            if nx > 1 or with_plus:
                right_dx, left_dx = at.trace(field, "right", True), at.trace(field, "left", True)
            if nx > 1:  # x-line ix + 1: column ix's right side, column ix + 1's left side
                v1, v2, g1, g2 = right[:, :-1], left[:, 1:], right_dx[:, :-1], left_dx[:, 1:]
                s[0] += _wsum_sq(alpha * W, v1 - v2) + _wsum_sq(beta * W, g1 - g2)
                if with_plus:
                    s[1] += (_wsum_sq(W / alpha, 0.5 * (g1 + g2))
                             + _wsum_sq(W / beta, 0.5 * (v1 + v2)))
            s[0] += _wsum_sq(alpha * W, np.stack((left[:, 0], right[:, -1]), axis=1))
            if with_plus:
                s[1] += _wsum_sq(W / alpha, np.stack((left_dx[:, 0], right_dx[:, -1]), axis=1))
    return [tuple(s) for s in sums]


def dg_norms(fields, mesh: Mesh, n: int = 20) -> list[float]:
    """`dg_norm` of each field, in one walk.  The chunks are sized by the largest factor
    table, so a value equals `dg_norm`'s to the bit where each field has one that large."""
    return [math.sqrt(0.5 * s_dg) for s_dg, _ in _norm_terms(fields, mesh, n, with_plus=False)]


def dg_norm(field, mesh: Mesh, n: int = 20) -> float:
    return dg_norms([field], mesh, n)[0]


def dg_plus_norm(field, mesh: Mesh, n: int = 20) -> float:
    s_dg, s_plus = _norm_terms([field], mesh, n, with_plus=True)[0]
    return math.sqrt(0.5 * (s_dg + s_plus))


def l2_slice_error(field, t: float, mesh: Mesh, n: int = 20) -> float:
    """Elementwise L2(Omega) norm of the field at fixed time.

    At slab interfaces the one-sided trace from the earlier slab is used.
    """
    if not 0.0 <= t <= mesh.domain.t_final:
        raise ValueError("t outside the time interval")
    elems = np.asarray(mesh.slab_elements[int(np.searchsorted(mesh.ts[1:], t))], dtype=np.intp)
    X, W = mapped_intervals(mesh.xs[:-1], mesh.xs[1:], n)
    return math.sqrt(_wsum_sq(W, field.value(elems, X, t)))
