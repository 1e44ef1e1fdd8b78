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
traces.  The norms evaluate a whole slab's facets of one kind per call.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import FacetKind, Mesh
from .poly import ScaledPolynomial, scaled_monomials
from .quadrature import mapped_intervals


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
    """A globally defined field; element ids are ignored."""

    def __init__(self, value_fn, dx_fn):
        self._value = value_fn
        self._dx = dx_fn

    def value(self, eid, xs, ts):
        xs, ts = np.broadcast_arrays(np.atleast_1d(xs), np.atleast_1d(ts))
        return np.asarray(self._value(xs, ts), dtype=complex)

    def dx(self, eid, xs, ts):
        xs, ts = np.broadcast_arrays(np.atleast_1d(xs), np.atleast_1d(ts))
        return np.asarray(self._dx(xs, ts), dtype=complex)


def exact_field(sol) -> ClosedFormField:
    """Field view of a solution object with value/dx methods."""
    return ClosedFormField(sol.value, sol.dx)


class PiecewisePolyField:
    """One polynomial per element (d = 1), e.g. an elementwise interpolant."""

    def __init__(self, polys: list[ScaledPolynomial]):
        self.polys = polys
        exps = sorted({(j.jx[0], j.jt) for p in polys for j in p.coeffs})
        column = {e: k for k, e in enumerate(exps)}
        self._exps = np.array(exps, dtype=np.intp).reshape(-1, 2)
        self._coeffs = np.zeros((len(polys), len(exps)), dtype=complex)
        for row, p in enumerate(polys):
            for j, c in p.coeffs.items():
                self._coeffs[row, column[(j.jx[0], j.jt)]] = c
        # per element: center x, center t, h_x, h_t
        self._frame = np.array([(p.center[0][0], p.center[1], *p.scales) for p in polys],
                               dtype=float).reshape(-1, 4)

    def _eval(self, eid, xs, ts, dx: bool) -> np.ndarray:
        eids, X, T, shape = field_points(eid, xs, ts)
        z, s, hx, ht = (self._frame[eids, k][:, None] for k in range(4))
        mon = scaled_monomials(self._exps, (X - z) / hx, (T - s) / ht, dx)
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


def _wsum_sq(w, z) -> float:
    z = np.asarray(z)
    return float(np.sum(w * (z.real * z.real + z.imag * z.imag)))


def _norm_terms(field, mesh: Mesh, n: int, with_plus: bool) -> tuple[float, float]:
    s_dg = 0.0
    s_plus = 0.0
    for slab in range(mesh.n_slabs):
        for kind in FacetKind:
            fa = mesh.facet_arrays(kind, slab)
            if fa is None:
                continue
            X, T, W = fa.quadrature(n)
            if kind is FacetKind.SPACE_INTERIOR:
                wm = field.value(fa.below, X, T)
                wp = field.value(fa.above, X, T)
                s_dg += _wsum_sq(W, wm - wp)
                if with_plus:
                    s_plus += _wsum_sq(W, wm)
            elif kind in (FacetKind.INITIAL, FacetKind.FINAL):
                s_dg += _wsum_sq(W, field.value(fa.owner, X, T))
            elif kind is FacetKind.TIME_INTERIOR:
                alpha, beta = fa.alpha[:, None], fa.beta[:, None]
                v1 = field.value(fa.left, X, T)
                v2 = field.value(fa.right, X, T)
                g1 = field.dx(fa.left, X, T)
                g2 = field.dx(fa.right, X, T)
                s_dg += _wsum_sq(alpha * W, v1 - v2) + _wsum_sq(beta * W, g1 - g2)
                if with_plus:
                    s_plus += _wsum_sq(W / alpha, 0.5 * (g1 + g2))
                    s_plus += _wsum_sq(W / beta, 0.5 * (v1 + v2))
            elif kind is FacetKind.DIRICHLET:
                alpha = fa.alpha[:, None]
                s_dg += _wsum_sq(alpha * W, field.value(fa.owner, X, T))
                if with_plus:
                    s_plus += _wsum_sq(W / alpha, field.dx(fa.owner, X, T))
    return s_dg, s_plus


def dg_norm(field, mesh: Mesh, n: int = 20) -> float:
    s_dg, _ = _norm_terms(field, mesh, n, with_plus=False)
    return math.sqrt(0.5 * s_dg)


def dg_plus_norm(field, mesh: Mesh, n: int = 20) -> float:
    s_dg, s_plus = _norm_terms(field, mesh, n, with_plus=True)
    return math.sqrt(0.5 * (s_dg + s_plus))


def l2_slice_error(field, t: float, mesh: Mesh, n: int = 20) -> float:
    """Elementwise L2(Omega) norm of the field at fixed time.

    At slab interfaces the one-sided trace from the earlier slab is used.
    """
    if not 0.0 <= t <= mesh.domain.t_final:
        raise ValueError("t outside the time interval")
    slab = 0
    t_range = mesh.element_arrays.t_range
    for s in range(mesh.n_slabs):
        t0, t1 = t_range[mesh.slab_elements[s][0]]
        if t0 < t <= t1 or (s == 0 and t <= t0):
            slab = s
            break
    elems = np.asarray(mesh.slab_elements[slab], dtype=np.intp)
    x_range = mesh.element_arrays.x_range[elems]
    X, W = mapped_intervals(x_range[:, 0], x_range[:, 1], n)
    return math.sqrt(_wsum_sq(W, field.value(elems, X, t)))
