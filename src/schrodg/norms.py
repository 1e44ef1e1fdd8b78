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
traces.  The norms evaluate a whole slab's facets of one kind per call.  A
field may also expose local(eids, x, t, dx) at offsets from the element
centres, as a discrete solution does; the norms pass it each facet group's
shared offsets (`FacetArrays.local_quadrature`).

A closed-form field built from callables is called like any other field,
once per side.  One built from a separable solution (with ``factors``) has
no sides: one trace serves both, read off tables made once per norm call: X
over the Gauss nodes of the mesh's columns and over its lines, T over each
space-like time and each slab's Gauss times; a group's trace is rows of X
times a block of T, equal to value(x, t) at its points to the last bit
(`mode_sum`).
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import FacetKind, Mesh
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
    """A separable field's factor tables on one mesh's grid and n-point rule.

    X over the Gauss nodes of the grid's columns, and value and dx over its
    lines; a group finds its columns by ``lo``, its line by ``fixed``.  T at a
    space-like group's time, or at the Gauss nodes of a time-like group's span.
    Only the last T is kept and the node X goes at the first time-like group,
    so a walk over the space-like groups, then the time-like ones slab by slab,
    evaluates every table once.
    """

    def __init__(self, factors, mesh: Mesh, n: int):
        self.factors, self.n = factors, n
        columns = mesh.element_arrays.x_range[:mesh.nx]
        self.lines = np.append(columns[:, 0], columns[-1, 1])
        self._nodes = factors(mapped_intervals(*columns.T, n)[0].reshape(-1), np.empty(0))[0]
        self._lines = {dx: factors(self.lines, np.empty(0), dx)[0] for dx in (False, True)}
        self._t = (None,)  # the last times and their T

    def _t_rows(self, t: np.ndarray) -> np.ndarray:
        """T at the times t, transposed: (t.size, m)."""
        if not np.array_equal(self._t[0], t):
            self._t = (None,)  # freed before the next one is built
            self._t = t, self.factors(np.empty(0), t.reshape(-1))[1].T
        return self._t[1]

    def trace(self, fa, dx: bool) -> np.ndarray:
        """The value (or dx) on every facet of ``fa`` at the n-point rule, (nF, n)."""
        if fa.kind.is_horizontal:  # rows of X: (column, node), times the group's T column
            grid = mode_sum(self._nodes[:, None, :], self._t_rows(_shared(fa.fixed))[None])
            return grid.reshape(-1, self.n)[np.searchsorted(self.lines, fa.lo)]
        self._nodes = None
        Tt = self._t_rows(mapped_intervals(_shared(fa.lo), _shared(fa.hi), self.n)[0])
        return mode_sum(self._lines[dx][np.searchsorted(self.lines, fa.fixed), None, :], Tt[None])


def _shared(a: np.ndarray) -> np.ndarray:
    """a[:1], the one value that every facet of a group has in ``a``."""
    if np.any(a != a[0]):
        raise ValueError("the facets of a group differ in their fixed time or time span")
    return a[:1]


def _tabulate(field, mesh: Mesh, n: int):
    """``field`` with every separable closed-form part replaced by its `_FactorTables`."""
    if isinstance(field, DifferenceField):
        return DifferenceField(_tabulate(field.a, mesh, n), _tabulate(field.b, mesh, n))
    if isinstance(field, ClosedFormField) and field.factors is not None:
        return _FactorTables(field.factors, mesh, n)
    return field


def _wsum_sq(w, z) -> float:
    z = np.asarray(z)
    return float(np.sum(w * (z.real * z.real + z.imag * z.imag)))


def _sides(field, fa, n: int, sides, dx: bool = False) -> list[np.ndarray]:
    """The one-sided traces (value, or dx) of field on the facets of ``fa`` from each
    neighbour slot in ``sides``, on the n-point rule.

    A field with ``local`` is evaluated at the group's offsets; factor tables
    ignore element ids, so one trace serves every side; a difference is split
    into its parts.
    """
    if isinstance(field, DifferenceField):
        return [a - b for a, b in zip(_sides(field.a, fa, n, sides, dx),
                                      _sides(field.b, fa, n, sides, dx))]
    if isinstance(field, _FactorTables):
        return [field.trace(fa, dx)] * len(sides)
    if hasattr(field, "local"):
        return [field.local(getattr(fa, s), *fa.local_quadrature(n, s)[:2], dx) for s in sides]
    X, T, _ = fa.quadrature(n)
    trace = field.dx if dx else field.value
    return [trace(getattr(fa, s), X, T) for s in sides]


def _norm_terms(field, mesh: Mesh, n: int, with_plus: bool) -> tuple[float, float]:
    field = _tabulate(field, mesh, n)
    s_dg = s_plus = 0.0
    # the space-like groups first, then the time-like ones slab by slab (see _FactorTables)
    for (kind, _), fa in sorted(mesh.facet_groups.items(),
                                key=lambda group: (not group[0][0].is_horizontal, group[0][1])):
        W = fa.local_quadrature(n, "owner")[2]
        if kind is FacetKind.SPACE_INTERIOR:
            wm, wp = _sides(field, fa, n, ("below", "above"))
            s_dg += _wsum_sq(W, wm - wp)
            s_plus += _wsum_sq(W, wm) if with_plus else 0.0
        elif kind is FacetKind.TIME_INTERIOR:
            alpha, beta = fa.alpha[:, None], fa.beta[:, None]
            v1, v2 = _sides(field, fa, n, ("left", "right"))
            g1, g2 = _sides(field, fa, n, ("left", "right"), dx=True)
            s_dg += _wsum_sq(alpha * W, v1 - v2) + _wsum_sq(beta * W, g1 - g2)
            if with_plus:
                s_plus += (_wsum_sq(W / alpha, 0.5 * (g1 + g2))
                           + _wsum_sq(W / beta, 0.5 * (v1 + v2)))
        else:  # initial, final and Dirichlet facets: the owner's trace alone
            alpha = fa.alpha[:, None] if kind is FacetKind.DIRICHLET else 1.0
            s_dg += _wsum_sq(alpha * W, _sides(field, fa, n, ("owner",))[0])
            if with_plus and kind is FacetKind.DIRICHLET:
                s_plus += _wsum_sq(W / alpha, _sides(field, fa, n, ("owner",), dx=True)[0])
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
    tops = mesh.element_arrays.t_range[::mesh.nx, 1]  # the top of every slab, in order
    elems = np.asarray(mesh.slab_elements[int(np.searchsorted(tops, t))], dtype=np.intp)
    x_range = mesh.element_arrays.x_range[elems]
    X, W = mapped_intervals(x_range[:, 0], x_range[:, 1], n)
    return math.sqrt(_wsum_sq(W, field.value(elems, X, t)))
