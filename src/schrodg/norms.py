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
traces.  The norms walk each facet kind over chunks of consecutive slabs,
at most `_CHUNK_POINTS` points or T entries each, and call a field once per
chunk and kind (and side).  A field may also expose local(eids, n, place, dx),
its trace at the n-point rule on a place of the elements (`Mesh.rule`), which a
discrete solution reads off its basis' trace table; the norms pass it the place
of each neighbour slot (`PLACE`), a boundary facet's owner slot by slot.
`dg_norms` sums several fields in one walk, each as in a walk of its own; the
trace of a closed-form part that the fields share is taken once per chunk and kind.

A closed-form field built from a separable solution (with ``factors``) has
no sides: one trace serves both, read off tables: X once per norm call over
the Gauss nodes of the mesh's columns and over its x-lines, T once per chunk
over the t-lines or the slabs' Gauss times that its facets lie on.  Each
trace is rows of X times rows of T, equal to value(x, t) at its points to
the last bit (`mode_sum`).
"""

from __future__ import annotations

import functools
import math
from itertools import product
from types import SimpleNamespace

import numpy as np

from .mesh import PLACE, FacetKind, Mesh
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
    the Gauss nodes of the grid's columns, and value and dx over its x-lines; T at the
    t-lines of a group of space-like facets, or at the Gauss nodes of a group of
    time-like facets' slabs.  The facets of a group are whole grid rows in a known
    order, so their traces are rows of X times rows of T, reshaped to facet order.  Only
    the last T is kept, reused while the groups ask for the same times, and the node X
    goes at the first time-like group: a walk over the space-like groups, then the
    time-like ones chunk by chunk, evaluates every table once.
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

    def trace(self, fa, dx: bool) -> np.ndarray:
        """The value (or dx) on every facet of ``fa`` at the n-point rule, (nF, n)."""
        n = self.n
        if fa.kind.is_horizontal:  # t-line by t-line, then column by column
            Tt = self._t_rows(fa.fixed[::self.mesh.nx])
            return mode_sum(self._nodes[None], Tt[:, None]).reshape(-1, n)
        self._nodes = None
        lines = self.mesh.lines(fa.kind)  # slab by slab, then x-line by x-line
        k = len(lines)
        Tt = self._t_rows(mapped_intervals(fa.lo[::k], fa.hi[::k], n)[0].reshape(-1))
        grid = mode_sum(self._lines[dx][lines, None], Tt[None])  # (x-line, slab node)
        return grid.reshape(k, -1, n).swapaxes(0, 1).reshape(-1, n)


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


def _sides(field, at: SimpleNamespace, sides, dx: bool = False) -> list[np.ndarray]:
    """The one-sided traces (value, or dx) of field on the facets of ``at.fa`` from each
    neighbour slot in ``sides``, on the n-point rule.

    A field with ``local`` is evaluated at the place of each slot; factor tables
    ignore element ids, so one trace serves every side; a difference is split
    into its parts.
    """
    if isinstance(field, DifferenceField):
        return [a - b for a, b in zip(_sides(field.a, at, sides, dx),
                                      _sides(field.b, at, sides, dx))]
    if isinstance(field, _FactorTables):
        return [at.trace(field, dx)] * len(sides)
    if hasattr(field, "local"):
        return [_local(field, at.fa, at.n, s, dx) for s in sides]
    X, T, _ = at.fa.quadrature(at.n)
    trace = field.dx if dx else field.value
    return [trace(getattr(at.fa, s), X, T) for s in sides]


def _local(field, fa, n: int, slot: str, dx: bool) -> np.ndarray:
    """``field.local`` on the facets of ``fa`` from neighbour ``slot``, (nF, n)."""
    if slot != "owner":
        return field.local(getattr(fa, slot), n, PLACE[slot], dx)
    out = np.empty((len(fa.owner), n), dtype=complex)
    for s in PLACE:  # a boundary facet's owner is its one neighbour, in facet order
        if (has := getattr(fa, s) >= 0).any():
            out[has] = field.local(getattr(fa, s)[has], n, PLACE[s], dx)
    return out


_CHUNK_POINTS = 1 << 14  # a chunk's largest array: the points of one facet kind, or T


def _norm_terms(fields, mesh: Mesh, n: int, with_plus: bool) -> list[tuple[float, float]]:
    tables = {}
    fields = [_tabulate(field, mesh, n, tables) for field in fields]
    step = max(1, _CHUNK_POINTS // (n * max([mesh.nx + 1] + [t.modes for t in tables.values()])))
    chunks = [range(s, min(s + step, mesh.n_slabs)) for s in range(0, mesh.n_slabs, step)]
    # every kind chunk by chunk, the space-like kinds first (see _FactorTables)
    walk = sorted(product(chunks, FacetKind), key=lambda pair: not pair[1].is_horizontal)
    sums = [[0.0, 0.0] for _ in fields]
    weights = {True: mesh.rule(n, "top")[2], False: mesh.rule(n, "left")[2]}  # is_horizontal
    for fa in filter(None, (mesh.facet_arrays(kind, slabs) for slabs, kind in walk)):
        # each factor table's traces: every field reads them the same on this (chunk, kind)
        at = SimpleNamespace(fa=fa, n=n,
                             trace=functools.cache(lambda t, dx, fa=fa: t.trace(fa, dx)))
        kind, W = fa.kind, weights[fa.kind.is_horizontal]
        for field, s in zip(fields, sums):
            if kind is FacetKind.SPACE_INTERIOR:
                wm, wp = _sides(field, at, ("below", "above"))
                s[0] += _wsum_sq(W, wm - wp)
                s[1] += _wsum_sq(W, wm) if with_plus else 0.0
            elif kind is FacetKind.TIME_INTERIOR:
                alpha, beta = fa.alpha[:, None], fa.beta[:, None]
                v1, v2 = _sides(field, at, ("left", "right"))
                g1, g2 = _sides(field, at, ("left", "right"), dx=True)
                s[0] += _wsum_sq(alpha * W, v1 - v2) + _wsum_sq(beta * W, g1 - g2)
                if with_plus:
                    s[1] += (_wsum_sq(W / alpha, 0.5 * (g1 + g2))
                             + _wsum_sq(W / beta, 0.5 * (v1 + v2)))
            else:  # initial, final and Dirichlet facets: the owner's trace alone
                alpha = fa.alpha[:, None] if kind is FacetKind.DIRICHLET else 1.0
                s[0] += _wsum_sq(alpha * W, _sides(field, at, ("owner",))[0])
                if with_plus and kind is FacetKind.DIRICHLET:
                    s[1] += _wsum_sq(W / alpha, _sides(field, at, ("owner",), dx=True)[0])
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
