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

The norms read every facet off the grid, in one walk over chunks of consecutive slabs,
at most `_CHUNK_POINTS` points of one place each.  Per chunk, each field gives its trace
at each place of the chunk's elements, "top", "bottom", "left" and "right" (`Mesh.rule`),
as a (slabs, columns, n) array; a facet's two traces are shifted slices of those.  A
chunk owns the t-lines at its slabs' bottoms: slab 0's is the initial line, and the jump
across the t-line below slab s is top[s - 1] - bottom[s].  The top of a chunk's last slab
is carried to the next chunk, the one row it reads of another chunk's slabs; the last
chunk's is the final line.  The jump across the x-line right of column ix is
right[:, ix] - left[:, ix + 1], and the Dirichlet owners are left[:, 0] and right[:, -1].
A field with traces(slabs, n, place, dx, out) (a discrete solution) gives them itself,
as one product written into ``out``; any other is called once per chunk and place: a
closed-form field at the grid's points unbroadcast, any other with a row of points per
element.  A difference's trace is the difference of its parts'.  A walk allocates its
trace buffers once, (fields, slabs, nx, n), with room for a chunk's slabs (and the
carried row), so their size never follows the number of slabs; the sides' values reuse
the top and bottom buffers once the chunk's t-lines are done.  Each field's parts are
combined in its row, and the jumps and sums are taken in place for every field at once.
`dg_norms` sums several fields in one walk, each as in a walk of its own.

A closed-form field (`ClosedFormField`) is continuous with its x-derivative, so it
never jumps.  `dg_norm` and `dg_norms` trace only a field's other parts, and read
each distinct closed-form part once per walk through its ``value``, on the boundary
only: at t = 0 and t = T on the columns' Gauss nodes, and, chunk by chunk, at x_lo
and x_hi at the slabs' Gauss times.  Those values are added, with their signs, to the
initial, final and Dirichlet rows.  `dg_plus_norm` needs the whole field's interior
values, so it traces closed-form parts like any other part.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import Mesh
from .poly import ScaledPolynomial, dense_terms, mi, scaled_monomials
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
    """A globally defined field; element ids are ignored.  Its functions are called with
    the points as given, unbroadcast, and their results broadcast to the points' shape."""

    def __init__(self, value_fn, dx_fn):
        self._value = value_fn
        self._dx = dx_fn

    def value(self, eid, xs, ts):
        xs, ts = np.atleast_1d(xs), np.atleast_1d(ts)
        return np.broadcast_to(np.asarray(self._value(xs, ts), complex), np.broadcast(xs, ts).shape)

    def dx(self, eid, xs, ts):
        xs, ts = np.atleast_1d(xs), np.atleast_1d(ts)
        return np.broadcast_to(np.asarray(self._dx(xs, ts), complex), np.broadcast(xs, ts).shape)


def exact_field(sol) -> ClosedFormField:
    """Field view of a solution object with value/dx methods."""
    return ClosedFormField(sol.value, sol.dx)


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


def _terms(field, sign: float = 1.0) -> list:
    """(sign, part) for each part of ``field``: a difference's parts, b's negated."""
    if isinstance(field, DifferenceField):
        return _terms(field.a, sign) + _terms(field.b, -sign)
    return [(sign, field)]


def _wsums(w2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_q w[q] |z[f, ..., q]|^2 for each row f of ``z``, (F,), in one pass over the
    real view of z, whose last axis must be contiguous; ``w2`` is w repeated twice (a
    weight per real and imaginary part)."""
    r, axes = z.view(np.float64), "abcde"[:z.ndim - 2]  # summed: every axis but f and k
    return np.vecdot(np.einsum(f"f{axes}k,f{axes}k->fk", r, r), w2)


class _Chunk:
    """The places of a chunk of consecutive slabs: its elements' tops and bottoms, left and
    right sides.  ``nodes`` and ``times`` are the Gauss nodes of every column, (nx, n),
    and the Gauss times of every slab, (nt, n)."""

    def __init__(self, mesh: Mesh, n: int, slabs: range, nodes: np.ndarray, times: np.ndarray):
        self.mesh, self.n, self.slabs, self._nodes = mesh, n, slabs, nodes
        self.times = times[slabs.start:slabs.stop]

    def traces(self, traced, place: str, buffer: np.ndarray, dx: bool = False) -> np.ndarray:
        """Each field's traced parts on ``place``, summed with their signs into its row of
        ``buffer``, an (F, slabs, nx, n) array with room for the chunk's slabs; ``traced``
        holds a list of (sign, part) per field, the first sign +1.  Returns the rows in
        use, (F, len(slabs), nx, n)."""
        out = buffer[:, :len(self.slabs)]
        for terms, row in zip(traced, out):
            if terms:
                self.trace(terms[0][1], place, dx, row)
            else:
                row.fill(0.0)
        _accumulate(out, [terms[1:] for terms in traced], lambda part: self.trace(part, place, dx))
        return out

    def trace(self, field, place: str, dx: bool = False, out: np.ndarray | None = None
              ) -> np.ndarray:
        """``field``'s value (or dx) at the n-point rule on ``place`` of the chunk's elements,
        (slabs, nx, n), written into ``out`` if one is given.  A closed-form field is read
        at the grid's points unbroadcast, any other at a row of points per element."""
        slabs, mesh, n = self.slabs, self.mesh, self.n
        if hasattr(field, "traces"):
            return field.traces(slabs, n, place, dx, out=out)
        if place in ("top", "bottom"):
            points = self._nodes, mesh.ts[np.array(slabs) + (place == "top"), None, None]
        else:
            x = mesh.xs[1:] if place == "right" else mesh.xs[:-1]
            points = x[:, None], self.times[:, None]
        ids = None
        if not isinstance(field, ClosedFormField):
            ids = np.arange(slabs.start * mesh.nx, slabs.stop * mesh.nx)
            points = [p.reshape(-1, n) for p in np.broadcast_arrays(*points)]
        values = (field.dx if dx else field.value)(ids, *points).reshape(len(slabs), mesh.nx, n)
        if out is None:
            return values
        np.copyto(out, values)
        return out


def _accumulate(rows: np.ndarray, terms_of_rows: list, value) -> None:
    """rows[f] += sign * value(part) for each (sign, part) of terms_of_rows[f], in place."""
    for row, terms in zip(rows, terms_of_rows):
        for sign, part in terms:
            (np.add if sign > 0 else np.subtract)(row, value(part), out=row)


_CHUNK_POINTS = 1 << 14  # a chunk's largest array: the points of one place


def _norm_terms(fields, mesh: Mesh, n: int, with_plus: bool) -> np.ndarray:
    """The sums of squares of the DG norm's terms and of the plus norm's extra terms,
    (2, F), one column per field, in one walk over chunks of slabs: traces written into
    buffers allocated once per walk, jumps and sums taken in place across every field at
    once.  A chunk owns the t-lines at its slabs' bottoms and hands the next one only the
    top trace of its last slab, as row 0 of the top buffer.  Without the plus terms a
    field's closed-form parts are read on the boundary only."""
    nx, nt, F = mesh.nx, mesh.nt, len(fields)
    nodes = mapped_intervals(mesh.xs[:-1], mesh.xs[1:], n)[0]
    times = mapped_intervals(mesh.ts[:-1], mesh.ts[1:], n)[0]
    traced, closed = [], []  # per field: its row holds sign times its traced parts
    for field in fields:
        terms = _terms(field)  # below, ends[i]: part i is read at the boundary only
        ends = [not with_plus and isinstance(part, ClosedFormField) for _, part in terms]
        sign = next((s for (s, _), end in zip(terms, ends) if not end), 1.0)
        traced.append([(s * sign, part) for (s, part), end in zip(terms, ends) if not end])
        closed.append([(s * sign, part) for (s, part), end in zip(terms, ends) if end])
    # each closed-form part at t = 0 and t = T, (2, nx, n)
    parts = dict.fromkeys(part for terms in closed for _, part in terms)
    t_ends = {part: part.value(None, nodes, mesh.ts[[0, -1], None, None]) for part in parts}
    step = max(1, _CHUNK_POINTS // (n * (nx + 1)))
    sums = np.zeros((2, F))
    rows = min(step, nt)  # the most slabs of a chunk: no buffer grows with the slabs
    Wt, Wx = (np.repeat(mesh.rule(n, place)[2], 2) for place in ("top", "left"))
    alpha, beta = 1.0 / mesh.h[0], mesh.h[0]
    # the trace buffers: top, with the carried row first, and bottom, which the sides'
    # values reuse once the t-lines are done; the sides' dx; the plus norm's averages
    tops = np.empty((F, rows + 1, nx, n), dtype=complex)
    bottoms, *sides = np.empty((4, F, rows, nx, n), dtype=complex)
    for slabs in (range(s, min(s + step, nt)) for s in range(0, nt, step)):
        at, m = _Chunk(mesh, n, slabs, nodes, times), len(slabs)
        top = at.traces(traced, "top", tops[:, 1:])  # row j: the chunk's slab j - 1
        bottom = at.traces(traced, "bottom", bottoms)
        first = int(slabs.start == 0)  # slab 0's bottom is the initial line, not a jump
        if first:
            _accumulate(bottom[:, 0], closed, lambda part: t_ends[part][0])
            sums[0] += _wsums(Wt, bottom[:, 0])
        below = tops[:, first:m]  # under the t-lines at the bottoms of slabs[first:]
        if with_plus:
            sums[1] += _wsums(Wt, below)
        sums[0] += _wsums(Wt, np.subtract(below, bottom[:, first:], out=below))
        if slabs.stop == nt:
            _accumulate(top[:, -1], closed, lambda part: t_ends[part][1])
            sums[0] += _wsums(Wt, top[:, -1])
        tops[:, 0] = top[:, -1]  # the carry: the top of the chunk's last slab
        right = at.traces(traced, "right", tops[:, 1:])  # the carried row kept
        left = at.traces(traced, "left", bottoms)
        if nx > 1 or with_plus:
            right_dx = at.traces(traced, "right", sides[0], dx=True)
            left_dx = at.traces(traced, "left", sides[1], dx=True)
        if nx > 1:  # x-line ix + 1: column ix's right side, column ix + 1's left side
            v1, v2 = right[:, :, :-1], left[:, :, 1:]
            g1, g2 = right_dx[:, :, :-1], left_dx[:, :, 1:]
            if with_plus:  # the averages, before the jumps overwrite v1 and g1
                mean = sides[2][:, :m, 1:]
                sums[1] += 0.25 * (_wsums(Wx, np.add(g1, g2, out=mean)) / alpha
                                   + _wsums(Wx, np.add(v1, v2, out=mean)) / beta)
            sums[0] += (alpha * _wsums(Wx, np.subtract(v1, v2, out=v1))
                        + beta * _wsums(Wx, np.subtract(g1, g2, out=g1)))
        # each closed-form part at x_lo and x_hi at the chunk's Gauss times, (2, slabs, n)
        x_ends = {part: part.value(None, mesh.xs[[0, -1], None, None], at.times) for part in parts}
        _accumulate(left[:, :, 0], closed, lambda part: x_ends[part][0])
        _accumulate(right[:, :, -1], closed, lambda part: x_ends[part][1])
        sums[0] += alpha * (_wsums(Wx, left[:, :, 0]) + _wsums(Wx, right[:, :, -1]))
        if with_plus:
            sums[1] += (_wsums(Wx, left_dx[:, :, 0]) + _wsums(Wx, right_dx[:, :, -1])) / alpha
    return sums


def dg_norms(fields, mesh: Mesh, n: int = 20) -> list[float]:
    """`dg_norm` of each field, in one walk; each value equals that field's `dg_norm`
    to the bit."""
    return [math.sqrt(0.5 * s_dg) for s_dg in _norm_terms(fields, mesh, n, with_plus=False)[0]]


def dg_norm(field, mesh: Mesh, n: int = 20) -> float:
    return dg_norms([field], mesh, n)[0]


def dg_plus_norm(field, mesh: Mesh, n: int = 20) -> float:
    (s_dg,), (s_plus,) = _norm_terms([field], mesh, n, with_plus=True).tolist()
    return math.sqrt(0.5 * (s_dg + s_plus))


def l2_slice_error(field, t: float, mesh: Mesh, n: int = 20) -> float:
    """Elementwise L2(Omega) norm of the field at fixed time.

    At slab interfaces the one-sided trace from the earlier slab is used.
    """
    if not 0.0 <= t <= mesh.domain.t_final:
        raise ValueError("t outside the time interval")
    elems = np.asarray(mesh.slab_elements[int(np.searchsorted(mesh.ts[1:], t))], dtype=np.intp)
    X, W = mapped_intervals(mesh.xs[:-1], mesh.xs[1:], n)
    z = field.value(elems, X, t)
    return math.sqrt(float(np.sum(W * (z.real * z.real + z.imag * z.imag))))
