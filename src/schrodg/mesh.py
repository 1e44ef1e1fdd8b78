"""Tensor-product space-time meshes of (a, b) x (0, T), held as their grid lines.

A mesh is the grid xs x ts: elements are the axis-aligned rectangles
K = (xs[ix], xs[ix + 1]) x (ts[s], ts[s + 1]), grouped into time slabs, and
element s * nx + ix is column ix of slab s.  The grid is uniform, so every
element has the one size `Mesh.h` = (width / nx, t_final / nt), the scales of
its local basis, and `Mesh.centers` holds the element centres.  Every facet lies
on a grid line: horizontal (space-like: constant t) on a t-line, or vertical
(time-like: constant x) on an x-line, and `Mesh.lines` names the lines of
each kind.  `Mesh.facet_arrays` builds the facets of one kind over a slab,
or a range of slabs, as `FacetArrays` from the grid by index.  A facet lies on
a named place of each neighbour, `PLACE` of its slot (the top side of the
element below it, ...), and `Mesh.rule(n, place)` is the Gauss rule there, or
over the volume, as offsets from the element centre that every element
shares.  Each facet carries the stabilization weights

    alpha = 1 / h_Fx   on time-like interior and Dirichlet facets,
    beta  = h_Fx       on time-like interior facets,

where h_Fx is the facet spatial length scale.  A mesh is immutable after
construction and safe for concurrent read access.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .quadrature import gauss_legendre, mapped_intervals

# where a facet lies on each of its neighbours, by neighbour slot: the element below
# it has it on its top side, ...; a boundary facet's owner is its one neighbour
PLACE = {"below": "top", "above": "bottom", "left": "right", "right": "left"}


class FacetKind(Enum):
    SPACE_INTERIOR = "space_interior"
    FINAL = "final"
    INITIAL = "initial"
    TIME_INTERIOR = "time_interior"
    DIRICHLET = "dirichlet"

    @property
    def is_horizontal(self) -> bool:
        return self in (FacetKind.SPACE_INTERIOR, FacetKind.FINAL, FacetKind.INITIAL)


@dataclass(frozen=True)
class SpaceTimeDomain:
    x_lo: float
    x_hi: float
    t_final: float

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError("domain requires x_lo < x_hi")
        if not self.t_final > 0:
            raise ValueError("domain requires t_final > 0")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo


@dataclass(frozen=True)
class Element:
    """One element, read from a mesh's grid (see `Mesh.elements`)."""

    id: int
    ix: int
    slab: int
    x_range: tuple[float, float]
    t_range: tuple[float, float]
    h_x: float
    h_t: float
    center: tuple[float, float]


@dataclass(frozen=True)
class FacetArrays:
    """The facets of one kind over one or more slabs, as parallel arrays (one entry per facet).

    ``lo``, ``hi`` bound the varying coordinate (x on horizontal facets, t on
    vertical ones) and ``fixed`` is the constant one.  Neighbor ids are -1
    where a facet has no such neighbor.  ``owner`` is the first neighbor
    (below, left, or the only one), and a facet belongs to its owner's slab:
    a space-like interior facet to the slab below it.  ``normal_sign`` is the
    x-component of the unit normal seen from the left element (+1) on
    interior vertical facets, and the owner's outward normal sign on
    Dirichlet facets.  On each neighbour a facet is that neighbour's side
    ``PLACE[slot]``, whose rule is `Mesh.rule`.
    """

    kind: FacetKind
    owner: np.ndarray
    below: np.ndarray
    above: np.ndarray
    left: np.ndarray
    right: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    fixed: np.ndarray
    normal_sign: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Points X, T and weights W, each (n_facets, n): the n-point Gauss rule on every facet."""
        pts, wts = mapped_intervals(self.lo, self.hi, n)
        fixed = np.broadcast_to(self.fixed[:, None], pts.shape)
        return (pts, fixed, wts) if self.kind.is_horizontal else (fixed, pts, wts)


@dataclass(frozen=True, eq=False)
class Mesh:
    """The mesh of the grid xs x ts, with elements and facets derived from the grid.

    The grid lines must be, to the bit, np.linspace(x_lo, x_hi, nx + 1) and
    np.linspace(0, t_final, nt + 1) with nx, nt >= 1 (as `build_cartesian_mesh` makes
    them): every size, weight and rule is read off `h`, so other lines raise.
    """

    domain: SpaceTimeDomain
    xs: np.ndarray  # (nx + 1,): the x-lines
    ts: np.ndarray  # (nt + 1,): the t-lines

    def __post_init__(self):
        d = self.domain
        if not (_is_linspace(self.xs, d.x_lo, d.x_hi) and _is_linspace(self.ts, 0.0, d.t_final)):
            raise ValueError("the grid lines must be np.linspace(x_lo, x_hi, nx + 1) and "
                             "np.linspace(0, t_final, nt + 1), with nx, nt >= 1")

    @property
    def nx(self) -> int:
        return len(self.xs) - 1

    @property
    def nt(self) -> int:
        return len(self.ts) - 1

    @property
    def n_slabs(self) -> int:
        return self.nt

    @property
    def n_elements(self) -> int:
        return self.nx * self.nt

    @property
    def h(self) -> tuple[float, float]:
        """The one element size (h_x, h_t) = (width / nx, t_final / nt)."""
        return self.domain.width / self.nx, self.domain.t_final / self.nt

    @cached_property
    def centers(self) -> np.ndarray:
        """Every element's centre (x_K, t_K), (n_elements, 2), read-only."""
        xs, ts = self.xs, self.ts
        centers = 0.5 * np.column_stack((np.tile(xs[:-1] + xs[1:], self.nt),
                                         np.repeat(ts[:-1] + ts[1:], self.nx)))
        centers.flags.writeable = False
        return centers

    @cached_property
    def slab_elements(self) -> tuple[range, ...]:
        """The element ids of every slab, in x order."""
        return tuple(range(s * self.nx, (s + 1) * self.nx) for s in range(self.nt))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """Every element as a record, built from the grid on first use."""
        nx, xs, ts, (h_x, h_t) = self.nx, self.xs.tolist(), self.ts.tolist(), self.h
        return tuple(Element(id=e, ix=e % nx, slab=e // nx, x_range=(xs[e % nx], xs[e % nx + 1]),
                             t_range=(ts[e // nx], ts[e // nx + 1]), h_x=h_x, h_t=h_t,
                             center=tuple(c))
                     for e, c in enumerate(self.centers.tolist()))

    def rule(self, n: int, place: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The n-point Gauss rule on an element's ``place``: its "top", "bottom", "left" or
        "right" side, or its "volume" (the tensor rule, x-major), as offsets x, t from the
        element's centre and weights w.  Each is one row that every element shares: (1, n),
        or (1, n * n) over the volume."""
        rule, (hx, ht) = gauss_legendre(n), np.divide(self.h, 2)
        x, t, wx, wt = hx * rule.nodes, ht * rule.nodes, hx * rule.weights, ht * rule.weights
        if place == "volume":
            x, t, w = np.repeat(x, n), np.tile(t, n), np.outer(wx, wt).reshape(-1)
        elif place in ("top", "bottom"):
            t, w = np.full(n, ht if place == "top" else -ht), wx
        elif place in ("left", "right"):
            x, w = np.full(n, hx if place == "right" else -hx), wt
        else:
            raise ValueError(f"unknown place {place!r}")
        return x[None], t[None], w[None]

    def lines(self, kind: FacetKind) -> range:
        """The grid lines that the facets of ``kind`` lie on: indices into ``ts`` for a
        space-like kind, into ``xs`` for a time-like one."""
        nx, nt = self.nx, self.nt
        return {FacetKind.INITIAL: range(0, 1), FacetKind.SPACE_INTERIOR: range(1, nt),
                FacetKind.FINAL: range(nt, nt + 1), FacetKind.TIME_INTERIOR: range(1, nx),
                FacetKind.DIRICHLET: range(0, nx + 1, nx)}[kind]

    def facet_arrays(self, kind: FacetKind, slabs: int | range) -> FacetArrays | None:
        """The facets of ``kind`` in a slab, or a range of consecutive slabs (None if none).

        A facet belongs to its owner's slab: a slab owns the t-line at its top, and slab 0
        the one at its bottom too.  The facets come slab by slab, and by x within a slab.
        Every element has the size `h`, so h_Fx = h_x on every time-like facet.
        """
        slabs = slabs if isinstance(slabs, range) else range(slabs, slabs + 1)
        nx, nt, xs, ts, lines = self.nx, self.nt, self.xs, self.ts, self.lines(kind)
        h_x = self.h[0]
        if kind.is_horizontal:  # the kind's t-lines that the slabs own
            lines = range(max(lines.start, slabs.start + (slabs.start > 0)),
                          min(lines.stop, slabs.stop + 1))
        if not (len(lines) and len(slabs)):
            return None
        if kind.is_horizontal:  # row r on the line t = ts[lines[r]], column ix over xs[ix:ix + 2]
            line, ix = np.array(lines)[:, None], np.arange(nx)
            first = np.where(line > 0, (line - 1) * nx + ix, -1)
            second = np.where(line < nt, line * nx + ix, -1)
            table = _table(first.shape, below=first, above=second, left=-1, right=-1,
                           lo=xs[:-1], hi=xs[1:], fixed=ts[line], alpha=0.0,
                           normal_sign=0.0, beta=0.0)
        else:  # row s in slab s, column c on the line x = xs[lines[c]]
            slab, k = np.array(slabs)[:, None], np.array(lines)
            first = np.where(k > 0, slab * nx + k - 1, -1)
            second = np.where(k < nx, slab * nx + k, -1)
            dirichlet = kind is FacetKind.DIRICHLET
            table = _table(first.shape, below=-1, above=-1, left=first, right=second,
                           lo=ts[slab], hi=ts[slab + 1], fixed=xs[k], alpha=1.0 / h_x,
                           normal_sign=[-1.0, 1.0] if dirichlet else 1.0,
                           beta=0.0 if dirichlet else h_x)
        # the owner: the first neighbour where there is one
        return FacetArrays(kind, **table, **_table(first.shape,
                                                   owner=np.where(first >= 0, first, second)))


def build_cartesian_mesh(domain: SpaceTimeDomain, nx: int, nt: int) -> Mesh:
    """Uniform nx-by-nt tensor mesh, of elements of the size h = (width / nx, t_final / nt)."""
    return Mesh(domain, np.linspace(domain.x_lo, domain.x_hi, nx + 1),
                np.linspace(0.0, domain.t_final, nt + 1))


def _is_linspace(lines, lo: float, hi: float) -> bool:
    """Whether ``lines`` is, to the bit, np.linspace(lo, hi, n) for some n >= 2."""
    ref = np.linspace(lo, hi, max(len(lines), 2))
    return isinstance(lines, np.ndarray) and lines.dtype == ref.dtype and np.array_equal(lines, ref)


_IDS = ("owner", "below", "above", "left", "right")


def _table(shape, **fields) -> dict[str, np.ndarray]:
    """Every field broadcast to ``shape`` and flattened: ids as intp, the rest as float."""
    table = {}
    for name, v in fields.items():
        a = np.empty(shape, dtype=np.intp if name in _IDS else float)
        a[...] = v
        table[name] = a.reshape(-1)
    return table
