"""Tensor-product space-time meshes of (a, b) x (0, T), held as their grid lines.

A mesh is the grid xs x ts: elements are the axis-aligned rectangles
K = (xs[ix], xs[ix + 1]) x (ts[s], ts[s + 1]), grouped into time slabs, and
element s * nx + ix is column ix of slab s.  `ElementArrays` holds each
element's centre and size, the scales of its local basis.  Every facet lies
on a grid line: horizontal (space-like: constant t) on a t-line, or vertical
(time-like: constant x) on an x-line, and `Mesh.lines` names the lines of
each kind.  `Mesh.facet_arrays` builds the facets of one kind over a slab,
or a range of slabs, as `FacetArrays` from the grid by index.  Each facet
carries the stabilization weights

    alpha = 1 / h_Fx   on time-like interior and Dirichlet facets,
    beta  = h_Fx       on time-like interior facets,

where h_Fx is the facet spatial length scale.  A mesh is immutable after
construction and safe for concurrent read access.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .quadrature import gauss_legendre, mapped_intervals


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
    """One element, read from a mesh's `ElementArrays` (see `Mesh.elements`)."""

    id: int
    ix: int
    slab: int
    x_range: tuple[float, float]
    t_range: tuple[float, float]
    h_x: float
    h_t: float
    center: tuple[float, float]


class ElementArrays(NamedTuple):
    """Element geometry as arrays, one row per element id."""

    center: np.ndarray  # (n, 2): x_K, t_K
    h: np.ndarray       # (n, 2): h_x, h_t


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
    Dirichlet facets.

    Each facet spans a side of each neighbour: ``half`` is half its length, and
    ``offset[slot]`` the signed distance from that neighbour's centre to its line;
    each is an (n_facets,) array or a (1,) one that the facets share.
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
    half: np.ndarray
    offset: Mapping[str, np.ndarray]

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Points X, T and weights W, each (n_facets, n): the n-point Gauss rule on every facet."""
        pts, wts = mapped_intervals(self.lo, self.hi, n)
        fixed = np.broadcast_to(self.fixed[:, None], pts.shape)
        return (pts, fixed, wts) if self.kind.is_horizontal else (fixed, pts, wts)

    def local_quadrature(self, n: int, side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rule of `quadrature` as offsets x, t from the centre of each facet's ``side``
        neighbour, and weights w, broadcasting to (n_facets, n): (1, n) where shared."""
        rule = gauss_legendre(n)
        along, wts = self.half[:, None] * rule.nodes, self.half[:, None] * rule.weights
        across = self.offset[side][:, None]
        return (along, across, wts) if self.kind.is_horizontal else (across, along, wts)


@dataclass(frozen=True, eq=False)
class Mesh:
    """The mesh of the grid xs x ts: element geometry, with the facets derived from the grid."""

    domain: SpaceTimeDomain
    xs: np.ndarray  # (nx + 1,): the x-lines, increasing
    ts: np.ndarray  # (nt + 1,): the t-lines, increasing from 0
    element_arrays: ElementArrays

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

    @cached_property
    def slab_elements(self) -> tuple[range, ...]:
        """The element ids of every slab, in x order."""
        return tuple(range(s * self.nx, (s + 1) * self.nx) for s in range(self.nt))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """Every element as a record, built from the grid and `element_arrays` on first use."""
        a, nx, xs, ts = self.element_arrays, self.nx, self.xs.tolist(), self.ts.tolist()
        return tuple(Element(id=e, ix=e % nx, slab=e // nx, x_range=(xs[e % nx], xs[e % nx + 1]),
                             t_range=(ts[e // nx], ts[e // nx + 1]), h_x=h[0], h_t=h[1],
                             center=tuple(c))
                     for e, (c, h) in enumerate(zip(a.center.tolist(), a.h.tolist())))

    @cached_property
    def size_groups(self) -> tuple[list[tuple[float, float]], np.ndarray]:
        """The distinct element sizes (h_x, h_t), and each element's index among them."""
        h = self.element_arrays.h
        if np.all(h == h[0]):  # one size, as on every built mesh: no sort
            return [tuple(h[0].tolist())], np.zeros(len(h), dtype=np.intp)
        sizes, group = np.unique(h, axis=0, return_inverse=True)
        return [tuple(h) for h in sizes.tolist()], group.reshape(-1)

    @property
    def is_uniform(self) -> bool:
        """Whether every element has the same size (h_x, h_t)."""
        return len(self.size_groups[0]) <= 1

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
        The elements share one size, h_x = width / nx and h_t = t_final / nt, so h_Fx = h_x
        on every time-like facet.  The Dirichlet owners' offsets are (n_facets,), and every
        other ``offset`` and ``half`` is shared.
        """
        slabs = slabs if isinstance(slabs, range) else range(slabs, slabs + 1)
        nx, nt, xs, ts, lines = self.nx, self.nt, self.xs, self.ts, self.lines(kind)
        h_x, h_t = self.domain.width / nx, self.domain.t_final / nt
        if kind.is_horizontal:  # the kind's t-lines that the slabs own
            lines = range(max(lines.start, slabs.start + (slabs.start > 0)),
                          min(lines.stop, slabs.stop + 1))
        if not (len(lines) and len(slabs)):
            return None
        up, side = {"below": h_t / 2, "above": -h_t / 2}, {"left": h_x / 2, "right": -h_x / 2}
        if kind.is_horizontal:  # row r on the line t = ts[lines[r]], column ix over xs[ix:ix + 2]
            line, ix = np.array(lines)[:, None], np.arange(nx)
            first = np.where(line > 0, (line - 1) * nx + ix, -1)
            second = np.where(line < nt, line * nx + ix, -1)
            table = _table(first.shape, below=first, above=second, left=-1, right=-1,
                           lo=xs[:-1], hi=xs[1:], fixed=ts[line], alpha=0.0,
                           normal_sign=0.0, beta=0.0)
            across, owner = up, up["above" if kind is FacetKind.INITIAL else "below"]
        else:  # row s in slab s, column c on the line x = xs[lines[c]]
            slab, k = np.array(slabs)[:, None], np.array(lines)
            first = np.where(k > 0, slab * nx + k - 1, -1)
            second = np.where(k < nx, slab * nx + k, -1)
            dirichlet = kind is FacetKind.DIRICHLET
            table = _table(first.shape, below=-1, above=-1, left=first, right=second,
                           lo=ts[slab], hi=ts[slab + 1], fixed=xs[k], alpha=1.0 / h_x,
                           normal_sign=[-1.0, 1.0] if dirichlet else 1.0,
                           beta=0.0 if dirichlet else h_x)
            across, owner = side, [side["right"], side["left"]] if dirichlet else side["left"]
        # the owner: the first neighbour where there is one
        table.update(_table(first.shape, owner=np.where(first >= 0, first, second)))
        offset = {name: np.tile(v, len(first)) if np.ndim(v) else np.array([v])
                  for name, v in (*across.items(), ("owner", owner))}
        return FacetArrays(kind, **table,
                           half=np.array([(h_x if kind.is_horizontal else h_t) / 2]),
                           offset=MappingProxyType(offset))


def build_cartesian_mesh(domain: SpaceTimeDomain, nx: int, nt: int) -> Mesh:
    """Uniform nx-by-nt tensor mesh.

    Every element stores the exact sizes h_x = width / nx and
    h_t = t_final / nt, not differences of the grid points, so all elements
    share one size.
    """
    if nx < 1 or nt < 1:
        raise ValueError("nx and nt must be >= 1")
    xs = np.linspace(domain.x_lo, domain.x_hi, nx + 1)
    ts = np.linspace(0.0, domain.t_final, nt + 1)
    elements = ElementArrays(
        center=0.5 * np.column_stack((np.tile(xs[:-1] + xs[1:], nt),
                                      np.repeat(ts[:-1] + ts[1:], nx))),
        h=np.full((nx * nt, 2), (domain.width / nx, domain.t_final / nt)))
    return Mesh(domain=domain, xs=xs, ts=ts, element_arrays=elements)


_IDS = ("owner", "below", "above", "left", "right")


def _table(shape, **fields) -> dict[str, np.ndarray]:
    """Every field broadcast to ``shape`` and flattened: ids as intp, the rest as float."""
    table = {}
    for name, v in fields.items():
        a = np.empty(shape, dtype=np.intp if name in _IDS else float)
        a[...] = v
        table[name] = a.reshape(-1)
    return table
