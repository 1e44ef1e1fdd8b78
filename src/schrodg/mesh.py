"""Tensor-product space-time meshes of (a, b) x (0, T), stored as arrays.

Elements are axis-aligned rectangles K = K_x x K_t grouped into time slabs;
element s * nx + ix is column ix of slab s.  `ElementArrays` holds their
geometry, one row per element id.  The facets are stored per kind and slab
as `FacetArrays`, one entry per facet.  Every facet is either horizontal
(space-like: constant t) or vertical (time-like: constant x) and carries the
stabilization weights

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

from .quadrature import mapped_intervals


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

    @property
    def area(self) -> float:
        return self.width * self.t_final


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

    center: np.ndarray   # (n, 2): x_K, t_K
    h: np.ndarray        # (n, 2): h_x, h_t
    x_range: np.ndarray  # (n, 2)
    t_range: np.ndarray  # (n, 2)


@dataclass(frozen=True)
class FacetArrays:
    """The facets of one kind in one slab, as parallel arrays (one entry per facet).

    ``lo``, ``hi`` bound the varying coordinate (x on horizontal facets, t on
    vertical ones) and ``fixed`` is the constant one.  Neighbor ids are -1
    where a facet has no such neighbor.  ``owner`` is the first neighbor
    (below, left, or the only one), and a facet belongs to its owner's slab:
    a space-like interior facet to the slab below it.  ``normal_sign`` is the
    x-component of the unit normal seen from the left element (+1) on
    interior vertical facets, and the owner's outward normal sign on
    Dirichlet facets.
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
        if self.kind.is_horizontal:
            return pts, fixed, wts
        return fixed, pts, wts


@dataclass(frozen=True, eq=False)
class Mesh:
    """An nx-by-nt mesh: element geometry plus the facets of every (kind, slab)."""

    domain: SpaceTimeDomain
    nx: int
    nt: int
    element_arrays: ElementArrays
    facet_groups: Mapping[tuple[FacetKind, int], FacetArrays]

    @property
    def n_slabs(self) -> int:
        return self.nt

    @property
    def n_elements(self) -> int:
        return self.nx * self.nt

    @cached_property
    def slab_elements(self) -> tuple[tuple[int, ...], ...]:
        """The element ids of every slab, in x order."""
        return tuple(tuple(range(s * self.nx, (s + 1) * self.nx)) for s in range(self.nt))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """Every element as a record, built from `element_arrays` on first use."""
        a = self.element_arrays
        rows = zip(a.center.tolist(), a.h.tolist(), a.x_range.tolist(), a.t_range.tolist())
        return tuple(Element(id=e, ix=e % self.nx, slab=e // self.nx, x_range=tuple(xr),
                             t_range=tuple(tr), h_x=h[0], h_t=h[1], center=tuple(c))
                     for e, (c, h, xr, tr) in enumerate(rows))

    @cached_property
    def is_uniform(self) -> bool:
        """Whether every element has the same size (h_x, h_t)."""
        return len(np.unique(self.element_arrays.h, axis=0)) <= 1

    def facet_arrays(self, kind: FacetKind, slab: int) -> FacetArrays | None:
        """The facets of ``kind`` in ``slab`` (see FacetArrays), or None if there are none."""
        return self.facet_groups.get((kind, slab))


def build_cartesian_mesh(domain: SpaceTimeDomain, nx: int, nt: int) -> Mesh:
    """Uniform nx-by-nt tensor mesh with complete facet taxonomy.

    Every element stores the exact sizes h_x = width / nx and
    h_t = t_final / nt, not differences of the grid points, so all elements
    share one size, and h_Fx = h_x on every time-like facet.  Within a slab
    the facets of a kind are ordered by x.
    """
    if nx < 1 or nt < 1:
        raise ValueError("nx and nt must be >= 1")
    xs = np.linspace(domain.x_lo, domain.x_hi, nx + 1)
    ts = np.linspace(0.0, domain.t_final, nt + 1)
    h_x = domain.width / nx
    h_t = domain.t_final / nt

    x_range = np.column_stack((np.tile(xs[:-1], nt), np.tile(xs[1:], nt)))
    t_range = np.column_stack((np.repeat(ts[:-1], nx), np.repeat(ts[1:], nx)))
    elements = ElementArrays(
        center=0.5 * np.column_stack((x_range[:, 0] + x_range[:, 1],
                                      t_range[:, 0] + t_range[:, 1])),
        h=np.full((nx * nt, 2), (h_x, h_t)), x_range=x_range, t_range=t_range)
    return Mesh(domain=domain, nx=nx, nt=nt, element_arrays=elements,
                facet_groups=MappingProxyType(_build_facets(xs, ts, h_x)))


_IDS = ("owner", "below", "above", "left", "right")


def _table(shape, **fields) -> dict[str, np.ndarray]:
    """Every field broadcast to ``shape``: ids as intp, the rest as float."""
    return {name: np.broadcast_to(np.asarray(v, dtype=np.intp if name in _IDS else float),
                                  shape) for name, v in fields.items()}


def _build_facets(xs: np.ndarray, ts: np.ndarray, h_x: float
                  ) -> dict[tuple[FacetKind, int], FacetArrays]:
    """The FacetArrays of every (kind, slab) of the tensor grid xs x ts."""
    nx, nt = len(xs) - 1, len(ts) - 1
    # horizontal facets: row l lies on the line t = ts[l], column ix over (xs[ix], xs[ix + 1])
    line, ix = np.ogrid[:nt + 1, :nx]
    below = np.where(line > 0, (line - 1) * nx + ix, -1)
    above = np.where(line < nt, line * nx + ix, -1)
    horizontal = _table((nt + 1, nx), owner=np.where(line > 0, below, above), below=below,
                        above=above, left=-1, right=-1, lo=xs[:-1], hi=xs[1:],
                        fixed=ts[:, None], normal_sign=0.0, alpha=0.0, beta=0.0)
    # vertical facets: row s lies in slab s, column k on the line x = xs[k]
    slab, k = np.ogrid[:nt, :nx + 1]
    left = np.where(k > 0, slab * nx + k - 1, -1)
    right = np.where(k < nx, slab * nx + k, -1)
    vertical = _table((nt, nx + 1), owner=np.where(k > 0, left, right), below=-1, above=-1,
                      left=left, right=right, lo=ts[:-1, None], hi=ts[1:, None], fixed=xs,
                      normal_sign=np.where(k > 0, 1.0, -1.0), alpha=1.0 / h_x,
                      beta=np.where((k > 0) & (k < nx), h_x, 0.0))

    groups = {}
    for kind, table, rows, slabs in (
            (FacetKind.INITIAL, horizontal, np.s_[:1], [0]),
            (FacetKind.SPACE_INTERIOR, horizontal, np.s_[1:nt], range(nt - 1)),
            (FacetKind.FINAL, horizontal, np.s_[nt:], [nt - 1]),
            (FacetKind.TIME_INTERIOR, vertical, np.s_[:, 1:nx], range(nt)),
            (FacetKind.DIRICHLET, vertical, np.s_[:, [0, nx]], range(nt))):
        part = {name: a[rows] for name, a in table.items()}
        for r, s in enumerate(slabs):
            if part["owner"].shape[1]:
                groups[(kind, s)] = FacetArrays(kind, **{name: a[r] for name, a in part.items()})
    return groups
