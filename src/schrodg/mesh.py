"""Tensor-product space-time meshes of (a, b) x (0, T) with facet taxonomy.

Elements are axis-aligned rectangles K = K_x x K_t grouped into time slabs.
Every facet is either horizontal (space-like: constant t) or vertical
(time-like: constant x) and carries the stabilization weights

    alpha = 1 / h_Fx   on time-like interior and Dirichlet facets,
    beta  = h_Fx       on time-like interior facets,

where h_Fx is the facet spatial length scale.  A mesh is immutable after
construction and safe for concurrent read access.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

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


class FacetRole(Enum):
    """An element's position relative to one of its facets."""

    BELOW = "below"   # element is below a horizontal facet (facet is its top)
    ABOVE = "above"   # element is above a horizontal facet (facet is its bottom)
    LEFT = "left"     # element is left of a vertical facet
    RIGHT = "right"   # element is right of a vertical facet
    OWNER = "owner"   # single element of a boundary facet


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
    id: int
    ix: int
    slab: int
    x_range: tuple[float, float]
    t_range: tuple[float, float]
    h_x: float
    h_t: float
    center: tuple[float, float]

    @property
    def diam(self) -> float:
        return float(np.hypot(self.h_x, self.h_t))


@dataclass(frozen=True)
class Facet:
    """One mesh facet.

    ``span`` is the interval of the varying coordinate (x for horizontal
    facets, t for vertical ones) and ``fixed`` the constant coordinate.
    Horizontal facets name their neighbors below/above, vertical ones
    left/right; boundary facets have a single neighbor.  ``normal_sign``
    is the x-component of the unit normal as seen from the left element
    (+1) on interior vertical facets, and the outward normal sign of the
    owning element on Dirichlet facets.
    """

    kind: FacetKind
    span: tuple[float, float]
    fixed: float
    below: int | None = None
    above: int | None = None
    left: int | None = None
    right: int | None = None
    normal_sign: int = 0
    h_F_x: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0

    @property
    def length(self) -> float:
        return self.span[1] - self.span[0]

    @property
    def owner(self) -> int:
        """The single neighbor of a boundary facet."""
        for eid in (self.below, self.above, self.left, self.right):
            if eid is not None:
                return eid
        raise ValueError("facet has no neighbors")

    @property
    def neighbors(self) -> tuple[int, ...]:
        return tuple(e for e in (self.below, self.above, self.left, self.right)
                     if e is not None)


class ElementArrays(NamedTuple):
    """Element geometry as arrays, one row per element id."""

    center: np.ndarray   # (n, 2): x_K, t_K
    h: np.ndarray        # (n, 2): h_x, h_t
    x_range: np.ndarray  # (n, 2)
    t_range: np.ndarray  # (n, 2)


@dataclass(frozen=True)
class FacetArrays:
    """The facets of one kind in one slab, as parallel arrays (one entry per facet).

    Neighbor ids are -1 where a facet has no such neighbor.  ``owner`` is the
    first neighbor (below, left, or the only one), and a facet belongs to its
    owner's slab: a space-like interior facet to the slab below it.
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


@dataclass(frozen=True)
class Mesh:
    domain: SpaceTimeDomain
    elements: tuple[Element, ...]
    facets: tuple[Facet, ...]
    nx: int
    nt: int
    slab_elements: tuple[tuple[int, ...], ...]
    element_facets: tuple[tuple[tuple[int, FacetRole], ...], ...]

    @property
    def n_slabs(self) -> int:
        return self.nt

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element(self, eid: int) -> Element:
        return self.elements[eid]

    @cached_property
    def element_arrays(self) -> ElementArrays:
        rows = np.array([(*el.center, el.h_x, el.h_t, *el.x_range, *el.t_range)
                         for el in self.elements], dtype=float).reshape(-1, 8)
        return ElementArrays(rows[:, 0:2], rows[:, 2:4], rows[:, 4:6], rows[:, 6:8])

    @cached_property
    def is_uniform(self) -> bool:
        """Whether every element has the same size (h_x, h_t)."""
        return len(np.unique(self.element_arrays.h, axis=0)) <= 1

    @cached_property
    def _facet_groups(self) -> dict[tuple[FacetKind, int], FacetArrays]:
        groups: dict[tuple[FacetKind, int], list[Facet]] = defaultdict(list)
        for f in self.facets:
            groups[(f.kind, self.elements[f.owner].slab)].append(f)

        def ids(facets, side):
            return np.array([-1 if getattr(f, side) is None else getattr(f, side)
                             for f in facets], dtype=np.intp)

        def values(facets, attr):
            return np.array([getattr(f, attr) for f in facets], dtype=float)

        return {key: FacetArrays(
            kind=key[0], owner=np.array([f.owner for f in fs], dtype=np.intp),
            below=ids(fs, "below"), above=ids(fs, "above"),
            left=ids(fs, "left"), right=ids(fs, "right"),
            lo=np.array([f.span[0] for f in fs]), hi=np.array([f.span[1] for f in fs]),
            fixed=values(fs, "fixed"), normal_sign=values(fs, "normal_sign"),
            alpha=values(fs, "alpha"), beta=values(fs, "beta"),
        ) for key, fs in groups.items()}

    def facet_arrays(self, kind: FacetKind, slab: int) -> FacetArrays | None:
        """The facets of ``kind`` in ``slab`` (see FacetArrays), or None if there are none."""
        return self._facet_groups.get((kind, slab))


def build_cartesian_mesh(domain: SpaceTimeDomain, nx: int, nt: int) -> Mesh:
    """Uniform nx-by-nt tensor mesh with complete facet taxonomy.

    Every element stores the exact sizes h_x = width / nx and
    h_t = t_final / nt, not differences of the grid points, so all elements
    share one size.  The interior time-like length scale h_Fx is the minimum
    of the two neighboring element widths; on Dirichlet facets it is the
    owning element's width.
    """
    if nx < 1 or nt < 1:
        raise ValueError("nx and nt must be >= 1")
    xs = np.linspace(domain.x_lo, domain.x_hi, nx + 1)
    ts = np.linspace(0.0, domain.t_final, nt + 1)
    h_x = domain.width / nx
    h_t = domain.t_final / nt

    elements = []
    for s in range(nt):
        for ix in range(nx):
            x0, x1 = float(xs[ix]), float(xs[ix + 1])
            t0, t1 = float(ts[s]), float(ts[s + 1])
            elements.append(Element(
                id=s * nx + ix, ix=ix, slab=s,
                x_range=(x0, x1), t_range=(t0, t1),
                h_x=h_x, h_t=h_t,
                center=(0.5 * (x0 + x1), 0.5 * (t0 + t1)),
            ))

    facets: list[Facet] = []
    adjacency: list[list[tuple[int, FacetRole]]] = [[] for _ in elements]

    def add(facet: Facet, *incidences: tuple[int, FacetRole]) -> None:
        fid = len(facets)
        facets.append(facet)
        for eid, role in incidences:
            adjacency[eid].append((fid, role))

    for ix in range(nx):
        e = ix
        span = (float(xs[ix]), float(xs[ix + 1]))
        add(Facet(FacetKind.INITIAL, span=span, fixed=0.0, above=e,
                  h_F_x=span[1] - span[0]),
            (e, FacetRole.ABOVE))

    for s in range(1, nt):
        for ix in range(nx):
            below, above = (s - 1) * nx + ix, s * nx + ix
            span = (float(xs[ix]), float(xs[ix + 1]))
            add(Facet(FacetKind.SPACE_INTERIOR, span=span, fixed=float(ts[s]),
                      below=below, above=above, h_F_x=span[1] - span[0]),
                (below, FacetRole.BELOW), (above, FacetRole.ABOVE))

    for ix in range(nx):
        e = (nt - 1) * nx + ix
        span = (float(xs[ix]), float(xs[ix + 1]))
        add(Facet(FacetKind.FINAL, span=span, fixed=float(ts[-1]), below=e,
                  h_F_x=span[1] - span[0]),
            (e, FacetRole.BELOW))

    for s in range(nt):
        tspan = (float(ts[s]), float(ts[s + 1]))
        for k in range(1, nx):
            lft, rgt = s * nx + (k - 1), s * nx + k
            h_fx = min(elements[lft].h_x, elements[rgt].h_x)
            add(Facet(FacetKind.TIME_INTERIOR, span=tspan, fixed=float(xs[k]),
                      left=lft, right=rgt, normal_sign=+1,
                      h_F_x=h_fx, alpha=1.0 / h_fx, beta=h_fx),
                (lft, FacetRole.LEFT), (rgt, FacetRole.RIGHT))

    for s in range(nt):
        tspan = (float(ts[s]), float(ts[s + 1]))
        e = s * nx
        add(Facet(FacetKind.DIRICHLET, span=tspan, fixed=float(xs[0]),
                  right=e, normal_sign=-1,
                  h_F_x=elements[e].h_x, alpha=1.0 / elements[e].h_x),
            (e, FacetRole.OWNER))
        e = s * nx + nx - 1
        add(Facet(FacetKind.DIRICHLET, span=tspan, fixed=float(xs[-1]),
                  left=e, normal_sign=+1,
                  h_F_x=elements[e].h_x, alpha=1.0 / elements[e].h_x),
            (e, FacetRole.OWNER))

    return Mesh(
        domain=domain,
        elements=tuple(elements),
        facets=tuple(facets),
        nx=nx, nt=nt,
        slab_elements=tuple(tuple(range(s * nx, (s + 1) * nx)) for s in range(nt)),
        element_facets=tuple(tuple(a) for a in adjacency),
    )


def facets_of(mesh: Mesh, element_id: int) -> list[tuple[Facet, FacetRole]]:
    """All facets on the boundary of an element, with the element's role."""
    if not 0 <= element_id < mesh.n_elements:
        raise ValueError(f"invalid element id {element_id}")
    return [(mesh.facets[fid], role) for fid, role in mesh.element_facets[element_id]]


def local_quasi_uniformity(mesh: Mesh) -> float:
    """Largest ratio of spatial widths between facet-sharing elements."""
    lqu = 1.0
    for f in mesh.facets:
        nb = f.neighbors
        if len(nb) == 2:
            h1 = mesh.elements[nb[0]].h_x
            h2 = mesh.elements[nb[1]].h_x
            lqu = max(lqu, h1 / h2, h2 / h1)
    return lqu


def mesh_summary(mesh: Mesh) -> dict:
    """JSON-ready summary: sizes, facet counts by kind, h, lqu."""
    counts = Counter(f.kind.value for f in mesh.facets)
    return {
        "domain": {"x_lo": mesh.domain.x_lo, "x_hi": mesh.domain.x_hi,
                   "t_final": mesh.domain.t_final},
        "n_elements": mesh.n_elements,
        "n_slabs": mesh.n_slabs,
        "facet_counts": {kind.value: counts.get(kind.value, 0) for kind in FacetKind},
        "h_x": mesh.domain.width / mesh.nx,
        "h_t": mesh.domain.t_final / mesh.nt,
        "lqu": local_quasi_uniformity(mesh),
    }


def mesh_summary_json(mesh: Mesh) -> str:
    return json.dumps(mesh_summary(mesh), indent=2, sort_keys=True)
