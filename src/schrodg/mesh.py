"""Tensor-product space-time meshes of (a, b) x (0, T), stored as arrays.

Elements are axis-aligned rectangles K = K_x x K_t grouped into time slabs;
element s * nx + ix is column ix of slab s.  `ElementArrays` holds their
geometry, one row per element id.  The facets are stored once per kind as
`FacetArrays`, one entry per facet, slab by slab; the facets of one slab, or
of a range of consecutive slabs, are views of them.  Every facet is either
horizontal (space-like: constant t) or vertical (time-like: constant x) and
carries the stabilization weights

    alpha = 1 / h_Fx   on time-like interior and Dirichlet facets,
    beta  = h_Fx       on time-like interior facets,

where h_Fx is the facet spatial length scale.  A mesh is immutable after
construction and safe for concurrent read access.
"""

from __future__ import annotations

import dataclasses
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

    center: np.ndarray   # (n, 2): x_K, t_K
    h: np.ndarray        # (n, 2): h_x, h_t
    x_range: np.ndarray  # (n, 2)
    t_range: np.ndarray  # (n, 2)


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
    """An nx-by-nt mesh: element geometry plus the facets of each kind, in owner order."""

    domain: SpaceTimeDomain
    nx: int
    nt: int
    element_arrays: ElementArrays
    facets: Mapping[FacetKind, FacetArrays]

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
        """Every element as a record, built from `element_arrays` on first use."""
        a = self.element_arrays
        rows = zip(a.center.tolist(), a.h.tolist(), a.x_range.tolist(), a.t_range.tolist())
        return tuple(Element(id=e, ix=e % self.nx, slab=e // self.nx, x_range=tuple(xr),
                             t_range=tuple(tr), h_x=h[0], h_t=h[1], center=tuple(c))
                     for e, (c, h, xr, tr) in enumerate(rows))

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

    def facet_arrays(self, kind: FacetKind, slabs: int | range) -> FacetArrays | None:
        """The facets of ``kind`` in a slab, or a range of consecutive slabs: the rows of
        ``facets[kind]`` whose owners lie there, each array a view of its array there or
        the shared (1,) one itself; None if there are none."""
        fa = self.facets[kind]
        slabs = slabs if isinstance(slabs, range) else range(slabs, slabs + 1)
        rows = slice(*np.searchsorted(fa.owner, (slabs.start * self.nx, slabs.stop * self.nx)))
        if rows.stop == rows.start:
            return None

        def cut(a):
            return a[rows] if len(a) == len(fa.owner) else a
        return dataclasses.replace(
            fa, **{f.name: cut(getattr(fa, f.name)) for f in dataclasses.fields(fa)[1:-1]},
            offset=MappingProxyType({slot: cut(a) for slot, a in fa.offset.items()}))


def build_cartesian_mesh(domain: SpaceTimeDomain, nx: int, nt: int) -> Mesh:
    """Uniform nx-by-nt tensor mesh with complete facet taxonomy.

    Every element stores the exact sizes h_x = width / nx and
    h_t = t_final / nt, not differences of the grid points, so all elements
    share one size, and h_Fx = h_x on every time-like facet.  Within a slab
    the facets of a kind are ordered by x; the Dirichlet owners' offsets are
    (n_facets,), and every other ``offset`` and ``half`` is shared.
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
                facets=MappingProxyType(_build_facets(xs, ts, h_x, h_t)))


_IDS = ("owner", "below", "above", "left", "right")


def _table(shape, **fields) -> dict[str, np.ndarray]:
    """Every field broadcast to ``shape``: ids as intp, the rest as float."""
    return {name: np.broadcast_to(np.asarray(v, dtype=np.intp if name in _IDS else float),
                                  shape) for name, v in fields.items()}


def _build_facets(xs: np.ndarray, ts: np.ndarray, h_x: float, h_t: float
                  ) -> dict[FacetKind, FacetArrays]:
    """The FacetArrays of every kind of the tensor grid xs x ts."""
    nx, nt = len(xs) - 1, len(ts) - 1
    up, side = {"below": h_t / 2, "above": -h_t / 2}, {"left": h_x / 2, "right": -h_x / 2}
    facets = {}
    for kind, lines, across, owner, sign, beta in (
            (FacetKind.INITIAL, [0], up, up["above"], 0.0, 0.0),
            (FacetKind.SPACE_INTERIOR, range(1, nt), up, up["below"], 0.0, 0.0),
            (FacetKind.FINAL, [nt], up, up["below"], 0.0, 0.0),
            (FacetKind.TIME_INTERIOR, range(1, nx), side, side["left"], 1.0, h_x),
            (FacetKind.DIRICHLET, [0, nx], side, [side["right"], side["left"]], [-1.0, 1.0],
             0.0)):
        if kind.is_horizontal:  # row r on the line t = ts[lines[r]], column ix over xs[ix:ix + 2]
            line, ix = np.array(lines, dtype=int)[:, None], np.arange(nx)
            first = np.where(line > 0, (line - 1) * nx + ix, -1)
            second = np.where(line < nt, line * nx + ix, -1)
            table = _table(first.shape, below=first, above=second, left=-1, right=-1,
                           lo=xs[:-1], hi=xs[1:], fixed=ts[line], alpha=0.0)
        else:  # row s in slab s, column c on the line x = xs[lines[c]]
            slab, k = np.arange(nt)[:, None], np.array(lines, dtype=int)
            first = np.where(k > 0, slab * nx + k - 1, -1)
            second = np.where(k < nx, slab * nx + k, -1)
            table = _table(first.shape, below=-1, above=-1, left=first, right=second,
                           lo=ts[:-1, None], hi=ts[1:, None], fixed=xs[k], alpha=1.0 / h_x)
        # the first neighbour where there is one: that array itself where there always is
        table.update(_table(first.shape, normal_sign=sign, beta=beta, owner=(
            first if np.all(first >= 0) else np.where(first >= 0, first, second))))
        offset = {name: np.tile(v, len(first)) if np.ndim(v) else np.array([v])
                  for name, v in (*across.items(), ("owner", owner))}
        facets[kind] = FacetArrays(kind, **{name: a.reshape(-1) for name, a in table.items()},
                                   half=np.array([(h_x if kind.is_horizontal else h_t) / 2]),
                                   offset=MappingProxyType(offset))
    return facets
