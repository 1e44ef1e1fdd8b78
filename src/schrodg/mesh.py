"""Tensor-product space-time meshes of (a, b) x (0, T), held as their grid lines.

A mesh is the grid xs x ts: elements are the axis-aligned rectangles
K = (xs[ix], xs[ix + 1]) x (ts[s], ts[s + 1]), grouped into time slabs, and
element s * nx + ix is column ix of slab s, so any per-element array of a mesh
reshapes to (nt, nx, ...): (slab, column).  The grid is uniform, so every element
has the one size `Mesh.h` = (width / nx, t_final / nt), the scales of its local
basis, and `Mesh.centers` holds the element centres.  `Mesh.rule(n, place)` is the
Gauss rule on a named place of an element: its "top", "bottom", "left" or "right"
side, or its "volume", as offsets from the element centre that every element shares.
The grid is the only geometry: the slab kernel, the data and the norms read a
facet's neighbours off the (slab, column) layout (the element below a top side is
the same column of the slab below, ...), and only the reference walk of
`schrodg.assembly` enumerates facets, from the `Mesh.elements` records.  A mesh is
immutable after construction and safe for concurrent read access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import gauss_legendre


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


@dataclass(frozen=True, eq=False)
class Mesh:
    """The mesh of the grid xs x ts, with its elements derived from the grid.

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


def build_cartesian_mesh(domain: SpaceTimeDomain, nx: int, nt: int) -> Mesh:
    """Uniform nx-by-nt tensor mesh, of elements of the size h = (width / nx, t_final / nt)."""
    return Mesh(domain, np.linspace(domain.x_lo, domain.x_hi, nx + 1),
                np.linspace(0.0, domain.t_final, nt + 1))


def _is_linspace(lines, lo: float, hi: float) -> bool:
    """Whether ``lines`` is, to the bit, np.linspace(lo, hi, n) for some n >= 2."""
    ref = np.linspace(lo, hi, max(len(lines), 2))
    return isinstance(lines, np.ndarray) and lines.dtype == ref.dtype and np.array_equal(lines, ref)
