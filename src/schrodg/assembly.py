"""Ultra-weak space-time DG assembly for i u_t + (1/2) u_xx = 0 (d = 1).

All derivatives sit on facets; with trial u and test v (conjugated) the
sesquilinear form reads

    A(u, v) = i ( int_{space-like} u^- conj([v]_t) + int_{final} u conj(v) )
            + 1/2 int_{time-like} ( <u_x> conj([v]_N) + i alpha [u]_N conj([v]_N)
                                    - <u> conj([v_x]_N) + i beta [u_x]_N conj([v_x]_N) )
            + 1/2 int_{dirichlet} ( n u_x + i alpha u ) conj(v)

    l(v)    = i int_{initial} psi0 conj(v)
            + 1/2 int_{dirichlet} g ( n conj(v_x) + i alpha conj(v) )

with the time jump [w]_t = w^- - w^+ (earlier minus later trace) and, on a
vertical facet with left element 1 and right element 2 (n1 = +1, n2 = -1),
<w> = (w1 + w2)/2 and [w]_N = w1 n1 + w2 n2.  For discrete spaces that are
not exactly in the operator kernel the volume term

    sum_K int_K u conj(i v_t + (1/2) v_xx)

is added, which restores consistency of the ultra-weak formulation.

The upwind space-like flux makes the global system block lower-triangular
by time slab, so the default solve marches slab by slab; the assembled
global system is kept as a testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import ElementBasis, MeshBasis, SpaceKind, element_basis
from .linalg import COND_MAX_N, FactoredMatrix, SingularMatrixError, cond2
from .mesh import FacetKind, Mesh
from .norms import field_points
from .quadrature import (data_rule_size, mapped_interval, mapped_intervals, poly_rule_size,
                         rect_rule)

_COND_FLAG_DEFAULT = 1e14


@dataclass(frozen=True)
class BoundaryData:
    """Initial datum psi0(x) and Dirichlet datum g_D(x, t), both vectorized.

    Both are called with 2-D point arrays (one row per facet) and must
    return values of the same shape.
    """

    psi0: Callable
    g_D: Callable


def constant_data(value: complex = 1.0) -> BoundaryData:
    return BoundaryData(psi0=lambda x: np.full(np.shape(x), complex(value)),
                        g_D=lambda x, t: np.full(np.shape(x), complex(value)))


def solution_data(sol) -> BoundaryData:
    """Boundary data manufactured from an exact solution object."""
    return BoundaryData(psi0=lambda x: sol.value(x, 0.0), g_D=lambda x, t: sol.value(x, t))


class SlabSolveError(RuntimeError):
    def __init__(self, slab: int, cond_estimate: float, reason: str = "ill-conditioned"):
        super().__init__(f"slab {slab}: {reason} (cond2 ~ {cond_estimate:.3e})")
        self.slab = slab
        self.cond_estimate = cond_estimate


class DiscreteSolution:
    """Coefficients of a discrete space on every element, one (n_elements, dim) array.

    A field in the sense of `schrodg.norms`: value/dx take an element id, or
    an id array (nF,) with points (nF, nq), and evaluate through the space's
    batched `MeshBasis`.  ``bases`` (from `element_bases`) is accepted but not
    needed.
    """

    def __init__(self, mesh: Mesh, space: SpaceKind, bases: list[ElementBasis] | None = None):
        self.mesh = mesh
        self.space = space
        self.basis = MeshBasis(mesh, space)
        self.coeffs = np.zeros((mesh.n_elements, self.basis.dim), dtype=complex)
        self._known = np.zeros(mesh.n_elements, dtype=bool)

    def set_coeffs(self, eid, vec) -> None:
        """Coefficients of element ``eid``, or rows (len(eid), dim) for an id array."""
        self.coeffs[eid] = vec
        self._known[eid] = True

    def _eval(self, eid, xs, ts, dx: bool) -> np.ndarray:
        eids, X, T, shape = field_points(eid, xs, ts)
        missing = eids[~self._known[eids]]
        if missing.size:
            raise ValueError(f"element {missing[0]} has no coefficients yet")
        return self.basis.combination(eids, X, T, self.coeffs[eids], dx).reshape(shape)

    def value(self, eid, xs, ts) -> np.ndarray:
        return self._eval(eid, xs, ts, dx=False)

    def dx(self, eid, xs, ts) -> np.ndarray:
        return self._eval(eid, xs, ts, dx=True)


def element_bases(mesh: Mesh, space: SpaceKind) -> list[ElementBasis]:
    """Local bases for every element (coefficient maps shared across congruent ones)."""
    arrays = mesh.element_arrays
    return [element_basis(space, tuple(center), tuple(h), eid) for eid, (center, h)
            in enumerate(zip(arrays.center.tolist(), arrays.h.tolist()))]


def _rule_sizes(space: SpaceKind, n_quad: int | None) -> tuple[int, int]:
    if n_quad is not None:
        return n_quad, n_quad
    return poly_rule_size(space.p), data_rule_size(space.p)


# --- slab-wide assembly for march: every facet kind of a slab in one batch ---

def _pair(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_q conj(a[f, i, q]) w[f, q] b[f, j, q] for every facet f: (nF, dim, dim)."""
    return (a.conj() * w[:, None, :]) @ np.swapaxes(b, 1, 2)


def _project(a: np.ndarray, w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """sum_q conj(a[f, i, q]) w[f, q] vals[f, q] for every facet f: (nF, dim)."""
    return np.einsum("fiq,fq->fi", a.conj(), w * vals)


def _volume_rule(mesh: Mesh, eids: np.ndarray, n: int):
    """The tensor rule of `rect_rule` on every element of ``eids``: X, T, W (len(eids), n * n)."""
    arrays = mesh.element_arrays
    xq, wx = mapped_intervals(arrays.x_range[eids, 0], arrays.x_range[eids, 1], n)
    tq, wt = mapped_intervals(arrays.t_range[eids, 0], arrays.t_range[eids, 1], n)
    return (np.repeat(xq, n, axis=1), np.tile(tq, (1, n)),
            (wx[:, :, None] * wt[:, None, :]).reshape(len(eids), n * n))


def _slab_matrix(mesh: Mesh, slab: int, basis: MeshBasis, n_poly: int, n_data: int
                 ) -> np.ndarray:
    """Dense matrix of one slab: rows test, columns trial, dim dofs per element in slab order."""
    first = mesh.slab_elements[slab][0]
    nx, dim = len(mesh.slab_elements[slab]), basis.dim
    n_facet = n_data if basis.kind.family == "planewave" else n_poly
    M = np.zeros((nx * dim, nx * dim), dtype=complex)
    blocks = M.reshape(nx, dim, nx, dim)  # a view: blocks[i, :, j, :] is block (i, j)
    diag = np.zeros((nx, dim, dim), dtype=complex)

    for kind in (FacetKind.SPACE_INTERIOR, FacetKind.FINAL):  # every element's top facet
        fa = mesh.facet_arrays(kind, slab)
        if fa is not None:
            X, T, W = fa.quadrature(n_facet)
            v = basis.values(fa.below, X, T)
            np.add.at(diag, fa.below - first, 1j * _pair(v, v, W))

    fa = mesh.facet_arrays(FacetKind.TIME_INTERIOR, slab)
    if fa is not None:
        X, T, W = fa.quadrature(n_facet)
        al, be = fa.alpha[:, None, None], fa.beta[:, None, None]
        sides = [(fa.left - first, *basis.traces(fa.left, X, T), 1.0),
                 (fa.right - first, *basis.traces(fa.right, X, T), -1.0)]
        for ia, va, ga, na in sides:
            for ib, vb, gb, nb in sides:
                block = 0.5 * (0.5 * na * _pair(va, gb, W)
                               + 1j * al * na * nb * _pair(va, vb, W)
                               - 0.5 * na * _pair(ga, vb, W)
                               + 1j * be * na * nb * _pair(ga, gb, W))
                if ia is ib:
                    np.add.at(diag, ia, block)
                else:
                    blocks[ia, :, ib, :] += block

    fa = mesh.facet_arrays(FacetKind.DIRICHLET, slab)
    if fa is not None:
        X, T, W = fa.quadrature(n_facet)
        v, g = basis.traces(fa.owner, X, T)
        np.add.at(diag, fa.owner - first,
                  0.5 * (fa.normal_sign[:, None, None] * _pair(v, g, W)
                         + 1j * fa.alpha[:, None, None] * _pair(v, v, W)))

    if basis.kind.needs_volume_term:
        elems = np.arange(first, first + nx)
        X, T, W = _volume_rule(mesh, elems, n_poly)
        diag += _pair(basis.operator_image(elems, X, T), basis.values(elems, X, T), W)

    i = np.arange(nx)
    blocks[i, :, i, :] += diag
    return M


def _slab_rhs(mesh: Mesh, slab: int, basis: MeshBasis, data: BoundaryData,
              below: DiscreteSolution | None, n_data: int) -> np.ndarray:
    """Right-hand side of one slab: initial datum or the solution below, and g_D."""
    first = mesh.slab_elements[slab][0]
    rhs = np.zeros((len(mesh.slab_elements[slab]), basis.dim), dtype=complex)

    # every element's bottom facet: initial, or space-like above the previous slab
    for kind, owner_slab in ((FacetKind.INITIAL, slab), (FacetKind.SPACE_INTERIOR, slab - 1)):
        fa = mesh.facet_arrays(kind, owner_slab)
        if fa is not None:
            X, T, W = fa.quadrature(n_data)
            if kind is FacetKind.INITIAL:
                vals = np.asarray(data.psi0(X), dtype=complex)
            else:
                vals = below.value(fa.below, X, T)
            np.add.at(rhs, fa.above - first, 1j * _project(basis.values(fa.above, X, T), W, vals))

    fa = mesh.facet_arrays(FacetKind.DIRICHLET, slab)
    if fa is not None:
        X, T, W = fa.quadrature(n_data)
        v, g = basis.traces(fa.owner, X, T)
        gv = np.asarray(data.g_D(X, T), dtype=complex)
        np.add.at(rhs, fa.owner - first,
                  0.5 * (fa.normal_sign[:, None] * _project(g, W, gv)
                         + 1j * fa.alpha[:, None] * _project(v, W, gv)))
    return rhs.reshape(-1)


def march(mesh: Mesh, space: SpaceKind, data: BoundaryData,
          n_quad: int | None = None, max_cond: float | None = None) -> DiscreteSolution:
    """Solve slab systems in time order, feeding each top trace downstream.

    On uniform meshes the slab matrix is identical for every slab for the
    translation-invariant polynomial families, so a single factorization is
    reused.  Plane-wave systems are screened against ``max_cond`` (default
    1e14) and rejected with a SlabSolveError when numerically unusable, as
    is a slab whose right-hand side or solution is not finite.
    """
    n_poly, n_data = _rule_sizes(space, n_quad)
    if max_cond is None and space.family == "planewave":
        max_cond = _COND_FLAG_DEFAULT
    sol = DiscreteSolution(mesh, space)
    reuse = mesh.is_uniform and space.family != "planewave"
    factor = None
    for slab in range(mesh.n_slabs):
        if factor is None or not reuse:
            M = _slab_matrix(mesh, slab, sol.basis, n_poly, n_data)
            if max_cond is not None and M.shape[0] <= COND_MAX_N:
                c = cond2(M)
                if not np.isfinite(c) or c > max_cond:
                    raise SlabSolveError(slab, c)
            try:
                factor = FactoredMatrix(M)
            except SingularMatrixError as exc:
                raise SlabSolveError(slab, float("inf"), "singular matrix") from exc
        rhs = _slab_rhs(mesh, slab, sol.basis, data, sol, n_data)
        if not np.all(np.isfinite(rhs)):
            raise SlabSolveError(slab, float("nan"), "non-finite right-hand side")
        coeffs = factor.solve(rhs)
        if not np.all(np.isfinite(coeffs)):
            raise SlabSolveError(slab, float("nan"), "non-finite solution")
        sol.set_coeffs(list(mesh.slab_elements[slab]), coeffs.reshape(-1, sol.basis.dim))
    return sol


# --- global oracle: an independent facet-by-facet walk, one element at a time ---

GLOBAL_DOF_CAP = 5000


def _facets(mesh: Mesh):
    """Every facet as (kind, its FacetArrays, its row), kind by kind and slab by slab."""
    for kind in FacetKind:
        for slab in range(mesh.n_slabs):
            fa = mesh.facet_arrays(kind, slab)
            for r in range(0 if fa is None else len(fa.owner)):
                yield kind, fa, r


def _element_traces(basis: MeshBasis, eid: int, xs, ts) -> tuple[np.ndarray, np.ndarray]:
    """Values and x-derivatives (dim, nq) of element ``eid``'s basis at the points xs, ts."""
    v, g = basis.traces([eid], np.atleast_1d(xs)[None], np.atleast_1d(ts)[None])
    return v[0], g[0]


def _element_rule(mesh: Mesh, eid: int, n: int):
    """`rect_rule` on element ``eid``: points xg, tg and weights wg."""
    arrays = mesh.element_arrays
    return rect_rule(tuple(arrays.x_range[eid].tolist()), tuple(arrays.t_range[eid].tolist()), n)


def _add_time_facet(M, fa, r, basis, n_facet):
    tq, wq = mapped_interval(fa.lo[r], fa.hi[r], n_facet)
    sides = []
    for e, nrm in ((int(fa.left[r]), 1.0), (int(fa.right[r]), -1.0)):
        v, g = _element_traces(basis, e, fa.fixed[r], tq)
        sides.append((e * basis.dim, v, g, nrm))
    al, be = fa.alpha[r], fa.beta[r]
    for oa, va, ga, na in sides:
        vaw = va.conj() * wq
        gaw = ga.conj() * wq
        for ob, vb, gb, nb in sides:
            block = 0.5 * (0.5 * na * (vaw @ gb.T)
                           + 1j * al * na * nb * (vaw @ vb.T)
                           - 0.5 * na * (gaw @ vb.T)
                           + 1j * be * na * nb * (gaw @ gb.T))
            M[oa:oa + va.shape[0], ob:ob + vb.shape[0]] += block


def _add_dirichlet_matrix(M, fa, r, basis, n_facet):
    tq, wq = mapped_interval(fa.lo[r], fa.hi[r], n_facet)
    e = int(fa.owner[r])
    v, g = _element_traces(basis, e, fa.fixed[r], tq)
    vaw = v.conj() * wq
    off, d = e * basis.dim, basis.dim
    M[off:off + d, off:off + d] += 0.5 * (fa.normal_sign[r] * (vaw @ g.T)
                                          + 1j * fa.alpha[r] * (vaw @ v.T))


def _add_volume(M, mesh, eid, basis, n_vol):
    xg, tg, wg = _element_rule(mesh, eid, n_vol)
    v = basis.values([eid], xg[None], tg[None])[0]
    sv = basis.operator_image([eid], xg[None], tg[None])[0]
    off, d = eid * basis.dim, basis.dim
    M[off:off + d, off:off + d] += (sv.conj() * wg) @ v.T


def assemble_global(mesh: Mesh, space: SpaceKind, data: BoundaryData,
                    n_quad: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], int]]:
    """The fully coupled system over all slabs (dense testing oracle).

    Unknown i of element e is row and column e * dim + i.
    """
    basis = MeshBasis(mesh, space)
    d = basis.dim
    n = mesh.n_elements * d
    if n > GLOBAL_DOF_CAP:
        raise ValueError(f"global system of size {n} exceeds cap {GLOBAL_DOF_CAP}")
    n_poly, n_data = _rule_sizes(space, n_quad)
    n_facet = n_data if space.family == "planewave" else n_poly
    M = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)

    for kind, fa, r in _facets(mesh):
        lo, hi, fixed = fa.lo[r], fa.hi[r], fa.fixed[r]
        if kind in (FacetKind.SPACE_INTERIOR, FacetKind.FINAL):
            e = int(fa.below[r])
            xq, wq = mapped_interval(lo, hi, n_facet)
            v = _element_traces(basis, e, xq, fixed)[0]
            oe = e * d
            M[oe:oe + d, oe:oe + d] += 1j * ((v.conj() * wq) @ v.T)
            if kind is FacetKind.SPACE_INTERIOR:
                up = int(fa.above[r])
                vu = _element_traces(basis, up, xq, fixed)[0]
                M[up * d:(up + 1) * d, oe:oe + d] -= 1j * ((vu.conj() * wq) @ v.T)
        elif kind is FacetKind.INITIAL:
            e = int(fa.above[r])
            xq, wq = mapped_interval(lo, hi, n_data)
            v = _element_traces(basis, e, xq, fixed)[0]
            vals = np.asarray(data.psi0(xq), dtype=complex)
            rhs[e * d:(e + 1) * d] += 1j * ((v.conj() * wq) @ vals)
        elif kind is FacetKind.TIME_INTERIOR:
            _add_time_facet(M, fa, r, basis, n_facet)
        elif kind is FacetKind.DIRICHLET:
            e = int(fa.owner[r])
            _add_dirichlet_matrix(M, fa, r, basis, n_facet)
            tq, wq = mapped_interval(lo, hi, n_data)
            v, g = _element_traces(basis, e, fixed, tq)
            gv = np.asarray(data.g_D(np.full_like(tq, fixed), tq), dtype=complex)
            rhs[e * d:(e + 1) * d] += 0.5 * (
                fa.normal_sign[r] * ((g.conj() * wq) @ gv)
                + 1j * fa.alpha[r] * ((v.conj() * wq) @ gv))

    if space.needs_volume_term:
        for e in range(mesh.n_elements):
            _add_volume(M, mesh, e, basis, n_poly)

    dof_map = {(e, i): e * d + i for e in range(mesh.n_elements) for i in range(d)}
    return M, rhs, dof_map


def solve_global(mesh: Mesh, space: SpaceKind, data: BoundaryData,
                 n_quad: int | None = None) -> DiscreteSolution:
    """Solve the fully coupled system at once (oracle for the marching path)."""
    M, rhs, _ = assemble_global(mesh, space, data, n_quad)
    x = FactoredMatrix(M).solve(rhs)
    sol = DiscreteSolution(mesh, space)
    sol.set_coeffs(np.arange(mesh.n_elements), x.reshape(mesh.n_elements, -1))
    return sol


def apply_form_to_field(mesh: Mesh, space: SpaceKind, field,
                        n_quad: int | None = None) -> np.ndarray:
    """A(field, phi_a) for every global test dof, with the field's one-sided traces.

    The field must expose value(elem_id, xs, ts) and dx(elem_id, xs, ts).
    Used for consistency and Galerkin-orthogonality checks.
    """
    basis = MeshBasis(mesh, space)
    d = basis.dim
    _, n_data = _rule_sizes(space, n_quad)
    out = np.zeros(mesh.n_elements * d, dtype=complex)

    for kind, fa, r in _facets(mesh):
        lo, hi, fixed = fa.lo[r], fa.hi[r], fa.fixed[r]
        if kind in (FacetKind.SPACE_INTERIOR, FacetKind.FINAL):
            e = int(fa.below[r])
            xq, wq = mapped_interval(lo, hi, n_data)
            fm = np.asarray(field.value(e, xq, fixed), dtype=complex)
            v = _element_traces(basis, e, xq, fixed)[0]
            out[e * d:(e + 1) * d] += 1j * ((v.conj() * wq) @ fm)
            if kind is FacetKind.SPACE_INTERIOR:
                up = int(fa.above[r])
                vu = _element_traces(basis, up, xq, fixed)[0]
                out[up * d:(up + 1) * d] -= 1j * ((vu.conj() * wq) @ fm)
        elif kind is FacetKind.TIME_INTERIOR:
            left, right = int(fa.left[r]), int(fa.right[r])
            tq, wq = mapped_interval(lo, hi, n_data)
            v1 = np.asarray(field.value(left, fixed, tq), dtype=complex)
            v2 = np.asarray(field.value(right, fixed, tq), dtype=complex)
            g1 = np.asarray(field.dx(left, fixed, tq), dtype=complex)
            g2 = np.asarray(field.dx(right, fixed, tq), dtype=complex)
            avg_g, jump_v = 0.5 * (g1 + g2), v1 - v2
            avg_v, jump_g = 0.5 * (v1 + v2), g1 - g2
            for e, na in ((left, 1.0), (right, -1.0)):
                v, g = _element_traces(basis, e, fixed, tq)
                contrib = 0.5 * (na * ((v.conj() * wq) @ avg_g)
                                 + 1j * fa.alpha[r] * na * ((v.conj() * wq) @ jump_v)
                                 - na * ((g.conj() * wq) @ avg_v)
                                 + 1j * fa.beta[r] * na * ((g.conj() * wq) @ jump_g))
                out[e * d:(e + 1) * d] += contrib
        elif kind is FacetKind.DIRICHLET:
            e = int(fa.owner[r])
            tq, wq = mapped_interval(lo, hi, n_data)
            fv = np.asarray(field.value(e, fixed, tq), dtype=complex)
            fg = np.asarray(field.dx(e, fixed, tq), dtype=complex)
            v = _element_traces(basis, e, fixed, tq)[0]
            flux = fa.normal_sign[r] * fg + 1j * fa.alpha[r] * fv
            out[e * d:(e + 1) * d] += 0.5 * ((v.conj() * wq) @ flux)

    if space.needs_volume_term:
        for e in range(mesh.n_elements):
            xg, tg, wg = _element_rule(mesh, e, n_data)
            fv = np.asarray(field.value(e, xg, tg), dtype=complex)
            sv = basis.operator_image([e], xg[None], tg[None])[0]
            out[e * d:(e + 1) * d] += (sv.conj() * wg) @ fv

    return out
