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

The upwind space-like flux makes the global system block lower-bidiagonal
by time slab: slab s couples only to itself and, through its bottom facets,
to slab s - 1.  The default solve is therefore block forward substitution,

    M_ss c_s = l_s - B_s c_{s-1},

where the slab kernel `_slab_matrix` assembles A: the diagonal block M_ss
and the coupling B into the next slab.  On the uniform grid every slab has
the same M, block tridiagonal with the same blocks in every column, and B is
one dim x dim block per element, so the kernel computes six blocks from the
basis' trace tables by place (`MeshBasis.table`) and tiles them into band
storage.  `_data_rhs` assembles l from psi0 and g_D alone, on the grid: psi0
at slab 0's bottom nodes and g_D on each Dirichlet side, each one array
contracted with one table.  Neither builds a facet.  The assembled global
system is kept as a testing oracle, solved by a dense LU rather than the band
LU of `march`.

The form is implemented twice on purpose: once in the tiled slab kernel that
`march` runs, and once in the per-facet reference walk `_walk_form` behind
`assemble_global` and `apply_form_to_field`.  The walk enumerates its own
facets, from the element records (`_facets`), and shares no code with the
kernel, so that marching = global solve compares two independent
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
import scipy.linalg

from .basis import ElementBasis, MeshBasis, SpaceKind, element_basis
from .linalg import COND_MAX_N, FactoredMatrix, SingularMatrixError, cond2, from_band
from .mesh import Element, Mesh
from .norms import field_points
from .quadrature import data_rule_size, mapped_interval, mapped_intervals, poly_rule_size, rect_rule

COND_FLAG = 1e14  # plane-wave slabs above this condition number are rejected


@dataclass(frozen=True)
class BoundaryData:
    """Initial datum psi0(x) and Dirichlet datum g_D(x, t), both vectorized.

    Both are called with 2-D point arrays and must return values of the same
    shape: psi0 with the Gauss nodes of slab 0's bottom, (nx, n), and g_D with
    those of one Dirichlet side, (nt, n), one call per side.
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
        super().__init__(f"slab {slab}: {reason} (cond ~ {cond_estimate:.3e})")
        self.slab = slab
        self.cond_estimate = cond_estimate


class DiscreteSolution:
    """Coefficients of a discrete space on every element, one (n_elements, dim) array.

    A field in the sense of `schrodg.norms`: value/dx take an element id, or an
    id array (nF,) with points (nF, nq), and contract coeffs[eids] with the
    `MeshBasis` values there; traces takes a range of slabs and a place of their
    elements (`Mesh.rule`), and contracts those slabs' rows, (slab, column) in
    order, with the place's trace table.
    ``bases`` is accepted but not needed.  `march` keeps slab 0's diagonal
    block in ``first_slab`` if it has at most `COND_MAX_N` rows, and the cond2
    its plane-wave screen took of that block in ``screen_cond2``.
    """

    def __init__(self, mesh: Mesh, space: SpaceKind, bases: list[ElementBasis] | None = None):
        self.mesh = mesh
        self.space = space
        self.basis = MeshBasis(mesh, space)
        self.coeffs = np.zeros((mesh.n_elements, self.basis.dim), dtype=complex)
        self._known = np.zeros(mesh.n_elements, dtype=bool)
        self.first_slab = self.screen_cond2 = None

    def set_coeffs(self, eid, vec) -> None:
        """Coefficients of element ``eid``, or rows (len(eid), dim) for an id array."""
        self.coeffs[eid] = vec
        self._known[eid] = True

    def traces(self, slabs: range, n: int, place: str, dx: bool = False) -> np.ndarray:
        """The trace on every element of ``slabs`` at the n-point rule on their ``place``,
        (len(slabs), nx, nq): one product of those slabs' coefficient rows, a view, with the
        basis' trace table."""
        nx, table = self.mesh.nx, self.basis.table(n, place, dx)[0]
        rows = self._coeffs_of(slice(slabs.start * nx, slabs.stop * nx))
        return (rows @ table).reshape(len(slabs), nx, table.shape[1])

    def _coeffs_of(self, eids) -> np.ndarray:
        """The coefficient rows of ``eids``, an id array or a slice."""
        if not self._known[eids].all():
            missing = np.arange(len(self._known))[eids][~self._known[eids]]
            raise ValueError(f"element {missing[0]} has no coefficients yet")
        return self.coeffs[eids]

    def _eval(self, eid, xs, ts, dx: bool) -> np.ndarray:
        eids, X, T, shape = field_points(eid, xs, ts)
        c = self.basis.center[eids]
        values = self.basis.evaluate(X - c[:, :1], T - c[:, 1:], dx=dx)
        return (self._coeffs_of(eids)[:, None, :] @ values)[:, 0].reshape(shape)

    def value(self, eid, xs, ts) -> np.ndarray:
        return self._eval(eid, xs, ts, dx=False)

    def dx(self, eid, xs, ts) -> np.ndarray:
        return self._eval(eid, xs, ts, dx=True)


def element_bases(mesh: Mesh, space: SpaceKind) -> list[ElementBasis]:
    """Local bases for every element (coefficient maps shared, as the elements share a size)."""
    return [element_basis(space, tuple(center), mesh.h) for center in mesh.centers.tolist()]


def _rule_sizes(space: SpaceKind, n_quad: int | None) -> tuple[int, int]:
    """Gauss nodes of the form's integrals (facets and volume) and of the data's.

    Plane waves integrate the form on the data rule; ``n_quad`` overrides both.
    """
    if n_quad is not None:
        return n_quad, n_quad
    n_data = data_rule_size(space.p)
    return n_data if space.family == "planewave" else poly_rule_size(space.p), n_data


# --- the slab kernel of march: every slab's operator, tiled from blocks ---

def _pair(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_q conj(a[f, i, q]) w[f, q] b[f, j, q] for every row f: (nF, dim, dim), or one
    block (1, dim, dim) if every row shares a, b and w."""
    return (a.conj() * w[:, None, :]) @ np.swapaxes(b, 1, 2)


def _slab_matrix(mesh: Mesh, basis: MeshBasis, n_form: int
                 ) -> tuple[tuple[np.ndarray, int, int], np.ndarray]:
    """Every slab's operator: its diagonal block of A, and its coupling into the next slab.

    The diagonal block is returned in band storage (ab, kl, ku) (see
    `linalg.FactoredMatrix`): rows test, columns trial, dim dofs per element in slab
    order.  Only time-like facets couple elements, and only neighbours in slab order,
    so it is block tridiagonal with kl = ku = 2 dim - 1, and on the uniform grid it
    has six blocks, each one dim x dim integral off the trace tables of the place
    where its facet lies on the element: the top facet's mass, the terms of a
    time-like interior facet between the columns of its left element (on that
    element's right side) and its right element (on its left side), which give the
    sub- and super-diagonal blocks and two main-diagonal terms, and one Dirichlet term
    at each end.  Column ix's diagonal block sums the top term, the left-element
    term if ix < nx - 1, the right-element term if ix > 0, the Dirichlet term of
    x = x_hi if ix = nx - 1 and then that of x = x_lo if ix = 0, and the volume
    term, in that order.  The coupling is one block (dim, dim): -i int conj(phi^+)
    phi^- over the top facet of an element, test functions of the element above it,
    trial functions of the element.
    """
    nx, dim = mesh.nx, basis.dim
    wx, wt = mesh.rule(n_form, "top")[2], mesh.rule(n_form, "left")[2]
    alpha, beta = 1.0 / mesh.h[0], mesh.h[0]
    top = basis.table(n_form, "top")
    # a time-like facet on each neighbour: the left element's right side (normal +1),
    # the right element's left side (-1)
    sides = [(basis.table(n_form, place), basis.table(n_form, place, dx=True), sign)
             for place, sign in (("right", 1.0), ("left", -1.0))]
    (left_left, left_right), (right_left, right_right) = (
        [0.5 * (0.5 * na * _pair(va, gb, wt) + 1j * alpha * na * nb * _pair(va, vb, wt)
                - 0.5 * na * _pair(ga, vb, wt) + 1j * beta * na * nb * _pair(ga, gb, wt))[0]
         for vb, gb, nb in sides] for va, ga, na in sides)
    dirichlet = [0.5 * (sign * _pair(v, g, wt) + 1j * alpha * _pair(v, v, wt))[0]
                 for v, g, sign in sides]  # x = x_hi (its owner's right side), x = x_lo

    diagonal = np.empty((nx, dim, dim), dtype=complex)
    diagonal[:] = 1j * _pair(top, top, wx)
    diagonal[:-1] += left_left
    diagonal[1:] += right_right
    diagonal[-1] += dirichlet[0]
    diagonal[0] += dirichlet[1]
    if basis.kind.needs_volume_term:
        diagonal += _pair(basis.table(n_form, "volume", image=True),
                          basis.table(n_form, "volume"), mesh.rule(n_form, "volume")[2])

    # entry (a, b) of the block of test column e against trial column f sits at band
    # row kl + ku + (e - f) dim + a - b, column f dim + b
    kl = ku = 2 * dim - 1
    ab = np.zeros((2 * kl + ku + 1, nx * dim), dtype=complex)
    a, b = np.arange(dim)[:, None], np.arange(dim)
    cols = np.arange(nx)[:, None, None] * dim + b
    ab[kl + ku + a - b, cols] = diagonal
    ab[kl + ku + dim + a - b, cols[:-1]] = right_left  # test f + 1, trial f
    ab[kl + ku - dim + a - b, cols[1:]] = left_right  # test f - 1, trial f
    coupling = -1j * _pair(basis.table(n_form, "bottom"), top, wx)[0]
    return (ab, kl, ku), coupling


def first_slab_cond2(mesh: Mesh, space: SpaceKind, n_quad: int | None = None,
                     sol: DiscreteSolution | None = None) -> float | None:
    """cond2 of the first slab's matrix; None above `COND_MAX_N` unknowns.  Given the
    solution `march` built on the same mesh, space and rule, its screen's cond2, or
    that of its ``first_slab``."""
    if mesh.nx * space.dim(1) > COND_MAX_N:
        return None
    if sol is not None and sol.screen_cond2 is not None:
        return sol.screen_cond2
    band = sol.first_slab if sol is not None else _slab_matrix(
        mesh, MeshBasis(mesh, space), _rule_sizes(space, n_quad)[0])[0]
    return cond2(from_band(*band))


def _data_rhs(out: np.ndarray, mesh: Mesh, basis: MeshBasis, data: BoundaryData,
              n_data: int) -> None:
    """Add l(v) of every slab into ``out`` (n_elements, dim), viewed (nt, nx, dim): psi0 at
    the Gauss nodes of slab 0's bottom, (nx, n), into slab 0, and g_D at those of each
    Dirichlet side, (nt, n), into its end column, x = x_hi first."""
    rows, hx = out.reshape(mesh.nt, mesh.nx, -1), mesh.h[0]
    x = mapped_intervals(mesh.xs[:-1], mesh.xs[1:], n_data)[0]
    psi0 = np.asarray(data.psi0(x), dtype=complex)[:, None]
    rows[0] += 1j * _pair(basis.table(n_data, "bottom"), psi0,
                          mesh.rule(n_data, "bottom")[2])[..., 0]

    t, w = mapped_intervals(mesh.ts[:-1], mesh.ts[1:], n_data)[0], mesh.rule(n_data, "left")[2]
    for column, x_side, place, sign in ((-1, mesh.xs[-1], "right", 1.0),
                                        (0, mesh.xs[0], "left", -1.0)):
        gv = np.asarray(data.g_D(np.full_like(t, x_side), t), dtype=complex)[:, None]
        v, g = basis.table(n_data, place), basis.table(n_data, place, dx=True)
        rows[:, column] += 0.5 * (sign * _pair(g, gv, w)[..., 0]
                                  + 1j / hx * _pair(v, gv, w)[..., 0])


def _screen(slab: int, cond: float) -> None:
    if not np.isfinite(cond) or cond > COND_FLAG:
        raise SlabSolveError(slab, cond)


def march(mesh: Mesh, space: SpaceKind, data: BoundaryData,
          n_quad: int | None = None) -> DiscreteSolution:
    """Solve the slab systems in time order by block forward substitution.

    Slab s solves M_ss c_s = l_s - B_s c_{s-1}, with the diagonal block M and
    the coupling B into the next slab from `_slab_matrix`.  Every element has
    the mesh's one size and every family is evaluated relative to the element
    centre, so every slab has the same operator: slab 0's is assembled,
    screened and LU-factored in band storage once, before the loop, at a cost
    and memory linear in the elements per slab.  l depends on the data alone,
    so `_data_rhs` assembles it for every slab in one batch, into the
    coefficient array whose rows each slab's solve then overwrites.  The loop
    only solves, and carries the coefficients just solved times the one coupling
    block into the next right-hand side; no field is evaluated.  A plane-wave
    operator above `COND_FLAG` fails with a SlabSolveError naming slab 0: on
    the SVD cond2 up to `COND_MAX_N` unknowns, above it on LAPACK's 1-norm
    estimate 1 / rcond.  A matrix, right-hand side or solution that is not
    finite fails too, naming its slab.
    """
    n_form, n_data = _rule_sizes(space, n_quad)
    sol = DiscreteSolution(mesh, space)
    data_rhs = sol.coeffs  # l of every slab, until the slab's solve overwrites its rows
    _data_rhs(data_rhs, mesh, sol.basis, data, n_data)
    band, coupling = _slab_matrix(mesh, sol.basis, n_form)
    if not np.all(np.isfinite(band[0])):
        raise SlabSolveError(0, float("nan"), "non-finite matrix")
    small = band[0].shape[1] <= COND_MAX_N
    if small:
        sol.first_slab = band
    if space.family == "planewave" and small:
        sol.screen_cond2 = cond2(from_band(*band))
        _screen(0, sol.screen_cond2)
    try:
        factor = FactoredMatrix(*band)
    except SingularMatrixError as exc:
        raise SlabSolveError(0, float("inf"), "singular matrix") from exc
    if space.family == "planewave" and not small:
        _screen(0, 1.0 / factor.rcond if factor.rcond > 0 else float("inf"))
    carry = 0.0
    for slab in range(mesh.n_slabs):
        rows = slice(slab * mesh.nx, (slab + 1) * mesh.nx)
        rhs = data_rhs[rows].reshape(-1) - carry
        if not np.all(np.isfinite(rhs)):
            raise SlabSolveError(slab, float("nan"), "non-finite right-hand side")
        coeffs = factor.solve(rhs).reshape(-1, sol.basis.dim)
        if not np.all(np.isfinite(coeffs)):
            raise SlabSolveError(slab, float("nan"), "non-finite solution")
        sol.set_coeffs(rows, coeffs)
        if slab < mesh.n_slabs - 1:
            carry = (coupling @ coeffs[:, :, None]).reshape(-1)
    return sol


# --- the reference: one facet at a time, one element at a time ---

GLOBAL_DOF_CAP = 5000


class FacetKind(Enum):
    SPACE_INTERIOR = "space_interior"
    FINAL = "final"
    INITIAL = "initial"
    TIME_INTERIOR = "time_interior"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class Facet:
    """One facet of the reference walk: ``first`` is the element below it (space-like) or
    left of it (time-like) and ``second`` the one above or right, None where there is
    none; ``span`` bounds the varying coordinate and ``fixed`` is the constant one."""

    kind: FacetKind
    first: Element | None
    second: Element | None
    span: tuple[float, float]
    fixed: float

    @property
    def owner(self) -> Element:
        """The first neighbour where there is one (a boundary facet's only one)."""
        return self.first or self.second

    @property
    def normal(self) -> float:
        """The owner's outward normal (its x-component) on a Dirichlet facet."""
        return 1.0 if self.first else -1.0

    @property
    def alpha(self) -> float:
        """1 / h_Fx, h_Fx the facet's spatial length scale: its owner's width."""
        return 1.0 / self.owner.h_x

    @property
    def beta(self) -> float:
        """h_Fx on time-like interior facets, 0 elsewhere."""
        return self.owner.h_x if self.kind is FacetKind.TIME_INTERIOR else 0.0


def _facets(mesh: Mesh) -> list[Facet]:
    """Every facet of the mesh, found from the element records alone: the sides of the
    elements, matched by their end points.  Sorted by kind, then by the owner's id."""
    sides = {}  # (axis, line, span) -> [first, second]
    for el in mesh.elements:
        (x0, x1), (t0, t1) = el.x_range, el.t_range
        for key, slot in ((("t", t1, (x0, x1)), 0), (("t", t0, (x0, x1)), 1),
                          (("x", x1, (t0, t1)), 0), (("x", x0, (t0, t1)), 1)):
            sides.setdefault(key, [None, None])[slot] = el
    facets = []
    for (axis, fixed, span), (first, second) in sides.items():
        if axis == "t":
            kind = (FacetKind.SPACE_INTERIOR if first and second else
                    FacetKind.FINAL if first else FacetKind.INITIAL)
        else:
            kind = FacetKind.TIME_INTERIOR if first and second else FacetKind.DIRICHLET
        facets.append(Facet(kind, first, second, span, fixed))
    order = list(FacetKind)
    return sorted(facets, key=lambda f: (order.index(f.kind), f.owner.id, f.fixed))


def _element_traces(basis: MeshBasis, eid: int, xs, ts) -> tuple[np.ndarray, np.ndarray]:
    """Values and x-derivatives (dim, nq) of element ``eid``'s basis at the points xs, ts."""
    x, t = (np.atleast_1d(a - c)[None] for a, c in zip((xs, ts), basis.center[eid]))
    return basis.evaluate(x, t)[0], basis.evaluate(x, t, dx=True)[0]


def _walk_form(mesh: Mesh, basis: MeshBasis, trial, out: np.ndarray, n: int) -> None:
    """Add A(u, phi_a) into out[e * dim + a, cols] for every test function phi_a of
    every element e, one facet at a time with scalar element ids, on the n-point
    Gauss rule.

    The trial u enters through ``trial(e, xs, ts, v, g) -> (cols, values, dx)``,
    the last two (m, nq): u's traces on element e at the points xs, ts, where
    ``v`` and ``g`` (dim, nq) are the values and x-derivatives of e's basis there.
    This is the reference that the batched slab kernel of `march` is checked
    against, so it shares none of that kernel's code.
    """
    d = basis.dim

    def side(e, xs, ts):
        v, g = _element_traces(basis, e, xs, ts)
        return (slice(e * d, (e + 1) * d), v, g, *trial(e, xs, ts, v, g))

    for f in _facets(mesh):
        if f.kind is FacetKind.INITIAL:
            continue
        q, wq = mapped_interval(*f.span, n)
        if f.kind is FacetKind.TIME_INTERIOR:
            al, be = f.alpha, f.beta
            sides = [(*side(f.first.id, f.fixed, q), 1.0), (*side(f.second.id, f.fixed, q), -1.0)]
            for ra, va, ga, _, _, _, na in sides:
                vaw = va.conj() * wq
                gaw = ga.conj() * wq
                for _, _, _, cb, ub, uxb, nb in sides:
                    out[ra, cb] += 0.5 * (0.5 * na * (vaw @ uxb.T)
                                          + 1j * al * na * nb * (vaw @ ub.T)
                                          - 0.5 * na * (gaw @ ub.T)
                                          + 1j * be * na * nb * (gaw @ uxb.T))
        elif f.kind is FacetKind.DIRICHLET:
            rows, v, _, cols, u, ux = side(f.owner.id, f.fixed, q)
            vaw = v.conj() * wq
            out[rows, cols] += 0.5 * (f.normal * (vaw @ ux.T)
                                      + 1j * f.alpha * (vaw @ u.T))
        else:  # space-like: the upwind trace u^- from below, tested on both sides
            rows, v, _, cols, u, _ = side(f.first.id, q, f.fixed)
            out[rows, cols] += 1j * ((v.conj() * wq) @ u.T)
            if f.kind is FacetKind.SPACE_INTERIOR:
                up = f.second.id
                vu = _element_traces(basis, up, q, f.fixed)[0]
                out[up * d:(up + 1) * d, cols] -= 1j * ((vu.conj() * wq) @ u.T)

    if basis.kind.needs_volume_term:
        xs, ts = mesh.xs.tolist(), mesh.ts.tolist()
        for e in range(mesh.n_elements):
            s, ix = divmod(e, mesh.nx)
            xg, tg, wg = rect_rule((xs[ix], xs[ix + 1]), (ts[s], ts[s + 1]), n)
            rows, _, _, cols, u, _ = side(e, xg, tg)
            xc, tc = basis.center[e]
            sv = basis.evaluate((xg - xc)[None], (tg - tc)[None], image=True)[0]
            out[rows, cols] += (sv.conj() * wg) @ u.T


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
    n_form, n_data = _rule_sizes(space, n_quad)
    M = np.zeros((n, n), dtype=complex)
    _walk_form(mesh, basis, lambda e, xs, ts, v, g: (slice(e * d, (e + 1) * d), v, g),
               M, n_form)

    rhs = np.zeros(n, dtype=complex)
    for f in _facets(mesh):
        if f.kind is FacetKind.INITIAL:
            e = f.second.id
            q, wq = mapped_interval(*f.span, n_data)
            v = _element_traces(basis, e, q, f.fixed)[0]
            vals = np.asarray(data.psi0(q), dtype=complex)
            rhs[e * d:(e + 1) * d] += 1j * ((v.conj() * wq) @ vals)
        elif f.kind is FacetKind.DIRICHLET:
            e = f.owner.id
            q, wq = mapped_interval(*f.span, n_data)
            v, g = _element_traces(basis, e, f.fixed, q)
            gv = np.asarray(data.g_D(np.full_like(q, f.fixed), q), dtype=complex)
            rhs[e * d:(e + 1) * d] += 0.5 * (
                f.normal * ((g.conj() * wq) @ gv)
                + 1j * f.alpha * ((v.conj() * wq) @ gv))

    dof_map = {(e, i): e * d + i for e in range(mesh.n_elements) for i in range(d)}
    return M, rhs, dof_map


def solve_global(mesh: Mesh, space: SpaceKind, data: BoundaryData,
                 n_quad: int | None = None) -> DiscreteSolution:
    """Solve the fully coupled system at once (oracle for the marching path): a dense
    LU with partial pivoting, so that it shares no solver code with `march` either."""
    M, rhs, _ = assemble_global(mesh, space, data, n_quad)
    # dense LU of M.T, a Fortran-ordered view factored in place, solved transposed
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M.T, overwrite_a=True), rhs, trans=1)
    sol = DiscreteSolution(mesh, space)
    sol.set_coeffs(np.arange(mesh.n_elements), x.reshape(mesh.n_elements, -1))
    return sol


def apply_form_to_field(mesh: Mesh, space: SpaceKind, field) -> np.ndarray:
    """A(field, phi_a) for every global test dof, with the field's one-sided traces.

    The field must expose value(elem_id, xs, ts) and dx(elem_id, xs, ts).
    Used for consistency and Galerkin-orthogonality checks.
    """
    basis = MeshBasis(mesh, space)
    out = np.zeros((mesh.n_elements * basis.dim, 1), dtype=complex)

    def trial(e, xs, ts, v, g):
        return (slice(0, 1), np.asarray(field.value(e, xs, ts), dtype=complex)[None],
                np.asarray(field.dx(e, xs, ts), dtype=complex)[None])

    _walk_form(mesh, basis, trial, out, data_rule_size(space.p))
    return out[:, 0]
