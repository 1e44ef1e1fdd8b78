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
and the coupling B_{s+1} into the next slab.  `_data_rhs` assembles l,
from psi0 and g_D alone, for every slab in one batch.  Both read the basis
off its trace tables by place: a facet of slot s is its neighbour's side
`PLACE[s]`, and a Dirichlet facet is walked by the slot its owner is in.  The assembled
global system is kept as a testing oracle, solved by a dense LU rather than
the band LU of `march`.

The form is implemented twice on purpose: once in the batched slab kernel
that `march` runs, and once in the per-facet reference walk `_walk_form`
behind `assemble_global` and `apply_form_to_field`.  The walk shares no
code with the kernel, so that marching = global solve compares two
independent implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .basis import ElementBasis, MeshBasis, SpaceKind, element_basis
from .linalg import COND_MAX_N, FactoredMatrix, SingularMatrixError, cond2, from_band
from .mesh import PLACE, FacetKind, Mesh
from .norms import field_points
from .quadrature import data_rule_size, mapped_interval, poly_rule_size, rect_rule

COND_FLAG = 1e14  # plane-wave slabs above this condition number are rejected


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
        super().__init__(f"slab {slab}: {reason} (cond ~ {cond_estimate:.3e})")
        self.slab = slab
        self.cond_estimate = cond_estimate


class DiscreteSolution:
    """Coefficients of a discrete space on every element, one (n_elements, dim) array.

    A field in the sense of `schrodg.norms`: value/dx take an element id, or an
    id array (nF,) with points (nF, nq), local takes the rule at a place of the
    elements (`Mesh.rule`), and each contracts coeffs[eids] with the `MeshBasis`
    values: at the points, or off the place's trace table.
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

    def local(self, eids, n: int, place: str, dx: bool = False) -> np.ndarray:
        """The trace on the elements ``eids`` at the n-point rule on their ``place``, (nF, n):
        one product with the basis' trace table."""
        return self._coeffs_of(eids) @ self.basis.table(n, place, dx)[0]

    def _coeffs_of(self, eids) -> np.ndarray:
        if not self._known[eids].all():
            raise ValueError(f"element {eids[~self._known[eids]][0]} has no coefficients yet")
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


# --- slab-wide assembly for march: every facet kind of a slab in one batch ---

def _pair(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_q conj(a[f, i, q]) w[f, q] b[f, j, q] for every facet f: (nF, dim, dim), or one
    block (1, dim, dim) if every facet shares a, b and w."""
    return (a.conj() * w[:, None, :]) @ np.swapaxes(b, 1, 2)


def _add_at(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """out.flat[index] += values, index broadcast with values and repeats summed: `np.add.at`
    on flat views, which numpy runs several times faster than on blocks."""
    index, values = np.broadcast_arrays(index, values)
    np.add.at(out.reshape(-1), index.reshape(-1), values.reshape(-1))


def _slab_matrix(mesh: Mesh, slab: int, basis: MeshBasis, n_form: int
                 ) -> tuple[tuple[np.ndarray, int, int], np.ndarray]:
    """One slab's operator: its diagonal block of A and its coupling into the next slab.

    The diagonal block is returned in band storage (ab, kl, ku) (see
    `linalg.FactoredMatrix`): rows test, columns trial, dim dofs per element in slab
    order.  Only time-like facets couple elements, and only neighbours in
    slab order, so it is block tridiagonal with kl = ku = 2 dim - 1.  The
    coupling blocks (nx, dim, dim) hold -i int conj(phi^+) phi^- over the top
    facet of each element e: test functions of the element above e, trial
    functions of e.  They are zero on the last slab.  Every block reads the basis off
    its trace tables, at the place where its facet lies on the element.
    """
    nx, dim, first = mesh.nx, basis.dim, slab * mesh.nx
    traces = {place: (basis.table(n_form, place), basis.table(n_form, place, dx=True))
              for place in ("left", "right")}
    wx, wt = mesh.rule(n_form, "top")[2], mesh.rule(n_form, "left")[2]
    kl = ku = 2 * dim - 1
    ab = np.zeros((2 * kl + ku + 1, nx * dim), dtype=complex)
    coupling = np.zeros((nx, dim, dim), dtype=complex)
    a, b = np.arange(dim)[:, None], np.arange(dim)[None, :]

    def add(test, trial, blocks):
        # entry (a, b) of the block of test element e against trial element e' sits at
        # band row kl + ku + (e - e') dim + a - b, column e' dim + b
        e, f = ((ids - first)[:, None, None] for ids in (test, trial))
        _add_at(ab, (kl + ku + (e - f) * dim + a - b) * ab.shape[1] + f * dim + b, blocks)

    for kind in (FacetKind.SPACE_INTERIOR, FacetKind.FINAL):  # every element's top facet
        fa = mesh.facet_arrays(kind, slab)
        if fa is not None:
            v = basis.table(n_form, PLACE["below"])
            add(fa.below, fa.below, 1j * _pair(v, v, wx))
            if kind is FacetKind.SPACE_INTERIOR:  # the upwind trace v, tested from above
                _add_at(coupling, ((fa.below - first)[:, None, None] * dim + a) * dim + b,
                        -1j * _pair(basis.table(n_form, PLACE["above"]), v, wx))

    fa = mesh.facet_arrays(FacetKind.TIME_INTERIOR, slab)
    if fa is not None:
        al, be = fa.alpha[:, None, None], fa.beta[:, None, None]
        sides = [(getattr(fa, s), *traces[PLACE[s]], sign) for s, sign in (("left", 1.0),
                                                                            ("right", -1.0))]
        for ea, va, ga, na in sides:
            for eb, vb, gb, nb in sides:
                add(ea, eb, 0.5 * (0.5 * na * _pair(va, gb, wt)
                                   + 1j * al * na * nb * _pair(va, vb, wt)
                                   - 0.5 * na * _pair(ga, vb, wt)
                                   + 1j * be * na * nb * _pair(ga, gb, wt)))

    fa = mesh.facet_arrays(FacetKind.DIRICHLET, slab)
    for s in ("left", "right"):  # the owner, a facet's one neighbour, slot by slot
        has = getattr(fa, s) >= 0
        ids, (v, g) = getattr(fa, s)[has], traces[PLACE[s]]
        add(ids, ids, 0.5 * (fa.normal_sign[has, None, None] * _pair(v, g, wt)
                             + 1j * fa.alpha[has, None, None] * _pair(v, v, wt)))

    if basis.kind.needs_volume_term:
        elems = np.arange(first, first + nx)
        add(elems, elems, _pair(basis.table(n_form, "volume", image=True),
                                basis.table(n_form, "volume"), mesh.rule(n_form, "volume")[2]))
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
        mesh, 0, MeshBasis(mesh, space), _rule_sizes(space, n_quad)[0])[0]
    return cond2(from_band(*band))


def _data_rhs(out: np.ndarray, mesh: Mesh, basis: MeshBasis, data: BoundaryData,
              n_data: int) -> None:
    """Add l(v) of every slab into ``out`` (n_elements, dim) in one batch: psi0 on the
    initial facets, and g_D on the Dirichlet facets."""
    fa = mesh.facet_arrays(FacetKind.INITIAL, range(mesh.n_slabs))
    psi0 = np.asarray(data.psi0(fa.quadrature(n_data)[0]), dtype=complex)[:, None]
    np.add.at(out, fa.above, 1j * _pair(basis.table(n_data, PLACE["above"]), psi0,
                                        mesh.rule(n_data, "bottom")[2])[..., 0])

    fa = mesh.facet_arrays(FacetKind.DIRICHLET, range(mesh.n_slabs))
    gv = np.asarray(data.g_D(*fa.quadrature(n_data)[:2]), dtype=complex)[:, None]
    W = mesh.rule(n_data, "left")[2]
    for s in ("left", "right"):  # the owner, a facet's one neighbour, slot by slot
        has = getattr(fa, s) >= 0
        v, g = basis.table(n_data, PLACE[s]), basis.table(n_data, PLACE[s], dx=True)
        np.add.at(out, getattr(fa, s)[has],
                  0.5 * (fa.normal_sign[has, None] * _pair(g, gv[has], W)[..., 0]
                         + 1j * fa.alpha[has, None] * _pair(v, gv[has], W)[..., 0]))


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
    only solves, and carries the coupling times the coefficients just solved
    into the next right-hand side; no field is evaluated.  A plane-wave
    operator above `COND_FLAG` fails with a SlabSolveError naming slab 0: on
    the SVD cond2 up to `COND_MAX_N` unknowns, above it on LAPACK's 1-norm
    estimate 1 / rcond.  A matrix, right-hand side or solution that is not
    finite fails too, naming its slab.
    """
    n_form, n_data = _rule_sizes(space, n_quad)
    sol = DiscreteSolution(mesh, space)
    data_rhs = sol.coeffs  # l of every slab, until the slab's solve overwrites its rows
    _data_rhs(data_rhs, mesh, sol.basis, data, n_data)
    band, coupling = _slab_matrix(mesh, 0, sol.basis, n_form)
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
        carry = (coupling @ coeffs[:, :, None]).reshape(-1)
    return sol


# --- the reference: one facet at a time, one element at a time ---

GLOBAL_DOF_CAP = 5000


def _facets(mesh: Mesh, kinds):
    """Every facet of ``kinds`` as (kind, its FacetArrays, its row), kind by kind and
    slab by slab."""
    for kind in kinds:
        if (fa := mesh.facet_arrays(kind, range(mesh.n_slabs))) is not None:
            yield from ((kind, fa, r) for r in range(len(fa.owner)))


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

    for kind, fa, r in _facets(mesh, (FacetKind.SPACE_INTERIOR, FacetKind.FINAL,
                                      FacetKind.TIME_INTERIOR, FacetKind.DIRICHLET)):
        q, wq = mapped_interval(fa.lo[r], fa.hi[r], n)
        fixed = fa.fixed[r]
        if kind is FacetKind.TIME_INTERIOR:
            al, be = fa.alpha[r], fa.beta[r]
            sides = [(*side(int(fa.left[r]), fixed, q), 1.0),
                     (*side(int(fa.right[r]), fixed, q), -1.0)]
            for ra, va, ga, _, _, _, na in sides:
                vaw = va.conj() * wq
                gaw = ga.conj() * wq
                for _, _, _, cb, ub, uxb, nb in sides:
                    out[ra, cb] += 0.5 * (0.5 * na * (vaw @ uxb.T)
                                          + 1j * al * na * nb * (vaw @ ub.T)
                                          - 0.5 * na * (gaw @ ub.T)
                                          + 1j * be * na * nb * (gaw @ uxb.T))
        elif kind is FacetKind.DIRICHLET:
            rows, v, _, cols, u, ux = side(int(fa.owner[r]), fixed, q)
            vaw = v.conj() * wq
            out[rows, cols] += 0.5 * (fa.normal_sign[r] * (vaw @ ux.T)
                                      + 1j * fa.alpha[r] * (vaw @ u.T))
        else:  # space-like: the upwind trace u^- from below, tested on both sides
            rows, v, _, cols, u, _ = side(int(fa.below[r]), q, fixed)
            out[rows, cols] += 1j * ((v.conj() * wq) @ u.T)
            if kind is FacetKind.SPACE_INTERIOR:
                up = int(fa.above[r])
                vu = _element_traces(basis, up, q, fixed)[0]
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
    for kind, fa, r in _facets(mesh, (FacetKind.INITIAL, FacetKind.DIRICHLET)):
        q, wq = mapped_interval(fa.lo[r], fa.hi[r], n_data)
        fixed = fa.fixed[r]
        if kind is FacetKind.INITIAL:
            e = int(fa.above[r])
            v = _element_traces(basis, e, q, fixed)[0]
            vals = np.asarray(data.psi0(q), dtype=complex)
            rhs[e * d:(e + 1) * d] += 1j * ((v.conj() * wq) @ vals)
        else:
            e = int(fa.owner[r])
            v, g = _element_traces(basis, e, fixed, q)
            gv = np.asarray(data.g_D(np.full_like(q, fixed), q), dtype=complex)
            rhs[e * d:(e + 1) * d] += 0.5 * (
                fa.normal_sign[r] * ((g.conj() * wq) @ gv)
                + 1j * fa.alpha[r] * ((v.conj() * wq) @ gv))

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
