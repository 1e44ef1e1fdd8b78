import math

import numpy as np
import pytest

from schrodg.assembly import element_bases, march, solution_data, DiscreteSolution
from schrodg.basis import SpaceKind
from schrodg.mesh import FacetKind, SpaceTimeDomain, build_cartesian_mesh
from schrodg.norms import (ClosedFormField, DifferenceField, PiecewisePolyField,
                           dg_norm, dg_plus_norm, exact_field, l2_slice_error)
from schrodg.poly import extended_taylor_poly
from schrodg.solutions import ExpSolution
from schrodg.quadrature import mapped_interval
from tests.conftest import constant_field, perturbed_mesh

DOM = SpaceTimeDomain(0.0, 1.0, 1.0)


def zero_field():
    return ClosedFormField(lambda x, t: np.zeros_like(np.asarray(x), dtype=complex),
                           lambda x, t: np.zeros_like(np.asarray(x), dtype=complex))


def test_zero_field_norms():
    mesh = build_cartesian_mesh(DOM, 3, 3)
    assert dg_norm(zero_field(), mesh) == 0.0
    assert dg_plus_norm(zero_field(), mesh) == 0.0
    assert l2_slice_error(zero_field(), 0.5, mesh) == 0.0


def test_constant_on_single_element():
    # dg^2 = (|F_T| + |F_0| + alpha |F_D|) / 2 = (1 + 1 + 2) / 2 = 2
    mesh = build_cartesian_mesh(DOM, 1, 1)
    w = constant_field()
    assert dg_norm(w, mesh) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # no interior facets and zero gradient: the extra terms vanish
    assert dg_plus_norm(w, mesh) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_constant_on_two_slabs_dg_plus():
    # the space-like one-sided trace adds |w^-|^2 / 2 = 1/2
    mesh = build_cartesian_mesh(DOM, 1, 2)
    w = constant_field()
    assert dg_norm(w, mesh) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert dg_plus_norm(w, mesh) == pytest.approx(math.sqrt(2.5), abs=1e-14)


def test_homogeneity():
    mesh = build_cartesian_mesh(DOM, 3, 2)
    sol = ExpSolution(2.0)
    base_v = dg_norm(exact_field(sol), mesh)
    base_p = dg_plus_norm(exact_field(sol), mesh)
    for c in (2.0, 1j, -0.7 + 0.1j):
        scaled = ClosedFormField(lambda x, t: c * sol.value(x, t),
                                 lambda x, t: c * sol.dx(x, t))
        assert dg_norm(scaled, mesh) == pytest.approx(abs(c) * base_v, rel=1e-12)
        assert dg_plus_norm(scaled, mesh) == pytest.approx(abs(c) * base_p, rel=1e-12)


def test_dg_plus_dominates_dg():
    mesh = build_cartesian_mesh(DOM, 4, 4)
    rng = np.random.default_rng(11)
    space = SpaceKind.trefftz(1)
    bases = element_bases(mesh, space)
    sol = DiscreteSolution(mesh, space, bases)
    for el in mesh.elements:
        d = bases[el.id].dim
        sol.set_coeffs(el.id, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    assert dg_plus_norm(sol, mesh) >= dg_norm(sol, mesh)


def test_quadrature_stability_on_smooth_error():
    sol = ExpSolution(5.0)
    mesh = build_cartesian_mesh(DOM, 4, 4)
    polys = [extended_taylor_poly(sol.derivative, 1, el.center, (el.h_x, el.h_t))
             for el in mesh.elements]
    err = DifferenceField(exact_field(sol), PiecewisePolyField(polys))
    for norm in (dg_norm, dg_plus_norm):
        a = norm(err, mesh, n=20)
        b = norm(err, mesh, n=40)
        assert abs(a - b) <= 1e-9 * abs(b)


def test_discrete_error_of_constant_problem_vanishes():
    from schrodg.assembly import constant_data

    mesh = build_cartesian_mesh(DOM, 10, 10)
    sol = march(mesh, SpaceKind.trefftz(1), constant_data(1.0))
    assert dg_norm(DifferenceField(constant_field(), sol), mesh) <= 1e-12


def test_l2_slice_values():
    mesh = build_cartesian_mesh(DOM, 4, 4)
    assert l2_slice_error(constant_field(), 0.0, mesh) == pytest.approx(1.0, abs=1e-14)
    assert l2_slice_error(constant_field(), 1.0, mesh) == pytest.approx(1.0, abs=1e-14)
    assert l2_slice_error(constant_field(), 0.37, mesh) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        l2_slice_error(constant_field(), 2.0, mesh)


def test_l2_slice_uses_earlier_trace_at_interfaces():
    # field that jumps between slabs: trace from below must be used at t = 0.5
    mesh = build_cartesian_mesh(DOM, 1, 2)

    class SlabIndicator:
        def value(self, eid, xs, ts):
            # eid is an id, or an id array (nF,) with points (nF, nq)
            v = np.array([el.slab for el in mesh.elements], dtype=complex)[eid]
            if np.ndim(v):
                v = v[:, None]
            return np.broadcast_to(v, np.broadcast(np.asarray(xs), np.asarray(ts)).shape)

        def dx(self, eid, xs, ts):
            return np.zeros(np.broadcast(np.asarray(xs), np.asarray(ts)).shape,
                            dtype=complex)

    f = SlabIndicator()
    assert l2_slice_error(f, 0.5, mesh) == pytest.approx(0.0, abs=1e-14)
    assert l2_slice_error(f, 0.6, mesh) == pytest.approx(1.0, abs=1e-14)


def test_dg_error_of_smooth_solve_decreases():
    sol = ExpSolution(5.0)
    data = solution_data(sol)
    errs = []
    for n in (5, 10, 20):
        mesh = build_cartesian_mesh(DOM, n, n)
        dsol = march(mesh, SpaceKind.trefftz(1), data)
        errs.append(dg_norm(DifferenceField(exact_field(sol), dsol), mesh))
    assert errs[0] > errs[1] > errs[2]


def _wsum_sq(wq, z):
    z = np.asarray(z)
    return float(np.sum(wq * np.abs(z) ** 2))


def per_facet_norms(field, mesh, n):
    """(dg, dg+) by a walk over single facets with scalar element ids."""
    s_dg = s_plus = 0.0
    facets = [(kind, fa, r) for kind in FacetKind for slab in range(mesh.n_slabs)
              if (fa := mesh.facet_arrays(kind, slab)) is not None
              for r in range(len(fa.owner))]
    for kind, fa, r in facets:
        below, above, left, right, owner = (int(getattr(fa, side)[r]) for side in
                                            ("below", "above", "left", "right", "owner"))
        fixed, alpha, beta = fa.fixed[r], fa.alpha[r], fa.beta[r]
        if kind.is_horizontal:
            xq, wq = mapped_interval(fa.lo[r], fa.hi[r], n)
            if kind is FacetKind.SPACE_INTERIOR:
                wm = field.value(below, xq, fixed)
                s_dg += _wsum_sq(wq, wm - field.value(above, xq, fixed))
                s_plus += _wsum_sq(wq, wm)
            else:
                s_dg += _wsum_sq(wq, field.value(owner, xq, fixed))
            continue
        tq, wq = mapped_interval(fa.lo[r], fa.hi[r], n)
        if kind is FacetKind.TIME_INTERIOR:
            v1, v2 = field.value(left, fixed, tq), field.value(right, fixed, tq)
            g1, g2 = field.dx(left, fixed, tq), field.dx(right, fixed, tq)
            s_dg += alpha * _wsum_sq(wq, v1 - v2) + beta * _wsum_sq(wq, g1 - g2)
            s_plus += (_wsum_sq(wq, 0.5 * (g1 + g2)) / alpha
                       + _wsum_sq(wq, 0.5 * (v1 + v2)) / beta)
        else:
            s_dg += alpha * _wsum_sq(wq, field.value(owner, fixed, tq))
            s_plus += _wsum_sq(wq, field.dx(owner, fixed, tq)) / alpha
    return math.sqrt(0.5 * s_dg), math.sqrt(0.5 * (s_dg + s_plus))


def _field(kind, mesh):
    sol = ExpSolution(3.0)
    if kind == "closed":
        return exact_field(sol)
    if kind == "piecewise":
        return PiecewisePolyField([extended_taylor_poly(sol.derivative, 2, el.center,
                                                        (el.h_x, el.h_t))
                                   for el in mesh.elements])
    rng = np.random.default_rng(8)
    space = SpaceKind.trefftz(2)
    dsol = DiscreteSolution(mesh, space)
    shape = (mesh.n_elements, space.dim(1))
    dsol.set_coeffs(np.arange(mesh.n_elements),
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return dsol


@pytest.mark.parametrize("perturbed", [False, True], ids=["uniform", "perturbed"])
@pytest.mark.parametrize("kind", ["discrete", "piecewise", "closed"])
def test_norms_match_per_facet_walk(kind, perturbed):
    mesh = perturbed_mesh(5, 4) if perturbed else build_cartesian_mesh(DOM, 5, 4)
    field = _field(kind, mesh)
    ref_dg, ref_plus = per_facet_norms(field, mesh, 12)
    assert dg_norm(field, mesh, n=12) == pytest.approx(ref_dg, rel=1e-12)
    assert dg_plus_norm(field, mesh, n=12) == pytest.approx(ref_plus, rel=1e-12)
