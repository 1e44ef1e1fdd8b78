import math

import numpy as np
import pytest

from schrodg.assembly import (BoundaryData, DiscreteSolution, _rule_sizes, _slab_matrix,
                              _slab_rhs, apply_form_to_field, assemble_global,
                              constant_data, march, solution_data, solve_global)
from schrodg.basis import MeshBasis, SpaceKind
from schrodg.linalg import cond2
from schrodg.mesh import SpaceTimeDomain, build_cartesian_mesh
from schrodg.norms import DifferenceField, dg_norm, exact_field
from schrodg.solutions import ExpSolution
from tests.conftest import constant_field

DOM = SpaceTimeDomain(0.0, 1.0, 1.0)

ALL_SPACES = [SpaceKind.trefftz(1), SpaceKind.trefftz(2),
              SpaceKind.quasi_trefftz(1), SpaceKind.quasi_trefftz(2),
              SpaceKind.full_poly(1), SpaceKind.full_poly(2),
              SpaceKind.plane_wave(1), SpaceKind.plane_wave(2)]


def rel_coeff_diff(a: DiscreteSolution, b: DiscreteSolution) -> float:
    num = math.sqrt(sum(float(np.sum(np.abs(a.coeffs[e] - b.coeffs[e]) ** 2))
                        for e in range(len(a.coeffs))))
    den = math.sqrt(sum(float(np.sum(np.abs(b.coeffs[e]) ** 2))
                        for e in range(len(b.coeffs))))
    return num / den


def first_slab(mesh, space, data):
    """Matrix and right-hand side of slab 0, built as march builds them."""
    basis = MeshBasis(mesh, space)
    n_poly, n_data = _rule_sizes(space, None)
    return (_slab_matrix(mesh, 0, basis, n_poly, n_data),
            _slab_rhs(mesh, 0, basis, data, None, n_data))


def test_single_element_p0_matrix_and_rhs():
    # top facet contributes i, the two Dirichlet facets i/2 each
    mesh = build_cartesian_mesh(DOM, 1, 1)
    matrix, rhs = first_slab(mesh, SpaceKind.trefftz(0), constant_data(1.0))
    assert matrix.shape == (1, 1)
    assert matrix[0, 0] == pytest.approx(2j, abs=1e-14)
    assert rhs[0] == pytest.approx(2j, abs=1e-14)
    assert assemble_global(mesh, SpaceKind.trefftz(0), constant_data(1.0))[2] == {(0, 0): 0}


def test_single_element_p0_reproduces_constant():
    mesh = build_cartesian_mesh(DOM, 1, 1)
    sol = march(mesh, SpaceKind.trefftz(0), constant_data(1.0))
    assert sol.coeffs[0][0] == pytest.approx(1.0, abs=1e-14)


def test_zero_data_gives_zero_solution():
    mesh = build_cartesian_mesh(DOM, 3, 3)
    sol = march(mesh, SpaceKind.trefftz(1), constant_data(0.0))
    for c in sol.coeffs:
        assert np.max(np.abs(c)) <= 1e-14


def test_single_slab_global_equals_slab():
    mesh = build_cartesian_mesh(DOM, 1, 1)
    space = SpaceKind.trefftz(1)
    data = constant_data(1.0)
    slab_matrix, slab_rhs = first_slab(mesh, space, data)
    m, rhs, _ = assemble_global(mesh, space, data)
    assert np.allclose(slab_matrix, m, atol=1e-14)
    assert np.allclose(slab_rhs, rhs, atol=1e-14)


def test_two_slab_marching_matches_global_p0():
    mesh = build_cartesian_mesh(DOM, 1, 2)
    space = SpaceKind.trefftz(0)
    sol_exact = ExpSolution(2.0)
    data = solution_data(sol_exact)
    a = march(mesh, space, data)
    b = solve_global(mesh, space, data)
    assert rel_coeff_diff(a, b) <= 1e-12


def test_global_block_lower_triangular():
    # no coupling of later-slab trial dofs into earlier-slab test rows
    mesh = build_cartesian_mesh(DOM, 2, 3)
    space = SpaceKind.trefftz(1)
    m, _, dof_map = assemble_global(mesh, space, constant_data(1.0))
    slab_of_row = {}
    for (eid, i), row in dof_map.items():
        slab_of_row[row] = mesh.elements[eid].slab
    n = m.shape[0]
    for r in range(n):
        for c in range(n):
            if slab_of_row[c] > slab_of_row[r]:
                assert m[r, c] == 0.0


@pytest.mark.parametrize("space", ALL_SPACES, ids=str)
def test_marching_equals_global_oracle(space):
    mesh = build_cartesian_mesh(DOM, 4, 4)
    data = solution_data(ExpSolution(5.0))
    a = march(mesh, space, data)
    b = solve_global(mesh, space, data)
    assert sum(len(c) for c in a.coeffs) <= 200
    assert rel_coeff_diff(a, b) <= 1e-10


@pytest.mark.parametrize("space", ALL_SPACES, ids=str)
def test_march_residual_against_global_system(space):
    mesh = build_cartesian_mesh(DOM, 3, 3)
    data = solution_data(ExpSolution(5.0))
    sol = march(mesh, space, data)
    m, rhs, dof_map = assemble_global(mesh, space, data)
    x = np.zeros(m.shape[0], dtype=complex)
    for (eid, i), row in dof_map.items():
        x[row] = sol.coeffs[eid][i]
    res = np.linalg.norm(m @ x - rhs)
    den = np.linalg.norm(m, "fro") * np.linalg.norm(x) + np.linalg.norm(rhs)
    assert res / den <= 1e-10


@pytest.mark.parametrize("space", [SpaceKind.trefftz(0), SpaceKind.trefftz(1),
                                   SpaceKind.trefftz(2), SpaceKind.quasi_trefftz(1),
                                   SpaceKind.quasi_trefftz(2), SpaceKind.full_poly(2),
                                   SpaceKind.plane_wave(1), SpaceKind.plane_wave(2)],
                         ids=str)
def test_constant_data_is_reproduced_exactly(space):
    mesh = build_cartesian_mesh(DOM, 10, 10)
    sol = march(mesh, space, constant_data(1.0))
    err = dg_norm(DifferenceField(constant_field(), sol), mesh, n=20)
    assert err <= 1e-12


@pytest.mark.parametrize("space", [SpaceKind.trefftz(1), SpaceKind.trefftz(2),
                                   SpaceKind.quasi_trefftz(2), SpaceKind.full_poly(2),
                                   SpaceKind.plane_wave(1)], ids=str)
def test_consistency_exact_solution_satisfies_scheme(space):
    # A(psi, s) = l(s) for every test dof when psi is the exact solution
    mesh = build_cartesian_mesh(DOM, 4, 4)
    sol = ExpSolution(5.0)
    data = solution_data(sol)
    v = apply_form_to_field(mesh, space, exact_field(sol))
    _, ell, _ = assemble_global(mesh, space, data)
    scale = max(np.max(np.abs(v)), np.max(np.abs(ell)))
    assert np.max(np.abs(v - ell)) <= 1e-9 * scale


@pytest.mark.parametrize("space", [SpaceKind.trefftz(1), SpaceKind.trefftz(2),
                                   SpaceKind.quasi_trefftz(2)], ids=str)
def test_galerkin_orthogonality(space):
    mesh = build_cartesian_mesh(DOM, 4, 4)
    sol = ExpSolution(5.0)
    data = solution_data(sol)
    dsol = march(mesh, space, data)
    m, _, dof_map = assemble_global(mesh, space, data)
    x = np.zeros(m.shape[0], dtype=complex)
    for (eid, i), row in dof_map.items():
        x[row] = dsol.coeffs[eid][i]
    v = apply_form_to_field(mesh, space, exact_field(sol))
    resid = v - m @ x  # A(psi - psi_h, s) for every test dof s
    scale = max(np.max(np.abs(v)), 1.0)
    assert np.max(np.abs(resid)) <= 1e-9 * scale


def test_coercivity_on_constant():
    # Im A(1, 1) = 2 on the unit element equals its squared DG norm
    mesh = build_cartesian_mesh(DOM, 1, 1)
    m, _, _ = assemble_global(mesh, SpaceKind.trefftz(0), constant_data(1.0))
    assert np.imag(m[0, 0]) == pytest.approx(2.0, abs=1e-14)


def test_first_slab_cond_is_one_for_single_p0_element():
    mesh = build_cartesian_mesh(DOM, 1, 1)
    matrix, _ = first_slab(mesh, SpaceKind.trefftz(0), constant_data(1.0))
    assert cond2(matrix) == pytest.approx(1.0)


def test_ill_conditioned_slab_is_flagged():
    from schrodg.assembly import SlabSolveError

    mesh = build_cartesian_mesh(DOM, 4, 4)
    data = solution_data(ExpSolution(5.0))
    with pytest.raises(SlabSolveError) as exc:
        march(mesh, SpaceKind.plane_wave(2), data, max_cond=10.0)
    assert exc.value.slab == 0
    assert exc.value.cond_estimate > 10.0


def test_global_size_cap():
    mesh = build_cartesian_mesh(DOM, 40, 40)
    with pytest.raises(ValueError):
        assemble_global(mesh, SpaceKind.trefftz(2), constant_data(1.0))


@pytest.mark.parametrize("space", [SpaceKind.trefftz(2), SpaceKind.full_poly(2)], ids=str)
def test_non_uniform_mesh_march_matches_global(space):
    from tests.conftest import perturbed_mesh

    mesh = perturbed_mesh()
    assert not mesh.is_uniform
    data = solution_data(ExpSolution(5.0))
    assert rel_coeff_diff(march(mesh, space, data), solve_global(mesh, space, data)) <= 1e-10


def test_nan_initial_datum_fails_on_slab_0():
    from schrodg.assembly import SlabSolveError

    mesh = build_cartesian_mesh(DOM, 3, 4)
    data = BoundaryData(psi0=lambda x: np.full(np.shape(x), np.nan, dtype=complex),
                        g_D=lambda x, t: np.ones(np.shape(x), dtype=complex))
    with pytest.raises(SlabSolveError, match="non-finite") as exc:
        march(mesh, SpaceKind.trefftz(1), data)
    assert exc.value.slab == 0


def test_nan_dirichlet_datum_fails_on_first_slab_past_it():
    from schrodg.assembly import SlabSolveError

    mesh = build_cartesian_mesh(DOM, 3, 4)  # slabs of 0.25: slab 2 is the first past 0.5
    data = BoundaryData(psi0=lambda x: np.ones(np.shape(x), dtype=complex),
                        g_D=lambda x, t: np.where(t > 0.5, np.nan, 1.0) + 0j)
    with pytest.raises(SlabSolveError, match="non-finite") as exc:
        march(mesh, SpaceKind.trefftz(1), data)
    assert exc.value.slab == 2


BATCH_SPACES = [SpaceKind.trefftz(2, "a"), SpaceKind.trefftz(2, "b"),
                SpaceKind.quasi_trefftz(2), SpaceKind.full_poly(2), SpaceKind.plane_wave(2)]


@pytest.mark.parametrize("space", BATCH_SPACES, ids=str)
def test_batched_solution_matches_per_element_calls(space):
    from schrodg.basis import element_basis, eval_basis_many
    from schrodg.poly import mi
    from tests.conftest import perturbed_mesh

    mesh = perturbed_mesh()  # two element sizes, so two coefficient tables
    rng = np.random.default_rng(5)
    sol = DiscreteSolution(mesh, space)
    d = space.dim(1)
    sol.set_coeffs(np.arange(mesh.n_elements),
                   rng.standard_normal((mesh.n_elements, d))
                   + 1j * rng.standard_normal((mesh.n_elements, d)))
    eids = np.array([0, 5, 5, 9, 15, 3])
    lo = np.array([[mesh.elements[e].x_range[0], mesh.elements[e].t_range[0]] for e in eids])
    X, T = (lo[:, k:k + 1] + 0.25 * rng.random((len(eids), 7)) for k in (0, 1))
    for method, deriv in (("value", None), ("dx", mi(1, 0))):
        batched = getattr(sol, method)(eids, X, T)
        assert batched.shape == X.shape
        for f, e in enumerate(eids):
            el = mesh.elements[e]
            scalar = getattr(sol, method)(int(e), X[f], T[f])
            funcs = element_basis(space, el.center, (el.h_x, el.h_t)).functions
            ref = sum(c * eval_basis_many(fn, X[f], T[f], deriv)
                      for c, fn in zip(sol.coeffs[e], funcs))
            scale = np.max(np.abs(ref))
            assert scalar.shape == X[f].shape
            assert np.max(np.abs(batched[f] - scalar)) <= 1e-13 * scale
            assert np.max(np.abs(batched[f] - ref)) <= 1e-13 * scale


def test_element_without_coefficients_raises():
    mesh = build_cartesian_mesh(DOM, 2, 2)
    sol = DiscreteSolution(mesh, SpaceKind.trefftz(1))
    sol.set_coeffs([0, 1], np.ones((2, 3)))
    assert sol.value(np.array([0, 1]), np.full((2, 1), 0.25), 0.1).shape == (2, 1)
    with pytest.raises(ValueError, match="element 2"):
        sol.value(np.array([1, 2]), np.full((2, 1), 0.25), 0.6)
    with pytest.raises(ValueError, match="element 3"):
        sol.dx(3, 0.75, 0.6)
