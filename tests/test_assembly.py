import math

import numpy as np
import pytest

from schrodg.assembly import (BoundaryData, DiscreteSolution, _data_rhs, _rule_sizes,
                              _slab_matrix, apply_form_to_field, assemble_global,
                              constant_data, first_slab_cond2, march, solution_data,
                              solve_global)
from schrodg.basis import MeshBasis, SpaceKind
from schrodg.linalg import cond2, from_band
from schrodg.mesh import SpaceTimeDomain, build_cartesian_mesh
from schrodg.norms import DifferenceField, dg_norm, exact_field
from schrodg.solutions import ExpSolution, SquareWellSeries, square_well_initial
from tests.conftest import constant_field, named_mesh

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
    """Dense matrix and right-hand side of slab 0, built as march builds them."""
    basis = MeshBasis(mesh, space)
    n_form, n_data = _rule_sizes(space, None)
    band, _ = _slab_matrix(mesh, basis, n_form)
    rhs = np.zeros((mesh.n_elements, basis.dim), dtype=complex)
    _data_rhs(rhs, mesh, basis, data, n_data)
    return from_band(*band), rhs[:mesh.nx].reshape(-1)


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


@pytest.mark.parametrize("space", [SpaceKind.trefftz(2), SpaceKind.full_poly(2),
                                   SpaceKind.plane_wave(2)], ids=str)
def test_offset_mesh_march_matches_global(space):
    # march's one slab operator, assembled from the grid's h_x != h_t away from x = 0
    mesh = named_mesh("offset", 4, 4)
    data = solution_data(ExpSolution(5.0))
    assert rel_coeff_diff(march(mesh, space, data), solve_global(mesh, space, data)) <= 1e-10


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


def test_first_slab_cond2_is_the_first_slab_matrix_cond2():
    from schrodg.linalg import COND_MAX_N

    space = SpaceKind.trefftz(2)
    mesh = build_cartesian_mesh(DOM, 4, 3)
    assert first_slab_cond2(mesh, space) == cond2(first_slab(mesh, space, constant_data())[0])
    wide = build_cartesian_mesh(DOM, COND_MAX_N // space.dim(1) + 1, 1)
    assert first_slab_cond2(wide, space) is None


def test_ill_conditioned_slab_is_flagged(monkeypatch):
    import schrodg.assembly
    from schrodg.assembly import SlabSolveError

    monkeypatch.setattr(schrodg.assembly, "COND_FLAG", 10.0)
    mesh = build_cartesian_mesh(DOM, 4, 4)
    data = solution_data(ExpSolution(5.0))
    with pytest.raises(SlabSolveError) as exc:
        march(mesh, SpaceKind.plane_wave(2), data)
    assert exc.value.slab == 0
    assert exc.value.cond_estimate > 10.0


@pytest.mark.parametrize("space", ALL_SPACES, ids=str)
@pytest.mark.parametrize("mesh_name", ["offset", "uniform"])
def test_band_slab_matrix_is_the_global_diagonal_block(space, mesh_name):
    # the one slab operator is every slab's diagonal block of the global matrix, and the
    # coupling block is every element's block of every sub-diagonal block (the next
    # slab's test functions against this slab's trial functions).  One column has both
    # Dirichlet terms in its block; two columns have no interior column
    from scipy.linalg import block_diag

    for nx in (1, 2, 4):
        mesh = named_mesh(mesh_name, nx, 3)
        basis = MeshBasis(mesh, space)
        m, _, _ = assemble_global(mesh, space, constant_data(1.0))
        (ab, kl, ku), coupling = _slab_matrix(mesh, basis, _rule_sizes(space, None)[0])
        bw, n = 2 * basis.dim - 1, nx * basis.dim
        assert (kl, ku) == (bw, bw) and coupling.shape == (basis.dim, basis.dim)
        # slab 0's block in band storage, and nothing in the entries outside the matrix
        i, j = np.indices((n, n))
        inside = np.abs(i - j) <= bw
        want = np.zeros_like(ab)
        want[kl + ku + i[inside] - j[inside], j[inside]] = m[:n, :n][inside]
        assert np.max(np.abs(ab - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.any(m[:n, :n][~inside])
        dense = from_band(ab, kl, ku)
        for slab in range(mesh.n_slabs):
            rows = slice(slab * n, (slab + 1) * n)
            block = m[rows, rows]
            assert np.max(np.abs(dense - block)) <= 1e-13 * np.max(np.abs(block))
            if slab + 1 < mesh.n_slabs:
                sub = m[(slab + 1) * n:(slab + 2) * n, rows]
                assert (np.max(np.abs(block_diag(*[coupling] * nx) - sub))
                        <= 1e-13 * np.max(np.abs(sub)))


@pytest.mark.parametrize("mesh_name", ["uniform", "offset"])
def test_march_factors_once_per_uniform_mesh(monkeypatch, mesh_name):
    # every slab has slab 0's operator: march assembles, screens and factors it once
    import schrodg.assembly

    made, assembled = [], []

    class Counting(schrodg.assembly.FactoredMatrix):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    def counting_slab_matrix(mesh, *args):
        assembled.append(mesh)
        return _slab_matrix(mesh, *args)

    monkeypatch.setattr(schrodg.assembly, "FactoredMatrix", Counting)
    monkeypatch.setattr(schrodg.assembly, "_slab_matrix", counting_slab_matrix)
    sol = march(named_mesh(mesh_name, 4, 4), SpaceKind.plane_wave(2),
                solution_data(ExpSolution(5.0)))
    assert len(made) == 1 and len(assembled) == 1 and sol.screen_cond2 is not None


@pytest.mark.parametrize("space", [SpaceKind.full_poly(2), SpaceKind.plane_wave(2)], ids=str)
@pytest.mark.parametrize("mesh_name", ["uniform", "offset"])
def test_march_evaluates_no_field(monkeypatch, space, mesh_name):
    # the solution below enters each slab through the coupling blocks alone
    def refuse(*args, **kwargs):
        raise AssertionError("march evaluated a discrete solution")

    monkeypatch.setattr(DiscreteSolution, "value", refuse)
    monkeypatch.setattr(DiscreteSolution, "dx", refuse)
    sol = march(named_mesh(mesh_name, 4, 4), space, solution_data(ExpSolution(5.0)))
    assert np.all(np.isfinite(sol.coeffs)) and np.any(sol.coeffs[-1])


def test_plane_wave_operator_image_is_zero():
    mesh = build_cartesian_mesh(DOM, 3, 2)
    X = mesh.centers[:, :1] + np.linspace(-0.1, 0.1, 4)
    T = mesh.centers[:, 1:] + np.linspace(-0.2, 0.2, 4)
    image = MeshBasis(mesh, SpaceKind.plane_wave(2)).evaluate(X, T, image=True)
    assert image.shape == (mesh.n_elements, 5, 4)
    assert not np.any(image)


def test_plane_wave_screen_above_cond2_cap():
    import time

    from schrodg.assembly import SlabSolveError
    from schrodg.linalg import COND_MAX_N

    # one slab of 800 square elements: 1/rcond_1 ~ 3e15, above the 1e14 flag
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0 / 800), 800, 1)
    space = SpaceKind.plane_wave(2)
    assert mesh.n_elements * space.dim(1) > COND_MAX_N
    start = time.perf_counter()
    with pytest.raises(SlabSolveError) as exc:
        march(mesh, space, solution_data(ExpSolution(5.0)))
    assert time.perf_counter() - start < 1.0
    assert exc.value.slab == 0
    assert exc.value.cond_estimate > 1e14


def test_global_size_cap():
    mesh = build_cartesian_mesh(DOM, 40, 40)
    with pytest.raises(ValueError):
        assemble_global(mesh, SpaceKind.trefftz(2), constant_data(1.0))


def test_singular_slab_matrix_fails_with_its_slab(tmp_path, capsys, monkeypatch):
    import schrodg.assembly
    from schrodg.assembly import SlabSolveError
    from schrodg.cli import main
    from schrodg.linalg import SingularMatrixError

    def singular(*band):
        raise SingularMatrixError("zero pivot after partial pivoting")

    monkeypatch.setattr(schrodg.assembly, "FactoredMatrix", singular)
    mesh = build_cartesian_mesh(DOM, 3, 4)
    with pytest.raises(SlabSolveError, match="singular matrix") as exc:
        march(mesh, SpaceKind.trefftz(1), solution_data(ExpSolution(5.0)))
    assert exc.value.slab == 0 and exc.value.cond_estimate == float("inf")
    assert main(["conv-h", "--levels", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert "slab 0: singular matrix" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_solution_fails_with_its_slab(monkeypatch):
    import schrodg.assembly
    from schrodg.assembly import SlabSolveError

    solves = []

    class NanOnSecondSolve(schrodg.assembly.FactoredMatrix):
        def solve(self, b):
            solves.append(b)
            x = super().solve(b)
            return np.full_like(x, np.nan) if len(solves) == 2 else x

    monkeypatch.setattr(schrodg.assembly, "FactoredMatrix", NanOnSecondSolve)
    mesh = build_cartesian_mesh(DOM, 3, 4)
    with pytest.raises(SlabSolveError, match="non-finite solution") as exc:
        march(mesh, SpaceKind.trefftz(1), solution_data(ExpSolution(5.0)))
    assert exc.value.slab == 1


def test_non_finite_slab_matrix_fails_with_its_slab():
    from schrodg.assembly import SlabSolveError

    # elements 5e-7 wide and 1 long: the degree-12 Trefftz slab matrix overflows
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1e-6, 1.0), 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SlabSolveError, match="non-finite matrix") as exc:
            march(mesh, SpaceKind.trefftz(12), constant_data())
    assert exc.value.slab == 0


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

    # distinct global points on each element, not a trace table: the local branch that
    # evaluates the offsets as given, row by row
    mesh = build_cartesian_mesh(DOM, 4, 4)
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


def _evaluations(monkeypatch, run):
    """run(), and every call it made to scaled_monomials or _wave: the size of its
    coordinate arrays, and its inputs (coordinates and derivative) to the bit."""
    import schrodg.basis

    calls = []

    def record(fn, coords):
        def wrapped(*args, **kwargs):
            arrays = [np.asarray(c, dtype=float) for c in coords(*args)]
            inputs = tuple((a.shape, a.tobytes()) for a in arrays) + (repr(args[2:]), repr(kwargs))
            calls.append((np.broadcast(*arrays).size, inputs))
            return fn(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(schrodg.basis, "scaled_monomials",
                      record(schrodg.basis.scaled_monomials, lambda exps, c, *rest: c))
        patch.setattr(schrodg.basis, "_wave",
                      record(schrodg.basis._wave, lambda k, x, t, *rest: (x, t)))
        out = run()
    return calls, out


def _largest_evaluation(monkeypatch, run):
    """run() and the size of the largest coordinate array it passed to scaled_monomials
    or _wave."""
    calls, out = _evaluations(monkeypatch, run)
    return max(size for size, _ in calls), out


@pytest.mark.parametrize("space", [SpaceKind.trefftz(2), SpaceKind.plane_wave(2),
                                   SpaceKind.full_poly(2), SpaceKind.quasi_trefftz(2)], ids=str)
def test_basis_evaluation_does_not_grow_with_nx(monkeypatch, space):
    # every facet group and the volume rule are evaluated on one shared row of offsets,
    # so the work per basis evaluation in march and dg_norm is the same for 4 and 32 columns
    sol = ExpSolution(5.0)

    def solve_and_norm(nx):
        mesh = build_cartesian_mesh(DOM, nx, 4)
        psi = march(mesh, space, solution_data(sol))
        return dg_norm(DifferenceField(exact_field(sol), psi), mesh, n=20)

    narrow, _ = _largest_evaluation(monkeypatch, lambda: solve_and_norm(4))
    wide, _ = _largest_evaluation(monkeypatch, lambda: solve_and_norm(32))
    assert narrow == wide


@pytest.mark.parametrize("space", [SpaceKind.trefftz(1), SpaceKind.plane_wave(1)], ids=str)
def test_basis_evaluations_do_not_grow_with_chunks_or_repeat(monkeypatch, space):
    # march and the square-well norm read every (rule, place, dx) trace of the solution's
    # basis at a shared row off one table: the norm walks 16 slabs in 6 chunks and 4 slabs
    # in 2 with the same such evaluations, and none repeats the input of another.  The
    # Dirichlet owners read the left and right tables too, so no evaluation is per facet
    data = BoundaryData(psi0=square_well_initial,
                        g_D=lambda x, t: np.zeros(np.shape(x), dtype=complex))

    def solve_and_norm(nt):
        mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 0.1), 8, nt)
        psi = march(mesh, space, data)
        return dg_norm(DifferenceField(exact_field(SquareWellSeries(250)), psi), mesh)

    shared, per_facet = [], []
    for nt in (4, 16):
        calls = [inputs for _, inputs in _evaluations(monkeypatch, lambda: solve_and_norm(nt))[0]]
        shared.append([c for c in calls if all(shape[0] == 1 for shape, _ in c[:2])])
        per_facet.append(len(calls) - len(shared[-1]))
    assert len(shared[0]) == len(shared[1])
    assert len(set(shared[1])) == len(shared[1])
    assert per_facet == [0, 0]


def test_march_evaluates_each_monomial_row_once(monkeypatch):
    # full p2 has a volume term: its values and its operator image come from one monomial
    # table, and no two evaluations in march take the same inputs
    mesh, sol = build_cartesian_mesh(DOM, 8, 8), ExpSolution(5.0)
    calls, _ = _evaluations(monkeypatch,
                            lambda: march(mesh, SpaceKind.full_poly(2), solution_data(sol)))
    inputs = [c for _, c in calls]
    assert len(set(inputs)) == len(inputs)


def test_trace_tables_are_read_only_and_kept_per_basis():
    # a place's rule gives the same read-only table however often it is asked for, from
    # the basis that evaluated it, equal to evaluate at that rule; a new basis evaluates
    # its own
    mesh, space = build_cartesian_mesh(DOM, 4, 3), SpaceKind.full_poly(2)
    basis = MeshBasis(mesh, space)
    for place in ("top", "volume"):
        for kw in ({}, {"dx": True}, {"image": True}):
            table = basis.table(6, place, **kw)
            assert table.shape == (1, basis.dim, 6 if place == "top" else 36)
            assert basis.table(6, place, **kw) is table
            assert np.array_equal(table, basis.evaluate(*mesh.rule(6, place)[:2], **kw))
            with pytest.raises(ValueError):
                table[...] = 0.0
            fresh = MeshBasis(mesh, space).table(6, place, **kw)
            assert fresh is not table and np.array_equal(fresh, table)


def test_reference_walk_evaluates_at_global_points(monkeypatch):
    # the global oracle walks the facets one at a time at global quadrature points
    # and never reads the reference rules or trace tables that the slab kernel uses
    from schrodg.mesh import Mesh

    mesh, space = build_cartesian_mesh(DOM, 4, 3), SpaceKind.full_poly(2)
    m, rhs, _ = assemble_global(mesh, space, constant_data(1.0))
    monkeypatch.setattr(Mesh, "rule", lambda *a: pytest.fail("reference rule used"))
    monkeypatch.setattr(MeshBasis, "table", lambda *a, **k: pytest.fail("trace table used"))
    largest, (m_walk, rhs_walk, _) = _largest_evaluation(
        monkeypatch, lambda: assemble_global(mesh, space, constant_data(1.0)))
    assert largest == _rule_sizes(space, None)[0] ** 2  # one element's volume rule
    assert np.array_equal(m, m_walk) and np.array_equal(rhs, rhs_walk)
