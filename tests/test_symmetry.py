"""Symmetry oracles: invariances of i psi_t + (1/2) psi_xx = 0 that the discrete scheme
inherits, checked end to end (march, then dg_norm of the error) with no stored data and
no second implementation.

* Reflection.  x -> 1 - x maps ExpSolution(kappa) to e^kappa ExpSolution(-kappa), and
  the mesh of (0, 1) and every family's basis (centred on its element) to themselves,
  so dg_error(kappa) = e^kappa dg_error(-kappa), up to rounding.
* Parabolic scaling.  psi(lam x, lam^2 t) solves the equation too.  On (0, lam) x
  (0, lam^2) with kappa / lam, the scaled-monomial families have the same basis, the
  form and the data scale by lam, and the DG norm squared by lam.  With lam = 2 every
  scaling is by a power of two, so the coefficients are bit-identical and the error
  ratio is sqrt(2) up to the rounding of the square roots.  Plane waves are not
  covered: their wavenumbers do not scale.
* Translation.  psi(x + 1) = e^kappa psi(x) for ExpSolution(kappa), and a shift by a
  power of two maps the mesh of (0, 1) onto that of (1, 2) exactly, with every basis
  centred on its element, so dg_error on (1, 2) x (0, 1) is e^kappa times that on
  (0, 1)^2, up to the rounding of the data.
* Linearity.  The scheme is linear in the data: march(a d1 + b d2) = a march(d1) +
  b march(d2), up to rounding, measured in the DG norm.
"""

import math

import numpy as np
import pytest

from schrodg.assembly import BoundaryData, DiscreteSolution, march, solution_data
from schrodg.basis import SpaceKind
from schrodg.mesh import SpaceTimeDomain, build_cartesian_mesh
from schrodg.norms import DifferenceField, dg_norm, dg_norms, exact_field
from schrodg.solutions import ExpSolution

POLYNOMIAL = [SpaceKind(family, p) for family in ("trefftz", "quasi-trefftz", "full")
              for p in (1, 2, 3)]


def _solve(space, kappa, lam=1.0, n=8, x_lo=0.0):
    """The march on the n x n mesh of (x_lo, x_lo + lam) x (0, lam^2) with the data of
    ExpSolution(kappa), and its DG error."""
    mesh = build_cartesian_mesh(SpaceTimeDomain(x_lo, x_lo + lam, lam * lam), n, n)
    sol = ExpSolution(kappa)
    psi = march(mesh, space, solution_data(sol))
    return psi, dg_norm(DifferenceField(exact_field(sol), psi), mesh, n=20)


# the largest relative defect seen on these meshes is 8.6e-14 (trefftz and quasi-trefftz
# p3) and 8.9e-14 (plane waves p2): a tenth of the tolerance
@pytest.mark.parametrize("space", POLYNOMIAL + [SpaceKind.plane_wave(2)], ids=str)
def test_reflection_maps_kappa_to_minus_kappa(space):
    kappa = 2.5
    _, forward = _solve(space, kappa)
    _, backward = _solve(space, -kappa)
    assert forward == pytest.approx(math.exp(kappa) * backward, rel=1e-12)


@pytest.mark.parametrize("space", POLYNOMIAL, ids=str)
def test_parabolic_scaling_by_two_is_exact(space):
    kappa = 2.5
    psi, err = _solve(space, kappa)
    psi2, err2 = _solve(space, kappa / 2, lam=2.0)
    assert np.array_equal(psi.coeffs, psi2.coeffs)
    assert err2 == pytest.approx(math.sqrt(2.0) * err, rel=2 * np.finfo(float).eps, abs=0)


# the largest relative defect seen on these meshes is 6.2e-14 (trefftz p3) and 9.3e-14
# (plane waves p2): a tenth of the tolerance
@pytest.mark.parametrize("space", POLYNOMIAL + [SpaceKind.plane_wave(2)], ids=str)
def test_translation_by_one_scales_by_e_kappa(space):
    kappa = 2.5
    _, err = _solve(space, kappa)
    _, shifted = _solve(space, kappa, x_lo=1.0)
    assert shifted == pytest.approx(math.exp(kappa) * err, rel=1e-12)


# the largest relative defect seen on this mesh is 8.6e-16 for the polynomial families
# (trefftz p3) and 9.6e-15 for plane waves p2, a tenth of the tolerance; their
# coefficients differ by up to 4.8e-14, as the plane-wave basis is nearly dependent
@pytest.mark.parametrize("space", POLYNOMIAL + [SpaceKind.plane_wave(2)], ids=str)
def test_march_is_linear_in_the_data(space):
    a, b = 0.75 - 0.5j, -1.25 + 2.0j
    d1, d2 = solution_data(ExpSolution(2.5)), solution_data(ExpSolution(-1.5))
    mixed = BoundaryData(psi0=lambda x: a * d1.psi0(x) + b * d2.psi0(x),
                         g_D=lambda x, t: a * d1.g_D(x, t) + b * d2.g_D(x, t))
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 4, 4)
    psi = march(mesh, space, mixed)
    combined = DiscreteSolution(mesh, space)
    combined.set_coeffs(np.arange(mesh.n_elements),
                        a * march(mesh, space, d1).coeffs + b * march(mesh, space, d2).coeffs)
    defect, size = dg_norms([DifferenceField(psi, combined), psi], mesh, n=20)
    assert defect <= 1e-13 * size
