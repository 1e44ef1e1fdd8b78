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
"""

import math

import numpy as np
import pytest

from schrodg.assembly import march, solution_data
from schrodg.basis import SpaceKind
from schrodg.mesh import SpaceTimeDomain, build_cartesian_mesh
from schrodg.norms import DifferenceField, dg_norm, exact_field
from schrodg.solutions import ExpSolution

POLYNOMIAL = [SpaceKind(family, p) for family in ("trefftz", "quasi-trefftz", "full")
              for p in (1, 2, 3)]


def _solve(space, kappa, lam=1.0, n=8):
    """The march on the n x n mesh of (0, lam) x (0, lam^2) with the data of
    ExpSolution(kappa), and its DG error."""
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, lam, lam * lam), n, n)
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
