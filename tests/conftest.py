import dataclasses

import numpy as np
import pytest

from schrodg import ExpSolution, SpaceTimeDomain, build_cartesian_mesh, solution_data


@pytest.fixture
def unit_domain():
    return SpaceTimeDomain(0.0, 1.0, 1.0)


@pytest.fixture
def mesh4(unit_domain):
    return build_cartesian_mesh(unit_domain, 4, 4)


@pytest.fixture
def smooth_problem():
    """kappa = 5 exponential solution with its manufactured boundary data."""
    sol = ExpSolution(5.0)
    return sol, solution_data(sol)


def constant_field():
    from schrodg.norms import ClosedFormField

    return ClosedFormField(
        lambda x, t: np.ones(np.broadcast(np.asarray(x), np.asarray(t)).shape, dtype=complex),
        lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape, dtype=complex),
    )


def perturbed_mesh(nx: int = 4, nt: int = 4):
    """A uniform mesh on the unit square whose element 1 of slab 1 has a 30% larger
    h_x, the scale of its local basis; facets and element ranges are unchanged."""
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), nx, nt)
    h = mesh.element_arrays.h.copy()
    h[nx + 1, 0] *= 1.3
    return dataclasses.replace(mesh, element_arrays=mesh.element_arrays._replace(h=h))
