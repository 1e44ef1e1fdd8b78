import os

# The golden files were written with one BLAS thread, and a reported cond2 near 1e7 moves
# by ~1e-11 relative with the thread count; pin it before numpy loads BLAS, as CI does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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


def named_mesh(name: str, nx: int, nt: int):
    """The nx x nt mesh of the unit square ("uniform"), or of [-0.5, 1.5] x [0, 0.3]
    ("offset"): grid lines away from x = 0, and an element size with h_x != h_t."""
    domain = {"uniform": SpaceTimeDomain(0.0, 1.0, 1.0),
              "offset": SpaceTimeDomain(-0.5, 1.5, 0.3)}[name]
    return build_cartesian_mesh(domain, nx, nt)


def constant_field():
    from schrodg.norms import ClosedFormField

    return ClosedFormField(
        lambda x, t: np.ones(np.broadcast(np.asarray(x), np.asarray(t)).shape, dtype=complex),
        lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape, dtype=complex),
    )
