import numpy as np
import pytest
import scipy.linalg

from schrodg.linalg import FactoredMatrix, SingularMatrixError, cond2, from_band


def band_storage(a):
    """The square matrix ``a`` in general band storage (ab, kl, ku), with its bandwidths:
    a[i, j] = ab[ku + i - j, j], Fortran-ordered."""
    a = np.asarray(a, dtype=complex)
    kl, ku = scipy.linalg.bandwidth(a)
    ab = np.zeros((kl + ku + 1, len(a)), dtype=complex, order="F")
    i, j = np.nonzero(a)
    ab[ku + i - j, j] = a[i, j]
    return ab, kl, ku


def band_solve(a, b):
    return FactoredMatrix(*band_storage(a)).solve(b)


def random_banded(rng, n, kl, ku):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.triu(np.tril(a, ku), -kl)


def test_identity_solve():
    b = np.array([1.0 + 2j, -3.0, 0.5j])
    assert np.allclose(band_solve(np.eye(3), b), b)


def test_scalar_solve_matches_assembly_example():
    x = band_solve(np.array([[2j]]), np.array([2j]))
    assert x == pytest.approx([1.0])


def test_permutation_solve():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(band_solve(a, np.array([1.0, 2.0])), [2.0, 1.0])


def test_singular_matrix_reported():
    with pytest.raises(SingularMatrixError):
        band_solve(np.zeros((2, 2)), np.ones(2))


def test_shape_validation():
    with pytest.raises(ValueError):
        band_solve(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        band_solve(np.eye(3), np.ones((3, 2)))  # one right-hand side at a time
    with pytest.raises(ValueError):
        FactoredMatrix(np.ones((4, 4)), 1, 1)  # kl + ku + 1 = 3 rows needed


def test_non_finite_band_rejected():
    ab, kl, ku = band_storage(np.eye(3))
    ab[ku, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FactoredMatrix(ab, kl, ku)


@pytest.mark.parametrize("kl, ku", [(0, 0), (2, 1), (1, 3), (5, 5)])
def test_band_round_trip_is_exact(kl, ku):
    a = random_banded(np.random.default_rng(kl + 7 * ku), 9, kl, ku)
    ab, kl_found, ku_found = band_storage(a)
    assert (kl_found, ku_found) == (kl, ku)
    assert ab.shape == (kl + ku + 1, 9)
    assert np.array_equal(from_band(ab, kl, ku), a)


@pytest.mark.parametrize("n", [3, 40])
def test_c_ordered_band_solves_to_the_same_bits(n):
    # a C-ordered band is the same matrix: it is copied into Fortran order, not misread
    rng = np.random.default_rng(n)
    ab, kl, ku = band_storage(random_banded(rng, n, 2, 3) + 4 * np.eye(n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c_ordered = np.ascontiguousarray(ab)
    assert c_ordered.flags.c_contiguous and not c_ordered.flags.f_contiguous
    x = FactoredMatrix(ab, kl, ku).solve(b)
    assert np.array_equal(FactoredMatrix(c_ordered, kl, ku).solve(b), x)
    assert np.array_equal(ab, c_ordered)  # neither band was written


@pytest.mark.parametrize("n", [8, 60, 300])
def test_rcond_estimate_bounds_cond1(n):
    rng = np.random.default_rng(n)
    a = random_banded(rng, n, 5, 5)
    a[np.arange(n), np.arange(n)] *= np.geomspace(1.0, 1e-6, n)  # not too well-conditioned
    cond1 = np.linalg.cond(a, 1)
    estimate = 1.0 / FactoredMatrix(*band_storage(a)).rcond
    assert cond1 / 10 <= estimate <= cond1 * (1 + 1e-8)


def test_cond_identity_and_diag():
    assert cond2(np.eye(4)) == pytest.approx(1.0)
    assert cond2(np.diag([2.0, 1.0])) == pytest.approx(2.0)


def test_cond_unitary_is_one():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    q, _ = np.linalg.qr(a)
    assert cond2(q) == pytest.approx(1.0, abs=1e-10)


def test_cond_scale_invariance():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    base = cond2(a)
    for c in (2.0, -0.5j, 1e-6 + 3j):
        assert cond2(c * a) == pytest.approx(base, rel=1e-10)


def test_cond_singular_is_inf():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert cond2(a) == np.inf


def test_cond_size_cap():
    with pytest.raises(ValueError):
        cond2(np.eye(2001))


@pytest.mark.parametrize("n", [5, 50, 200])
def test_solve_residual_bound(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert cond2(a) < 1e6
    x = band_solve(a, b)
    num = np.linalg.norm(a @ x - b)
    assert num / (np.linalg.norm(a, "fro") * np.linalg.norm(x) + np.linalg.norm(b)) <= 1e-10


@pytest.mark.parametrize("kl, ku", [(0, 2), (2, 1), (1, 3)])
def test_band_solve_matches_dense_solve(kl, ku):
    # unequal bandwidths, so that kl and ku cannot be confused anywhere on the way
    rng = np.random.default_rng(kl + 7 * ku)
    a = random_banded(rng, 30, kl, ku) + 4 * np.eye(30)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert np.allclose(band_solve(a, b), np.linalg.solve(a, b), rtol=1e-12, atol=0)


def test_refinement_makes_the_solve_componentwise_backward_stable():
    # entries scaled by 1e-6 .. 1e6 at random: the LU alone leaves a componentwise
    # backward error max_i |b - a x|_i / (|a| |x| + |b|)_i of 7e5 eps here, and the one
    # refinement step brings it under 1 eps
    rng = np.random.default_rng(0)
    a = random_banded(rng, 40, 2, 3) * 10.0 ** rng.uniform(-6, 6, (40, 40))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x = band_solve(a, b)
    omega = np.max(np.abs(b - a @ x) / (np.abs(a) @ np.abs(x) + np.abs(b)))
    assert omega <= 8 * np.finfo(float).eps


def test_illegal_lapack_arguments_raise():
    # kl and ku swapped on a factor: zgbtrs reports its LU rows too few for kl = 3, ku = 2
    # (an illegal argument, info < 0), and solve raises instead of returning what zgbtrs
    # left in place, refined
    rng = np.random.default_rng(5)
    a = random_banded(rng, 6, 2, 3) + 4 * np.eye(6)
    factor = FactoredMatrix(*band_storage(a))
    assert (factor.kl, factor.ku) == (2, 3)
    factor.kl, factor.ku = factor.ku, factor.kl
    with pytest.raises(ValueError, match="zgbtrs: argument 7"):
        factor.solve(np.ones(6))
