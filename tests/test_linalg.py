import numpy as np
import pytest
import scipy.linalg

from schrodg.linalg import FactoredMatrix, SingularMatrixError, cond2, from_band


def band_storage(a):
    """The square matrix ``a`` in ``zgbtrf`` band storage (ab, kl, ku), with its bandwidths:
    a[i, j] = ab[kl + ku + i - j, j], and the first kl rows are LU workspace."""
    a = np.asarray(a, dtype=complex)
    kl, ku = scipy.linalg.bandwidth(a)
    ab = np.zeros((2 * kl + ku + 1, len(a)), dtype=complex)
    i, j = np.nonzero(a)
    ab[kl + ku + i - j, j] = a[i, j]
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
        FactoredMatrix(np.ones((3, 4)), 1, 1)  # 2 kl + ku + 1 = 4 rows needed


def test_non_finite_band_rejected():
    ab, kl, ku = band_storage(np.eye(3))
    ab[kl + ku, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FactoredMatrix(ab, kl, ku)


@pytest.mark.parametrize("kl, ku", [(0, 0), (2, 1), (1, 3), (5, 5)])
def test_band_round_trip_is_exact(kl, ku):
    a = random_banded(np.random.default_rng(kl + 7 * ku), 9, kl, ku)
    ab, kl_found, ku_found = band_storage(a)
    assert (kl_found, ku_found) == (kl, ku)
    assert ab.shape == (2 * kl + ku + 1, 9)
    assert np.array_equal(from_band(ab, kl, ku), a)


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
