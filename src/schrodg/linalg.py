"""Complex linear algebra: band LU solves and SVD 2-norm condition numbers.

Every solve goes through `FactoredMatrix`, an LU factorisation with partial
pivoting of a matrix in LAPACK band storage (``zgbtrf``/``zgbtrs``) plus one
step of iterative refinement, which keeps the relative residual near machine
precision even for moderately ill-conditioned systems.  Its ``rcond`` is
LAPACK's 1-norm estimate (``zgbcon``), computed on first use only: it costs
more than the factorisation on long slabs.  `to_band` and `from_band` convert
between dense and band storage.

`cond2` is the exact 2-norm condition number by full SVD, kept for the
paper's conditioning slopes, which are 2-norm slopes; it is capped at
`COND_MAX_N` unknowns.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgbmv
from scipy.linalg.lapack import zgbcon, zgbtrf, zgbtrs

COND_MAX_N = 2000


class SingularMatrixError(RuntimeError):
    """Raised when LU factorization meets an exactly zero pivot."""


def _diagonals(n: int, kl: int, ku: int):
    """(offset k = j - i, band row, row slice, column slice) of every stored diagonal."""
    for k in range(-kl, ku + 1):
        if abs(k) < n:
            yield (k, kl + ku - k, slice(max(0, -k), n - max(0, k)),
                   slice(max(0, k), n + min(0, k)))


def to_band(a: np.ndarray) -> tuple[np.ndarray, int, int]:
    """A square matrix in ``zgbtrf`` band storage: (ab, kl, ku) with
    a[i, j] = ab[kl + ku + i - j, j]; the first kl rows are LU workspace."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    kl, ku = scipy.linalg.bandwidth(a)
    ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)
    for k, row, _, cols in _diagonals(n, kl, ku):
        ab[row, cols] = np.diagonal(a, k)
    return ab, kl, ku


def from_band(ab: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """The dense matrix held in ``zgbtrf`` band storage."""
    n = ab.shape[1]
    a = np.zeros((n, n), dtype=complex)
    ids = np.arange(n)
    for _, row, rows, cols in _diagonals(n, kl, ku):
        a[ids[rows], ids[cols]] = ab[row, cols]
    return a


class FactoredMatrix:
    """Band LU factorization with partial pivoting, reusable across right-hand sides.

    ``ab`` is the matrix in ``zgbtrf`` band storage with ``kl`` sub- and
    ``ku`` super-diagonals (see `to_band`).
    """

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        ab = np.asarray(ab, dtype=complex)
        if ab.ndim != 2 or ab.shape[0] != 2 * kl + ku + 1:
            raise ValueError(f"band storage needs 2 kl + ku + 1 = {2 * kl + ku + 1} rows")
        if not np.all(np.isfinite(ab)):
            raise ValueError("matrix has non-finite entries")
        self.kl, self.ku = kl, ku
        self.band = np.asfortranarray(ab[kl:])  # the matrix in zgbmv's band layout
        self.lu, self.piv, info = zgbtrf(ab, kl, ku)
        if info > 0:
            raise SingularMatrixError("zero pivot after partial pivoting")

    def _lu_solve(self, b: np.ndarray) -> np.ndarray:
        x, _ = zgbtrs(self.lu, self.kl, self.ku, b, self.piv)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a x = b for one right-hand side b of shape (n,)."""
        b = np.asarray(b, dtype=complex)
        n = self.band.shape[1]
        if b.shape != (n,):
            raise ValueError("right-hand side does not conform")
        x = self._lu_solve(b)
        # one refinement step; zgbmv's wrapper wants at least kl + ku + 1 rows,
        # and the rows past n that padding adds are dropped
        m = max(n, self.kl + self.ku + 1)
        r = b - zgbmv(m, n, self.kl, self.ku, 1.0, self.band, x)[:n]
        if np.any(r):
            x = x + self._lu_solve(r)
        return x

    @cached_property
    def rcond(self) -> float:
        """LAPACK's estimate of 1 / cond_1; a lower bound on cond_1 is 1 / rcond."""
        anorm = float(np.max(np.sum(np.abs(self.band), axis=0)))
        rcond, _ = zgbcon(self.kl, self.ku, self.lu, self.piv, anorm)
        return float(rcond)


def relative_residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """||a x - b|| / (||a||_F ||x|| + ||b||)."""
    num = np.linalg.norm(a @ x - b)
    den = np.linalg.norm(a, "fro") * np.linalg.norm(x) + np.linalg.norm(b)
    return float(num / den) if den > 0 else float(num)


def cond2(a: np.ndarray) -> float:
    """2-norm condition number via full SVD; +inf when singular."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] > COND_MAX_N:
        raise ValueError(f"matrix size {a.shape[0]} exceeds cond2 cap {COND_MAX_N}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])
