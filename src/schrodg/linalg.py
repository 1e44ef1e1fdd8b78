"""Dense complex linear algebra: LU solves and SVD 2-norm condition numbers.

Thin wrappers over LAPACK via numpy/scipy.  ``solve_lu`` performs one step
of iterative refinement, which keeps the relative residual near machine
precision even for moderately ill-conditioned systems.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

COND_MAX_N = 2000


class SingularMatrixError(RuntimeError):
    """Raised when LU factorization meets an exactly zero pivot."""


class FactoredMatrix:
    """LU factorization with partial pivoting, reusable across right-hand sides."""

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        self.a = a
        with warnings.catch_warnings():
            # exact singularity is detected below and raised as our own error
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self.lu, self.piv = scipy.linalg.lu_factor(a, check_finite=False)
        if np.any(np.diag(self.lu) == 0):
            raise SingularMatrixError("zero pivot after partial pivoting")

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=complex)
        x = scipy.linalg.lu_solve((self.lu, self.piv), b, check_finite=False)
        # one refinement step
        r = b - self.a @ x
        if np.any(r):
            x = x + scipy.linalg.lu_solve((self.lu, self.piv), r, check_finite=False)
        return x


def solve_lu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by LU with partial pivoting plus one refinement step."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side does not conform")
    return FactoredMatrix(a).solve(b)


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
