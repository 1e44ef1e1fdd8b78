"""Complex linear algebra: band LU solves and SVD 2-norm condition numbers.

A band matrix with kl sub- and ku super-diagonals is held in general band storage,
a[i, j] = ab[ku + i - j, j] (kl + ku + 1 rows), the layout ``zgbmv`` reads.  Every
slab solve goes through `FactoredMatrix`: an LU with partial pivoting of such a band
(``zgbtrf``/``zgbtrs``), in an array of its own with ``zgbtrf``'s kl fill rows, plus one
step of iterative refinement, which keeps the relative residual near machine precision
even for moderately ill-conditioned systems.  Its ``rcond`` is LAPACK's 1-norm
estimate (``zgbcon``), which `march`'s plane-wave screen reads, computed on first use
only: it costs more than the factorisation on long slabs.  `from_band` gives the dense
matrix.  `cond2`, the exact 2-norm condition number by a capped full SVD, serves only
the reports of the paper's conditioning slopes, which are 2-norm slopes.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import cached_property

import numpy as np

COND_MAX_N = 2000


def _scipy_linalg_extension(name: str):
    """SciPy's compiled ``scipy.linalg.<name>``, loaded without the ``scipy.linalg`` package,
    whose ``__init__`` is most of its import time, and registered under that name, so that
    a later ``import scipy.linalg`` reuses it."""
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            full, [os.path.join(d, "linalg") for d in scipy.submodule_search_locations])
        if spec is None:
            raise ImportError(f"No module named {full!r}", name=full)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[full]


_flapack, _fblas = _scipy_linalg_extension("_flapack"), _scipy_linalg_extension("_fblas")
zgbtrf, zgbtrs, zgbcon, zgetrf, zgetrs = (_flapack.zgbtrf, _flapack.zgbtrs, _flapack.zgbcon,
                                          _flapack.zgetrf, _flapack.zgetrs)
zgbmv = _fblas.zgbmv


class SingularMatrixError(RuntimeError):
    """Raised when LU factorization meets an exactly zero pivot."""


def _diagonals(n: int, kl: int, ku: int):
    """(band row, row slice, column slice) of every stored diagonal j - i = k."""
    for k in range(-kl, ku + 1):
        if abs(k) < n:
            yield ku - k, slice(max(0, -k), n - max(0, k)), slice(max(0, k), n + min(0, k))


def from_band(ab: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """The dense matrix held in band storage: a[i, j] = ab[ku + i - j, j]."""
    n = ab.shape[1]
    a = np.zeros((n, n), dtype=complex)
    ids = np.arange(n)
    for row, rows, cols in _diagonals(n, kl, ku):
        a[ids[rows], ids[cols]] = ab[row, cols]
    return a


def _check_info(routine: str, info: int) -> None:
    """Raise on LAPACK's report of an illegal argument: info = -i names argument i."""
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} has an illegal value")


class FactoredMatrix:
    """Band LU factorization with partial pivoting, reusable across right-hand sides.

    ``ab`` is the matrix in band storage with ``kl`` sub- and ``ku`` super-diagonals:
    a[i, j] = ab[ku + i - j, j].  It is kept as ``band`` (Fortran-ordered, copied only
    if it is not) and never written; the LU gets an array of its own, with kl more rows.
    """

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        ab = np.asfortranarray(ab, dtype=complex)
        if ab.ndim != 2 or ab.shape[0] != kl + ku + 1:
            raise ValueError(f"band storage needs kl + ku + 1 = {kl + ku + 1} rows")
        if not np.all(np.isfinite(ab)):
            raise ValueError("matrix has non-finite entries")
        self.kl, self.ku, self.band = kl, ku, ab
        lu = np.zeros((2 * kl + ku + 1, ab.shape[1]), dtype=complex, order="F")
        lu[kl:] = ab
        self.lu, self.piv, info = zgbtrf(lu, kl, ku, overwrite_ab=1)
        _check_info("zgbtrf", info)
        if info > 0:
            raise SingularMatrixError("zero pivot after partial pivoting")

    def _lu_solve(self, b: np.ndarray) -> np.ndarray:
        x, info = zgbtrs(self.lu, self.kl, self.ku, b, self.piv)
        _check_info("zgbtrs", info)
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
