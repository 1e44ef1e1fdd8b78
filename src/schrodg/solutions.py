"""Closed-form reference solutions with exact derivative oracles.

Both families solve i psi_t + (1/2) psi_xx = 0 exactly:

* ``ExpSolution``: psi(x, t) = exp(kappa x + i kappa^2 t / 2), whose
  derivatives are D^(jx, jt) psi = kappa^jx (i kappa^2 / 2)^jt psi.
* ``SquareWellSeries``: the sine eigenfunction expansion of the parabolic
  initial profile sqrt(30) x (1 - x) on (0, 1) with homogeneous Dirichlet
  data, truncated to a fixed number of odd modes.

Both are sums of m products X(x) T(t): ``factors(x, t, dx)`` returns the
tables X (len(x), m) and T (m, len(t)), psi(x_i, t_j) = (X @ T)[i, j], with
m = 1 for the exponential and one term per mode for the series.  The DG
norms build X once per norm call (see `schrodg.norms`).  The series' value and dx
take the same sums point by point (`mode_sum`), so they agree to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import MultiIndex


@dataclass(frozen=True)
class ExpSolution:
    """psi(x, t) = exp(kappa x + i kappa^2 t / 2) in one space dimension."""

    kappa: float

    # kappa * kappa, not kappa ** 2: a float power that overflows raises, a product is inf

    def value(self, x, t):
        return np.exp(self.kappa * np.asarray(x) + 0.5j * (self.kappa * self.kappa) * np.asarray(t))

    def dx(self, x, t):
        return self.kappa * self.value(x, t)

    def factors(self, x, t, dx: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """X = kappa^dx exp(kappa x) (len(x), 1) and T = exp(i kappa^2 t / 2) (1, len(t))."""
        X = np.exp(self.kappa * np.asarray(x, dtype=float).reshape(-1, 1))
        return (self.kappa * X if dx else X), np.exp(
            0.5j * (self.kappa * self.kappa) * np.asarray(t, dtype=float).reshape(1, -1))

    def derivative(self, j: MultiIndex, point) -> complex:
        x, t = point
        k = np.float64(self.kappa)  # numpy powers overflow to inf
        return complex(k ** j.jx[0] * (0.5j * (k * k)) ** j.jt * np.exp(k * x + 0.5j * (k * k) * t))


@dataclass(frozen=True)
class ExpSolutionND:
    """psi(x, t) = exp(kappa . x + i |kappa|^2 t / 2) in d space dimensions."""

    kappa: tuple[float, ...]

    @property
    def d(self) -> int:
        return len(self.kappa)

    def value(self, x, t) -> complex:
        phase = sum(k * xi for k, xi in zip(self.kappa, x))
        return complex(np.exp(phase + 0.5j * sum(k * k for k in self.kappa) * t))

    def derivative(self, j: MultiIndex, point) -> complex:
        x, t = point
        fac = math.prod(k ** e for k, e in zip(self.kappa, j.jx))
        fac *= (0.5j * sum(k * k for k in self.kappa)) ** j.jt
        return fac * self.value(x, t)


def mode_sum(X: np.ndarray, Tt: np.ndarray) -> np.ndarray:
    """sum_m X[..., m] Tt[..., m] over the broadcast leading axes, for a real X and a
    complex Tt (rows of T.T), both contiguous in m.  Each entry is one product, or one
    BLAS dot of two contiguous vectors per part, whatever else the call computes."""
    if X.shape[-1] == 1:
        return X[..., 0] * Tt[..., 0]
    out = np.empty(np.broadcast_shapes(X.shape[:-1], Tt.shape[:-1]), dtype=complex)
    out.real = np.vecdot(X, np.ascontiguousarray(Tt.real))
    out.imag = np.vecdot(X, np.ascontiguousarray(Tt.imag))
    return out


SQUARE_WELL_AMPLITUDE = math.sqrt(30.0)


def square_well_initial(x):
    """The parabolic initial profile sqrt(30) x (1 - x)."""
    x = np.asarray(x)
    return SQUARE_WELL_AMPLITUDE * x * (1.0 - x) + 0.0j


@dataclass(frozen=True)
class SquareWellSeries:
    """Truncated eigenfunction series for the particle-in-a-box evolution.

    psi(x, t) = sqrt(30) (2/pi)^3 sum_{m=0}^{n_trunc-1} (2m+1)^-3
                sin((2m+1) pi x) exp(-i (2m+1)^2 pi^2 t / 2).

    Each retained mode solves the free equation exactly; at t = 0 the sum
    converges to the parabolic profile with cubically decaying coefficients.
    """

    n_trunc: int = 250

    def factors(self, x, t, dx: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """X = a_m sin(n_m pi x) (len(x), n_trunc), or its x-derivative a_m n_m pi
        cos(n_m pi x), and T = exp(-i n_m^2 pi^2 t / 2) (n_trunc, len(t)), where
        n_m = 2m + 1 and a_m = sqrt(30) (2/pi)^3 / n_m^3."""
        n = 2.0 * np.arange(self.n_trunc) + 1.0
        amp = SQUARE_WELL_AMPLITUDE * (2.0 / math.pi) ** 3 / n ** 3
        X = np.outer(np.asarray(x, dtype=float), np.pi * n)  # in place: X is the largest table
        (np.cos if dx else np.sin)(X, out=X)
        X *= amp * (np.pi * n) if dx else amp
        T = np.empty((n.size, np.size(t)), dtype=complex)  # in place too, with no temporary
        np.multiply.outer(n * n, np.asarray(t, dtype=float).reshape(-1), out=T.imag)
        T.imag *= -0.5 * np.pi ** 2
        np.multiply(T.imag, 0.0, out=T.real)  # so that a NaN t gives NaN + NaN i: exp is quiet
        return X, np.exp(T, out=T)

    def _pointwise(self, x, t, dx: bool) -> np.ndarray:
        x, t = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                   np.atleast_1d(np.asarray(t, dtype=float)))
        X, T = self.factors(x.reshape(-1), t.reshape(-1), dx)
        return mode_sum(X, T.T).reshape(x.shape)

    def value(self, x, t):
        return self._pointwise(x, t, dx=False)

    def dx(self, x, t):
        return self._pointwise(x, t, dx=True)
