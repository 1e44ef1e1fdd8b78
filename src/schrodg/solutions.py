"""Closed-form reference solutions with exact derivative oracles.

Both families solve i psi_t + (1/2) psi_xx = 0 exactly:

* ``ExpSolution``: psi(x, t) = exp(kappa x + i kappa^2 t / 2), whose
  derivatives are D^(jx, jt) psi = kappa^jx (i kappa^2 / 2)^jt psi.
* ``SquareWellSeries``: the sine eigenfunction expansion of the parabolic
  initial profile sqrt(30) x (1 - x) on (0, 1) with homogeneous Dirichlet
  data, truncated to a fixed number of odd modes.

The series is a sum of m products X(x) T(t), one per mode: ``x_table(x, dx=False)``
returns the table X (len(x), m), or its x-derivative, and ``t_table(t)`` the table T
(m, len(t)).  Its value and dx tabulate X over the entries of x and T over those of
t, and take each point's sum as one dot (`mode_sum`), broadcast over the points'
shapes: a point's value does not depend on the other points of the call.  Both tables
group the modes in J blocks of B = ceil(sqrt(m)).  T takes about 3 sqrt(m)
exponentials per time, not m, by a recurrence over the blocks
(`SquareWellSeries.t_table`); every step of it is elementwise in time.  X takes one
sine and one cosine of B + J angles per point, 2 (B + J) values (64 for 250 modes)
instead of m sines, by the angle-sum formula per block (`SquareWellSeries.x_table`).
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
        z = self.kappa * np.asarray(x) + 0.5j * (self.kappa * self.kappa) * np.asarray(t)
        return np.exp(z, out=z if np.ndim(z) else None)  # in place: one array of the points

    def dx(self, x, t):
        return self.kappa * self.value(x, t)

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
    """sum_m X[..., m] Tt[..., m] over the broadcast leading axes, for a real X contiguous
    in m and a complex Tt (rows of T.T).  Each entry is one BLAS dot of two contiguous
    vectors per part, whatever else the call computes."""
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

    def x_table(self, x, dx: bool = False) -> np.ndarray:
        """X = a_m sin(n_m pi x) (len(x), n_trunc), or its x-derivative a_m n_m pi
        cos(n_m pi x), where n_m = 2m + 1 and a_m = sqrt(30) (2/pi)^3 / n_m^3.

        X is built in T's blocks: mode m = jB + k has n_m pi x = o_k pi x + 2Bj pi x, so
        sin(n_m pi x) = sin(o_k pi x) cos(2Bj pi x) + cos(o_k pi x) sin(2Bj pi x), and
        cos(n_m pi x) = cos cos - sin sin.  That is one sine and one cosine of B + J
        angles per point (64 values for 250 modes, not 250 sines), combined per point as
        one (J, 2) @ (2, B) product: a row of X depends on its own x alone."""
        n = 2.0 * np.arange(self.n_trunc) + 1.0
        amp = SQUARE_WELL_AMPLITUDE * (2.0 / math.pi) ** 3 / n ** 3
        b = math.isqrt(self.n_trunc - 1) + 1
        blocks = -(-self.n_trunc // b)
        arg = np.outer(x, np.pi * np.concatenate((n[:b], 2.0 * b * np.arange(blocks))))
        sc = np.stack((np.sin(arg), np.cos(arg)), axis=1)  # (len(x), 2, B + J)
        # [cos q_j, sin q_j] (J, 2) @ [sin o_k; cos o_k], or [cos o_k; -sin o_k] for dx
        left = sc[:, ::-1, b:].transpose(0, 2, 1)
        right = sc[:, ::-1, :b] * [[1.0], [-1.0]] if dx else sc[:, :, :b]
        X = np.matmul(left, right).reshape(len(arg), -1)[:, :self.n_trunc]
        X *= amp * (np.pi * n) if dx else amp  # in place: X is the largest table
        return X

    def t_table(self, t) -> np.ndarray:
        """T = exp(-i n_m^2 theta) (n_trunc, len(t)), theta = pi^2 t / 2.

        T is built in J blocks of B = ceil(sqrt(n_trunc)) modes: mode m = jB + k has
        n_m = 2Bj + o_k, o_k = 2k + 1, so n_m^2 = o_k^2 + 4B o_k j + (2Bj)^2 and
        T[m] = P_k D_k^j Q_j with P_k = exp(-i o_k^2 theta), D_k = exp(-i 4B o_k theta)
        and Q_j = exp(-i (2Bj)^2 theta): 2B + J exponentials per time (48 for 250
        modes) and, per block, one product by D and one by Q.  Each exponent is an
        exact integer times t times -pi^2/2, so, as with one exponential per mode,
        T's error is that of rounding its phase, about (1 + n_m^2 theta) eps."""
        t = np.asarray(t, dtype=float).reshape(-1)
        b = math.isqrt(self.n_trunc - 1) + 1
        blocks = -(-self.n_trunc // b)
        o, q = 2.0 * np.arange(b) + 1.0, 2.0 * b * np.arange(blocks)
        E = np.empty((2 * b + blocks, t.size), dtype=complex)  # P, D, Q
        np.multiply.outer(np.concatenate((o * o, 4.0 * b * o, q * q)), t, out=E.imag)
        E.imag *= -0.5 * np.pi ** 2
        np.multiply(E.imag, 0.0, out=E.real)  # so that a NaN t gives NaN + NaN i: exp is quiet
        np.exp(E, out=E)
        P, D, Q = E[:b], E[b:2 * b], E[2 * b:]
        T = np.empty((blocks, b, t.size), dtype=complex)
        T[0] = P
        for j in range(1, blocks):
            np.multiply(T[j - 1], D, out=T[j])
        T *= Q[:, None]
        return T.reshape(blocks * b, t.size)[:self.n_trunc]

    def _pointwise(self, x, t, dx: bool) -> np.ndarray:
        """The sum at the points of x and t broadcast: X over x's own entries, T over t's."""
        x, t = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(t, dtype=float))
        X = self.x_table(x.reshape(-1), dx).reshape(*x.shape, self.n_trunc)
        return mode_sum(X, self.t_table(t.reshape(-1)).T.reshape(*t.shape, self.n_trunc))

    def value(self, x, t):
        return self._pointwise(x, t, dx=False)

    def dx(self, x, t):
        return self._pointwise(x, t, dx=True)
