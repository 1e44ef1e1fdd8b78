"""Closed-form reference solutions with exact derivative oracles.

Both families solve i psi_t + (1/2) psi_xx = 0 exactly:

* ``ExpSolution``: psi(x, t) = exp(kappa x + i kappa^2 t / 2), whose
  derivatives are D^(jx, jt) psi = kappa^jx (i kappa^2 / 2)^jt psi.
* ``SquareWellSeries``: the sine eigenfunction expansion of the parabolic
  initial profile sqrt(30) x (1 - x) on (0, 1) with homogeneous Dirichlet
  data, truncated to a fixed number of odd modes.

The series factors each call's points into blocks of SERIES_BLOCK distinct
t.  In a block it evaluates the time phase once per distinct t and sin/cos
once per distinct x of the block's points, and sums the modes by one matrix
product per SERIES_BLOCK of those x.  A facet row of a tensor mesh (one t on
a space-like row, the slab's t nodes on time-like rows) is a tensor grid of
at most SERIES_BLOCK t, so it is one block and costs one sin/cos per distinct
x; scattered points cost one sin/cos and one exp per (point, mode) pair.
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

    def value(self, x, t):
        return np.exp(self.kappa * np.asarray(x) + 0.5j * self.kappa ** 2 * np.asarray(t))

    def dx(self, x, t):
        return self.kappa * self.value(x, t)

    def derivative(self, j: MultiIndex, point) -> complex:
        x, t = point
        return complex(self.kappa ** j.jx[0] * (0.5j * self.kappa ** 2) ** j.jt
                       * np.exp(self.kappa * x + 0.5j * self.kappa ** 2 * t))


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


SQUARE_WELL_AMPLITUDE = math.sqrt(30.0)
# Distinct coordinates per block of SquareWellSeries: a sin/cos or phase temporary
# holds at most 32 x 250 modes x 16 B = 128 kB, whatever the number of points, and
# a block's table of sums is its distinct x by at most 32 t.
SERIES_BLOCK = 32


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

    def _modes(self) -> np.ndarray:
        return 2.0 * np.arange(self.n_trunc) + 1.0

    def _sum(self, x, t, dx: bool) -> np.ndarray:
        x, t = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                   np.atleast_1d(np.asarray(t, dtype=float)))
        n = self._modes()
        amp = SQUARE_WELL_AMPLITUDE * (2.0 / math.pi) ** 3 / n ** 3
        if dx:
            amp = amp * (np.pi * n)
        wave = np.cos if dx else np.sin
        xf, tf = x.reshape(-1), t.reshape(-1)
        tu, it = np.unique(tf, return_inverse=True)
        by_t = np.argsort(it, kind="stable")  # the points, in blocks of distinct t
        cuts = np.searchsorted(it[by_t], np.arange(0, tu.size + SERIES_BLOCK, SERIES_BLOCK))
        out = np.empty(xf.shape, dtype=complex)
        for k, j in enumerate(range(0, tu.size, SERIES_BLOCK)):
            pts = by_t[cuts[k]:cuts[k + 1]]
            phase = amp[:, None] * np.exp(-0.5j * np.pi ** 2
                                          * np.outer(n * n, tu[j:j + SERIES_BLOCK]))
            xu, ix = np.unique(xf[pts], return_inverse=True)
            grid = np.empty((xu.size, phase.shape[1]), dtype=complex)
            for i in range(0, xu.size, SERIES_BLOCK):
                grid[i:i + SERIES_BLOCK] = wave(np.pi * np.outer(xu[i:i + SERIES_BLOCK], n)) @ phase
            out[pts] = grid[ix, it[pts] - j]
        return out.reshape(x.shape)

    def value(self, x, t):
        return self._sum(x, t, dx=False)

    def dx(self, x, t):
        return self._sum(x, t, dx=True)
