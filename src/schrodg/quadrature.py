"""Gauss-Legendre quadrature on intervals and tensor rules on rectangles.

`reference_rule(n, place)` is the Gauss rule on a named place of the reference
element (-1/2, 1/2)^2, an element with its size h = (h_x, h_t) divided out: its
"top", "bottom", "left" or "right" side, or its "volume".  `Mesh.rule` scales it by h.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_NODES = 64


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule, read-only: nodes in (-1, 1) and positive weights
    summing to 2."""
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count {n} outside [1, {MAX_NODES}]")
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def reference_rule(n: int, place: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss rule on ``place`` of the reference element (-1/2, 1/2)^2, read-only:
    offsets x, t from its centre, in units of h_x and h_t, and weights w, in units of h_x
    on the top and bottom, h_t on the left and right and h_x h_t over the volume (the
    tensor rule, x-major).  Each is one row (1, n), or (1, n * n) over the volume; every
    offset is xi / 2 or +-1/2 for a Gauss node xi, exact in binary."""
    nodes, weights = gauss_legendre(n)
    x = t = 0.5 * nodes
    w = 0.5 * weights
    if place == "volume":
        x, t, w = np.repeat(x, n), np.tile(t, n), np.outer(w, w).reshape(-1)
    elif place in ("top", "bottom"):
        t = np.full(n, 0.5 if place == "top" else -0.5)
    elif place in ("left", "right"):
        x = np.full(n, 0.5 if place == "right" else -0.5)
    else:
        raise ValueError(f"unknown place {place!r}")
    out = x[None], t[None], w[None]
    for a in out:
        a.flags.writeable = False
    return out


def mapped_interval(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule mapped affinely to (lo, hi): points and weights (n,)."""
    pts, wts = mapped_intervals(np.array([lo]), np.array([hi]), n)
    return pts[0], wts[0]


def mapped_intervals(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule of `mapped_interval` on many intervals at once: points and weights (m, n)."""
    nodes, weights = gauss_legendre(n)
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * nodes, half * weights


def box_rule(ranges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule on a d-dimensional box; returns points (nq, d) and weights."""
    axes = [mapped_interval(lo, hi, n) for lo, hi in ranges]
    pts, wts = (np.stack(np.meshgrid(*part, indexing="ij"), axis=-1).reshape(-1, len(axes))
                for part in zip(*axes))
    return pts, np.prod(wts, axis=1)


def rect_rule(x_range: tuple[float, float], t_range: tuple[float, float], n: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`box_rule` on a rectangle, flattened to (xg, tg, wg)."""
    pts, wg = box_rule((x_range, t_range), n)
    return pts[:, 0], pts[:, 1], wg


def poly_rule_size(p: int) -> int:
    """Nodes for polynomial x polynomial facet integrands of degree <= 4p."""
    return 2 * p + 2


def data_rule_size(p: int) -> int:
    """Oversampled rule for integrands involving exponentials."""
    return max(20, 2 * p + 2)
