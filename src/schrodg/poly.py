"""Sparse complex polynomial arithmetic over scaled space-time monomials.

A polynomial carries a center ``(z, s)`` and scales ``(h_x, h_t)`` and
evaluates as

    p(x, t) = sum_j C_j * ((x - z) / h_x)**j_x * ((t - s) / h_t)**j_t

with complex coefficients stored sparsely by space-time multi-index
``j = (j_x, j_t)``.  Arithmetic works on these sparse maps: the operator
``i d/dt + (1/2) Delta_x`` is applied directly on them, so membership in its
kernel is checked exactly from coefficients.  Evaluation works on the dense
term table of `dense_terms`, contracted with the kernel `scaled_monomials`.

All objects are immutable values; operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

# A space-time point (x, t); x is a float for d = 1, else a length-d sequence.
Point = tuple


class MultiIndex(NamedTuple):
    """Space-time monomial / derivative index."""

    jx: tuple[int, ...]
    jt: int

    @property
    def order(self) -> int:
        return sum(self.jx) + self.jt


def mi(jx: int | Sequence[int], jt: int) -> MultiIndex:
    """Build a MultiIndex, accepting a bare int for the d = 1 spatial part."""
    if isinstance(jx, (int, np.integer)):
        jx = (int(jx),)
    return MultiIndex(tuple(int(e) for e in jx), int(jt))


# Supplies D^j(phi) at a point; mixed partials must commute.
DerivativeOracle = Callable[[MultiIndex, Point], complex]


def space_multi_indices(d: int, max_deg: int) -> list[tuple[int, ...]]:
    """All spatial multi-indices with |j_x| <= max_deg, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], budget: int) -> None:
        if len(prefix) == d:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), budget - e)

    rec((), max_deg)
    return sorted(out)


def _normalize_center(center, d: int) -> tuple[tuple[float, ...], float]:
    z, s = center
    if isinstance(z, (int, float, np.floating)):
        z = (float(z),)
    else:
        z = tuple(float(v) for v in z)
    if len(z) != d:
        raise ValueError(f"center has {len(z)} spatial components, expected {d}")
    return z, float(s)


@dataclass(frozen=True)
class ScaledPolynomial:
    """Complex polynomial in scaled monomials centered at (z, s)."""

    d: int
    center: tuple[tuple[float, ...], float]
    scales: tuple[float, float]
    coeffs: Mapping[MultiIndex, complex]
    degree_bound: int

    def __post_init__(self):
        hx, ht = self.scales
        if hx <= 0.0 or ht <= 0.0:
            raise ValueError("scales must be positive")
        for j in self.coeffs:
            if len(j.jx) != self.d:
                raise ValueError(f"multi-index {j} does not match dimension {self.d}")
            if j.order > self.degree_bound:
                raise ValueError(f"index {j} exceeds degree bound {self.degree_bound}")

    @classmethod
    def from_terms(cls, terms, center=(0.0, 0.0), scales=(1.0, 1.0), d=1, degree_bound=None):
        """Build from a mapping {(jx, jt): coeff}; exact zeros are dropped."""
        coeffs: dict[MultiIndex, complex] = {}
        for key, c in terms.items():
            j = mi(*key) if not isinstance(key, MultiIndex) else key
            if len(j.jx) != d:
                raise ValueError(f"index {j} does not match dimension {d}")
            if c != 0:
                coeffs[j] = complex(c)
        if degree_bound is None:
            degree_bound = max((j.order for j in coeffs), default=0)
        return cls(d, _normalize_center(center, d), (float(scales[0]), float(scales[1])),
                   coeffs, degree_bound)

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def sorted_terms(self) -> list[tuple[MultiIndex, complex]]:
        return sorted(self.coeffs.items())

    def time_slice_coeffs(self) -> dict[tuple[int, ...], complex]:
        """Coefficients of the restriction to t = s (terms with j_t = 0)."""
        return {j.jx: c for j, c in self.coeffs.items() if j.jt == 0}

    def to_json_dict(self) -> dict:
        z, s = self.center
        return {
            "d": self.d,
            "center": [list(z), s],
            "scales": list(self.scales),
            "degree_bound": self.degree_bound,
            "coeffs": [[list(j.jx), j.jt, c.real, c.imag] for j, c in self.sorted_terms()],
        }


def dense_terms(polys: Sequence[ScaledPolynomial]) -> tuple[np.ndarray, np.ndarray]:
    """The dense term table of polynomials of one dimension d.

    Returns the exponents (j_x, j_t) of every monomial any of them uses, in
    sorted order, shape (n_terms, d + 1), and the coefficients, shape
    (len(polys), n_terms), zero where a polynomial lacks the term.
    """
    exps = sorted({(*j.jx, j.jt) for p in polys for j in p.coeffs})
    column = {e: k for k, e in enumerate(exps)}
    coeffs = np.zeros((len(polys), len(exps)), dtype=complex)
    for row, p in enumerate(polys):
        for j, c in p.coeffs.items():
            coeffs[row, column[(*j.jx, j.jt)]] = c
    return np.array(exps, dtype=np.intp).reshape(-1, polys[0].d + 1), coeffs


def _pow_table(v: np.ndarray, max_deg: int) -> np.ndarray:
    out = np.empty((max_deg + 1,) + v.shape, dtype=v.dtype)
    out[0] = 1.0
    for e in range(1, max_deg + 1):
        out[e] = out[e - 1] * v
    return out


def scaled_monomials(exps: np.ndarray, coords, deriv: MultiIndex | None = None
                     ) -> np.ndarray:
    """D^deriv of xi_1**j_1 ... xi_d**j_d * tau**j_t for every row of ``exps``.

    ``coords`` are the d + 1 scaled coordinates (xi_1, ..., xi_d, tau), arrays
    that broadcast together; the result has shape (len(exps),) + their broadcast
    shape.  Derivatives are in the scaled coordinates: the caller divides by
    h_x**|a_x| * h_t**a_t.  Powers come from tables of cumulative products, each
    of its coordinate's own shape, time multiplied first.
    """
    a = (0,) * exps.shape[1] if deriv is None else (*deriv.jx, deriv.jt)
    out = None
    for ell in (-1, *range(len(coords) - 1)):
        e, k, v = exps[:, ell], a[ell], coords[ell]
        pw = _pow_table(v, max(int(e.max(initial=0)) - k, 0))[np.maximum(e - k, 0) if k else e]
        if k:  # times e (e - 1) ... (e - k + 1), zero where e < k
            fac = e
            for i in range(1, k):
                fac = fac * (e - i)
            pw = fac.reshape((-1,) + (1,) * v.ndim) * pw
        out = pw if out is None else out * pw
    return out


def eval_poly_many(p: ScaledPolynomial, xs, ts, deriv: MultiIndex | None = None) -> np.ndarray:
    """Vectorized D^deriv p at points; xs is (n,) for d = 1, (n, d) otherwise."""
    z, s = p.center
    hx, ht = p.scales
    X = np.asarray(xs, dtype=float)
    X = np.atleast_2d(X) if p.d > 1 else np.atleast_1d(X)[..., None]
    coords = [(X[..., ell] - z[ell]) / hx for ell in range(p.d)]
    coords = np.broadcast_arrays(*coords, (np.asarray(ts, dtype=float) - s) / ht)
    exps, coeffs = dense_terms([p])
    if deriv is not None:
        coeffs = coeffs * (hx ** (-sum(deriv.jx)) * ht ** (-deriv.jt))
    return np.tensordot(coeffs[0], scaled_monomials(exps, coords, deriv), 1)


def apply_schrodinger(p: ScaledPolynomial) -> ScaledPolynomial:
    """Coefficients of i d/dt p + (1/2) Delta_x p, in the same scaled basis."""
    hx, ht = p.scales
    out: dict[MultiIndex, complex] = {}
    for j, c in p.coeffs.items():
        if j.jt >= 1:
            key = MultiIndex(j.jx, j.jt - 1)
            out[key] = out.get(key, 0.0) + 1j * j.jt * c / ht
        for ell in range(p.d):
            e = j.jx[ell]
            if e >= 2:
                kx = j.jx[:ell] + (e - 2,) + j.jx[ell + 1:]
                key = MultiIndex(kx, j.jt)
                out[key] = out.get(key, 0.0) + 0.5 * e * (e - 1) * c / (hx * hx)
    out = {j: c for j, c in out.items() if c != 0}
    bound = max((j.order for j in out), default=0)
    return ScaledPolynomial(p.d, p.center, p.scales, out, bound)


def poly_combination(polys: Sequence[ScaledPolynomial], weights) -> ScaledPolynomial:
    """Weighted sum of polynomials sharing center, scales and dimension."""
    if not polys:
        raise ValueError("empty combination")
    ref = polys[0]
    out: dict[MultiIndex, complex] = {}
    bound = 0
    for p, w in zip(polys, weights):
        if p.d != ref.d or p.center != ref.center or p.scales != ref.scales:
            raise ValueError("polynomials are not expressed in a common scaled basis")
        bound = max(bound, p.degree_bound)
        if w == 0:
            continue
        for j, c in p.coeffs.items():
            out[j] = out.get(j, 0.0) + w * c
    out = {j: c for j, c in out.items() if c != 0}
    return ScaledPolynomial(ref.d, ref.center, ref.scales, out, bound)


def _taylor_coeff(oracle: DerivativeOracle, j: MultiIndex, z, s, hx, ht, d) -> complex:
    point = (z[0] if d == 1 else z, s)
    val = complex(oracle(j, point))
    fact = math.prod(math.factorial(e) for e in j.jx) * math.factorial(j.jt)
    return val * hx ** sum(j.jx) * ht ** j.jt / fact


def _taylor(oracle: DerivativeOracle, indices, center, scales, d: int, bound: int
            ) -> ScaledPolynomial:
    """The polynomial with the Taylor coefficients of ``indices`` (zeros dropped)."""
    z, s = _normalize_center(center, d)
    hx, ht = float(scales[0]), float(scales[1])
    terms = {j: c for j in indices if (c := _taylor_coeff(oracle, j, z, s, hx, ht, d)) != 0}
    return ScaledPolynomial(d, (z, s), (hx, ht), terms, bound)


def taylor_poly(oracle: DerivativeOracle, order: int, center, scales, d: int = 1
                ) -> ScaledPolynomial:
    """Taylor polynomial of order m (degree m - 1) about the center."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _taylor(oracle, [MultiIndex(jx, jt) for jx in space_multi_indices(d, order - 1)
                            for jt in range(order - sum(jx))], center, scales, d, order - 1)


def extended_taylor_poly(oracle: DerivativeOracle, p: int, center, scales, d: int = 1
                         ) -> ScaledPolynomial:
    """Degree-2p Taylor-type polynomial over the anisotropic index set.

    Uses every index with 2*j_t + |j_x| <= 2p, which is the order-(p+1)
    Taylor set plus the extra terms with p + 1 <= |j|.  For solutions of
    i d/dt + (1/2) Delta_x the result lies in the operator kernel.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    return _taylor(oracle, [MultiIndex(jx, jt) for jx in space_multi_indices(d, 2 * p)
                            for jt in range((2 * p - sum(jx)) // 2 + 1)], center, scales, d, 2 * p)
