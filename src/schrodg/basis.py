"""Per-element discrete spaces for the free Schrodinger operator.

Four families are supported:

* ``trefftz``: polynomials of degree <= 2p that lie exactly in the kernel
  of i d/dt + (1/2) Delta_x.  Each basis function is seeded by a spatial
  polynomial m(x) at the element-center time and completed upward in j_t by
  the coefficient recurrence

      C[jx, jt+1] = i h_t / (2 (jt+1) h_x^2)
                    * sum_l (jx_l + 1)(jx_l + 2) C[jx + 2 e_l, jt]

  (zero once |jx| > 2p - 2), which cancels the operator exactly.
* ``quasi-trefftz``: degree-p polynomials whose operator image has a zero
  of order p - 2 at the element center (d = 1 only).
* ``full``: all scaled monomials of total degree <= p.
* ``planewave``: exp(i (k (x - x_K) - k^2 (t - t_K) / 2)) with 2p + 1
  equispaced wavenumbers k = -2p, -2p + 2, ..., 2p (d = 1 only).

Every family is centered at the element center (x_K, t_K), so all elements
of one size carry the same basis, only translated.  `element_basis` builds
the basis of any family on a d = 1 element; `trefftz_basis(d, ...)` builds
the Trefftz family in any space dimension d.  `MeshBasis` evaluates the basis
of a mesh's elements, which share the one size `Mesh.h`, from one
`coefficient_table`: `MeshBasis.table(n, place)` is the read-only trace table of
the rule at a named place of the element (`Mesh.rule`), and
`MeshBasis.evaluate` evaluates at any offsets from the centres, in one array
call.  Every evaluation goes through `poly.scaled_monomials` or the one wave
formula.  The scaled monomials at a place's rule do not depend on the element
size: a polynomial family's trace tables contract one table of them, evaluated
once per process at the reference rule (`quadrature.reference_rule`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .poly import (MultiIndex, ScaledPolynomial, _normalize_center, apply_schrodinger, dense_terms,
                   eval_poly_many, mi, scaled_monomials, space_multi_indices)
from .quadrature import reference_rule

FAMILIES = ("trefftz", "quasi-trefftz", "full", "planewave")


@dataclass(frozen=True)
class SpaceKind:
    """Tagged choice of the local discrete space."""

    family: str
    p: int
    seed_choice: str = "a"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if self.family in ("quasi-trefftz", "planewave") and self.p < 1:
            raise ValueError(f"{self.family} requires p >= 1")
        if self.seed_choice not in ("a", "b"):
            raise ValueError("seed_choice must be 'a' or 'b'")

    @classmethod
    def trefftz(cls, p: int, seed_choice: str = "a") -> "SpaceKind":
        return cls("trefftz", p, seed_choice)

    @classmethod
    def quasi_trefftz(cls, p: int) -> "SpaceKind":
        return cls("quasi-trefftz", p)

    @classmethod
    def full_poly(cls, p: int) -> "SpaceKind":
        return cls("full", p)

    @classmethod
    def plane_wave(cls, p: int) -> "SpaceKind":
        return cls("planewave", p)

    @property
    def needs_volume_term(self) -> bool:
        """Whether members miss the operator kernel (trefftz and plane waves lie in it)."""
        return self.family not in ("trefftz", "planewave")

    def dim(self, d: int = 1) -> int:
        if d != 1:
            raise ValueError(f"{self.family} space dimension is defined for d = 1 only")
        return (self.p + 1) * (self.p + 2) // 2 if self.family == "full" else 2 * self.p + 1


@dataclass(frozen=True)
class Wave:
    """exp(i (k (x - x_K) - k^2 (t - t_K) / 2)) about the element center (x_K, t_K)."""

    k: float
    center: tuple[float, float]


BasisFunction = Union[ScaledPolynomial, Wave]


@dataclass(frozen=True)
class ElementBasis:
    kind: SpaceKind
    functions: tuple[BasisFunction, ...]

    @property
    def dim(self) -> int:
        return len(self.functions)


def _wave(k, X, T, ax: int = 0, at: int = 0) -> np.ndarray:
    """D^(ax, at) exp(i (k x - k^2 t / 2)) at the points X, T."""
    vals = np.exp(1j * (k * X - 0.5 * k * k * T))
    if ax:
        vals *= (1j * k) ** ax
    if at:
        vals *= (-0.5j * k * k) ** at
    return vals


def eval_basis_many(b: BasisFunction, xs, ts, deriv: MultiIndex | None = None) -> np.ndarray:
    """Vectorized D^deriv b at points (order <= 2 for wave functions)."""
    if isinstance(b, Wave):
        ax, at = (0, 0) if deriv is None else (sum(deriv.jx), deriv.jt)
        if ax + at > 2:
            raise ValueError("wave derivatives supported up to total order 2")
        xs, ts = np.atleast_1d(xs, ts)
        return _wave(b.k, xs - b.center[0], ts - b.center[1], ax, at)
    return eval_poly_many(b, xs, ts, deriv)


def _propagate_trefftz(seed: dict[tuple[int, ...], complex], d: int, p: int,
                       hx: float, ht: float) -> dict[MultiIndex, complex]:
    """Complete a spatial seed (coefficients at j_t = 0) to a kernel polynomial."""
    coeffs: dict[MultiIndex, complex] = {mi(jx, 0): c for jx, c in seed.items() if c != 0}
    level = {jx: c for jx, c in seed.items() if c != 0}
    for jt in range(2 * p):
        fac = ht / (2.0 * (jt + 1) * hx * hx)
        nxt: dict[tuple[int, ...], complex] = {}
        for jx, c in sorted(level.items()):
            for ell in range(d):
                e = jx[ell]
                if e >= 2:
                    tgt = jx[:ell] + (e - 2,) + jx[ell + 1:]
                    nxt[tgt] = nxt.get(tgt, 0.0) + 1j * fac * (e - 1) * e * c
        level = {jx: c for jx, c in nxt.items() if c != 0}
        if not level:
            break
        for jx, c in level.items():
            coeffs[mi(jx, jt + 1)] = c
    return coeffs


def _trefftz_seeds(d: int, p: int, hx: float, seed_choice: str
                   ) -> list[dict[tuple[int, ...], complex]]:
    if d == 1:
        # Exponents e = 0..2p.  Choice "a" seeds the plain scaled monomial
        # ((x - x_K)/h_x)^e; choice "b" seeds (x - x_K)^e / h_x^ceil(e/2),
        # whose recurrence completion keeps every function O(1) on the
        # element and tames the matrix conditioning.
        seeds = []
        for e in range(2 * p + 1):
            if seed_choice == "a":
                coeff = 1.0
            else:
                coeff = hx ** (e - math.ceil(e / 2))
            seeds.append({(e,): complex(coeff)})
        return seeds
    if seed_choice != "a":
        raise ValueError("seed choice 'b' is defined for d = 1 only")
    return [{jx: 1.0 + 0.0j} for jx in space_multi_indices(d, 2 * p)]


@lru_cache(maxsize=None)
def _trefftz_local_coeffs(d: int, p: int, hx: float, ht: float, seed_choice: str
                          ) -> tuple[dict, ...]:
    return tuple(_propagate_trefftz(seed, d, p, hx, ht)
                 for seed in _trefftz_seeds(d, p, hx, seed_choice))


def trefftz_basis(d: int, p: int, center, scales, seed_choice: str = "a") -> ElementBasis:
    """Kernel polynomials of degree <= 2p; dimension C(2p + d, d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    hx, ht = float(scales[0]), float(scales[1])
    funcs = [
        ScaledPolynomial.from_terms(coeffs, center=center, scales=(hx, ht), d=d,
                                    degree_bound=2 * p)
        for coeffs in _trefftz_local_coeffs(d, p, hx, ht, seed_choice)
    ]
    return ElementBasis(SpaceKind.trefftz(p, seed_choice), tuple(funcs))


@lru_cache(maxsize=None)
def _quasi_trefftz_local_coeffs(p: int, hx: float, ht: float) -> tuple[dict, ...]:
    # Free coefficients: (jx, 0) for jx <= p, plus (p - jt, jt) for jt >= 1.
    # The rest follow from requiring the operator image to vanish to order
    # p - 2 at the center:
    #   C[jx, jt+1] = i h_t (jx+1)(jx+2) / (2 (jt+1) h_x^2) C[jx+2, jt]
    # for jx + jt <= p - 2.
    free = [(jx, 0) for jx in range(p + 1)] + [(p - jt, jt) for jt in range(1, p + 1)]
    out = []
    for f in free:
        c: dict[tuple[int, int], complex] = {f: 1.0 + 0.0j}
        for jt in range(p - 1):
            for jx in range(p - 1 - jt):
                src = c.get((jx + 2, jt), 0.0)
                val = 1j * ht * (jx + 1) * (jx + 2) / (2.0 * (jt + 1) * hx * hx) * src
                if val != 0:
                    c[(jx, jt + 1)] = val
        out.append({mi(jx, jt): v for (jx, jt), v in c.items()})
    return tuple(out)


def element_basis(kind: SpaceKind, center, scales) -> ElementBasis:
    """The local basis of ``kind`` on a d = 1 element of size ``scales`` about ``center``.

    Plane waves do not scale; every other family is in scaled monomials.
    """
    p = kind.p
    if kind.family == "trefftz":
        return trefftz_basis(1, p, center, scales, kind.seed_choice)
    if kind.family == "planewave":
        z, s = _normalize_center(center, 1)
        return ElementBasis(kind, tuple(Wave(-2.0 * p + 2.0 * ell, (z[0], s))
                                        for ell in range(2 * p + 1)))
    hx, ht = float(scales[0]), float(scales[1])
    terms = (_quasi_trefftz_local_coeffs(p, hx, ht) if kind.family == "quasi-trefftz" else
             [{mi(jx, jt): 1.0} for jx in range(p + 1) for jt in range(p - jx + 1)])  # full
    return ElementBasis(kind, tuple(ScaledPolynomial.from_terms(c, center=center, scales=(hx, ht),
                                                                d=1, degree_bound=p)
                                    for c in terms))


@lru_cache(maxsize=None)
def coefficient_table(kind: SpaceKind, hx: float, ht: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense form of a family's local basis on elements of size (hx, ht).

    Returns the local functions: the exponents (jx, jt) of the scaled
    monomials in use, (n_local, 2), or the wavenumbers of the plane waves.
    Then the basis coefficients in them, (dim, n_local), the identity for
    plane waves, and those of the basis' image under
    i d/dt + (1/2) d^2/dx^2, same shape: zero for plane waves, which lie in
    the kernel.  The table does not depend on the element center.
    """
    funcs = element_basis(kind, (0.0, 0.0), (hx, ht)).functions
    if kind.family == "planewave":
        out = (np.array([f.k for f in funcs]), np.eye(len(funcs), dtype=complex),
               np.zeros((len(funcs),) * 2, dtype=complex))
    else:
        exps, coeffs = dense_terms([*funcs, *(apply_schrodinger(f) for f in funcs)])
        out = (exps, coeffs[:len(funcs)], coeffs[len(funcs):])
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _reference_monomials(exps: tuple[tuple[int, int], ...], n: int, place: str, dx: bool
                         ) -> np.ndarray:
    """The scaled monomials of ``exps`` (their derivatives in the scaled x with ``dx``) at
    the reference rule `reference_rule(n, place)`, (1, n_local, nq), read-only.  They are
    the monomials at `Mesh.rule(n, place)` on elements of every size."""
    x, t, _ = reference_rule(n, place)
    fun = scaled_monomials(np.array(exps), (x, t), mi(1, 0) if dx else None).swapaxes(0, -2)
    fun.flags.writeable = False
    return fun


class MeshBasis:
    """The local basis of every element of a mesh, evaluated a batch at a time.

    Every element has the mesh's one size `Mesh.h`, so the basis is one
    `coefficient_table`, the same at every centre.  `table(n, place)` holds it at the
    n-point rule on an element's side or volume, `Mesh.rule(n, place)`: evaluated once
    per basis and read-only.
    `evaluate` takes any offsets ``x``, ``t`` from element centres that broadcast to
    (nF, nq), row f on one element, and keeps nothing.  Both return basis values alone,
    for the caller to contract; a result equal for every element keeps its leading 1.
    """

    def __init__(self, mesh, kind: SpaceKind):
        self.kind = kind
        self.dim = kind.dim(1)
        self.mesh, self.center, self.h = mesh, mesh.centers, mesh.h
        self._local, *self._coeffs = coefficient_table(kind, *mesh.h)  # value and image
        self._tables = {}  # (n, place, dx, image) -> a trace table

    def table(self, n: int, place: str, dx: bool = False, image: bool = False) -> np.ndarray:
        """`evaluate` at the rule `Mesh.rule(n, place)`, (1, dim, nq), read-only.  A
        polynomial family contracts its monomials at the reference rule, which every size
        shares; plane waves are evaluated at the mesh's offsets.  The image table is
        built only when it is asked for."""
        key = (n, place, dx, image)
        if key not in self._tables:
            if self.kind.family == "planewave":
                fun = self._monomials(*self.mesh.rule(n, place)[:2], dx)
            else:
                fun = _reference_monomials(tuple(map(tuple, self._local.tolist())), n, place, dx)
                if dx:
                    fun = fun / self.h[0]
            self._tables[key] = self._coeffs[image] @ fun
            self._tables[key].flags.writeable = False
        return self._tables[key]

    def evaluate(self, x, t, dx=False, image=False) -> np.ndarray:
        """Every basis function at the offsets of row f, (nF, dim, nq): its x-derivative
        with ``dx``, its image under i d/dt + (1/2) d^2/dx^2 (0 for plane waves) with ``image``."""
        return self._coeffs[image] @ self._monomials(x, t, dx)

    def _monomials(self, x, t, dx: bool) -> np.ndarray:
        """The local functions (or their x-derivatives) at the offsets, (nF, n_local, nq)."""
        hx, ht = self.h
        if self.kind.family == "planewave":
            fun = _wave(self._local[:, None, None], x, t, ax=int(dx))
        else:
            fun = scaled_monomials(self._local, (x / hx, t / ht), mi(1, 0) if dx else None)
            if dx:
                fun /= hx
        return fun.swapaxes(0, -2)
