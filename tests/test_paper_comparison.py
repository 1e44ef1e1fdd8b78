"""The paper's comparison, on `run_conv_h`'s smooth exponential (kappa = 5), levels 0..4
(h = 0.1 * 2^-j, meshes of 10^2 to 160^2 elements).

Trefftz polynomials of anisotropic degree p, of dimension 2p + 1 in d = 1, reach the
h-convergence rates of full polynomials of degree p in (x, t), of dimension
(p + 1)(p + 2)/2, with a smaller DG error at equal h (arXiv 2306.09571; Gomez and
Moiola, SIAM J. Numer. Anal. 60(2), 2022).  Trefftz seed choices a and b span the same
space (b rescales each of a's functions by a power of h_x), so their Galerkin solutions
are one function, and their DG errors agree up to the conditioning of seed a.
"""

import functools

import pytest

from schrodg.basis import SpaceKind
from schrodg.experiments import ExperimentConfig, run_conv_h

LEVELS = 5

# |dg_error(a) - dg_error(b)| / dg_error(a) per level, about ten times the largest seen
# with one or two BLAS threads (p1: 0 to 4.8e-16; p2: 6.1e-16 to 1.5e-13; p3: 5.0e-15
# to 1.4e-11, growing with seed a's conditioning)
SEED_RTOL = {1: (1e-15, 1e-15, 1e-15, 2e-15, 5e-15),
             2: (1e-14, 2e-14, 6e-14, 4e-13, 2e-12),
             3: (5e-14, 2e-13, 3e-13, 3e-11, 2e-10)}


@functools.cache
def _rows(family: str, p: int, seed: str = "a"):
    config = ExperimentConfig("conv-h", space=SpaceKind(family, p, seed), levels=LEVELS)
    return tuple(run_conv_h(config))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_trefftz_and_full_dimensions(p):
    for family, dim in (("trefftz", 2 * p + 1), ("full", (p + 1) * (p + 2) // 2)):
        assert SpaceKind(family, p).dim(1) == dim
        assert [r.n_dofs for r in _rows(family, p)] == [(10 * 2 ** j) ** 2 * dim
                                                        for j in range(LEVELS)]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_trefftz_reaches_the_full_rate(p):
    # measured: trefftz 0.97-0.99, 1.95-1.99, 2.98-3.00; full 0.93-0.99, 1.75-1.98,
    # 2.82-2.98 (p = 1, 2, 3)
    trefftz, full = _rows("trefftz", p), _rows("full", p)
    for t, f in zip(trefftz[1:], full[1:]):
        assert t.rate >= f.rate - 0.1
    assert min(trefftz[-1].rate, full[-1].rate) >= p - 0.1


@pytest.mark.parametrize("p", [1, 2, 3])
def test_trefftz_error_is_below_full_at_equal_h(p):
    # measured: full's error is 1.6-1.7, 2.6-3.3 and 4.0-4.9 times trefftz's (p = 1, 2, 3)
    for t, f in zip(_rows("trefftz", p), _rows("full", p)):
        assert (t.h_x, t.h_t) == (f.h_x, f.h_t)
        assert t.dg_error <= f.dg_error


@pytest.mark.parametrize("p", [1, 2, 3])
def test_seed_choices_give_one_solution(p):
    for a, b, rtol in zip(_rows("trefftz", p, "a"), _rows("trefftz", p, "b"), SEED_RTOL[p]):
        assert b.dg_error == pytest.approx(a.dg_error, rel=rtol, abs=0)
