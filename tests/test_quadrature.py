import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodg.quadrature import (box_rule, data_rule_size, gauss_legendre, mapped_interval,
                                poly_rule_size, rect_rule, reference_rule)


def integrate(f, lo, hi, n):
    """The weighted sum of f over the n-point `mapped_interval` rule on (lo, hi)."""
    xq, wq = mapped_interval(lo, hi, n)
    return np.sum(wq * f(xq))


def test_one_point_rule():
    nodes, weights = gauss_legendre(1)
    assert nodes == pytest.approx([0.0])
    assert weights == pytest.approx([2.0])


def test_two_point_rule_closed_form():
    nodes, weights = gauss_legendre(2)
    assert sorted(nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert weights == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 64])
def test_rule_invariants(n):
    nodes, weights = gauss_legendre(n)
    assert np.sum(weights) == pytest.approx(2.0, abs=1e-14)
    assert np.all(weights > 0)
    assert np.all(np.abs(nodes) < 1.0)
    assert np.max(np.abs(nodes + nodes[::-1])) < 1e-14  # symmetric about 0
    assert not (nodes.flags.writeable or weights.flags.writeable)  # shared by every caller


@pytest.mark.parametrize("n", [0, -1, 65])
def test_rule_rejects_out_of_range(n):
    with pytest.raises(ValueError):
        gauss_legendre(n)


def test_constant_on_interval():
    assert integrate(lambda x: np.ones_like(x), 0.0, 0.3, 5) == pytest.approx(0.3)


def test_cubic_exact_with_two_nodes():
    assert integrate(lambda x: x ** 3, 0.0, 1.0, 2) == pytest.approx(0.25, abs=1e-15)


def test_square_exact_with_two_nodes():
    assert integrate(lambda x: x ** 2, 0.0, 1.0, 2) == pytest.approx(1 / 3, abs=1e-15)


def test_exp_against_antiderivative():
    exact = (math.exp(5.0) - 1.0) / 5.0
    val = integrate(lambda x: np.exp(5.0 * x), 0.0, 1.0, 20)
    assert abs(val - exact) <= 1e-12 * exact


@pytest.mark.parametrize("kappa,tol", [(1.0, 1e-12), (5.0, 1e-12), (10.0, 1e-11)])
def test_exp_converged_at_ten_nodes(kappa, tol):
    # at kappa = 10 the exact 10-node rule truncation error is ~5e-12
    a = integrate(lambda x: np.exp(kappa * x), 0.0, 1.0, 10)
    b = integrate(lambda x: np.exp(kappa * x), 0.0, 1.0, 20)
    assert abs(a - b) <= tol * abs(b)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 10), st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=8))
def test_polynomial_exactness(n, coeffs):
    # rule with n nodes is exact for degree <= 2n - 1 (oracle: monomial antiderivatives)
    coeffs = coeffs[: 2 * n]
    lo, hi = -0.5, 1.25
    exact = sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
    val = integrate(lambda x: sum(c * x ** k for k, c in enumerate(coeffs)), lo, hi, n)
    assert abs(val - exact) <= 1e-13 * max(1.0, abs(exact))


def test_rect_rule_tensor_product():
    # int_0^1 int_0^2 x t dt dx = (1/2) * 2 = 1
    xg, tg, wg = rect_rule((0.0, 1.0), (0.0, 2.0), 4)
    val = np.sum(wg * xg * tg)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_box_rule_volume():
    pts, wts = box_rule(((0.0, 1.0), (0.0, 0.5), (0.0, 2.0)), 3)
    assert pts.shape == (27, 3)
    assert np.sum(wts) == pytest.approx(1.0, abs=1e-14)


def test_rule_size_policy():
    assert poly_rule_size(3) == 8
    assert data_rule_size(1) == 20
    assert data_rule_size(12) == 26


@pytest.mark.parametrize("n", [1, 4, 7])
def test_reference_rule_halves_the_gauss_rule(n):
    # the offsets of the reference element's rule are the Gauss nodes halved and the sides
    # at +-1/2, to the bit; the weights of a side, and of the volume, sum to its size, 1
    nodes, weights = gauss_legendre(n)
    half, sides = nodes / 2, {"top": (1, 0.5), "bottom": (1, -0.5),
                              "right": (0, 0.5), "left": (0, -0.5)}
    for place, (fixed, at) in sides.items():
        x, t, w = reference_rule(n, place)
        assert np.array_equal((x, t)[fixed], np.full((1, n), at))
        assert np.array_equal((x, t)[1 - fixed], half[None])
        assert np.array_equal(w, weights[None] / 2)
    x, t, w = reference_rule(n, "volume")
    assert np.array_equal(x, np.repeat(half, n)[None]) and np.array_equal(t, np.tile(half, n)[None])
    assert np.array_equal(w, np.outer(weights, weights).reshape(1, -1) / 4)
    assert math.isclose(w.sum(), 1.0, rel_tol=1e-14)
    assert reference_rule(n, "volume")[0] is x
    with pytest.raises(ValueError):
        w[0, 0] = 0.0
    with pytest.raises(ValueError, match="place"):
        reference_rule(n, "below")
