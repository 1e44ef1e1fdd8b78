import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodg.poly import (MultiIndex, ScaledPolynomial, apply_schrodinger, dense_terms,
                          eval_poly_many, extended_taylor_poly, mi, poly_combination,
                          space_multi_indices, taylor_poly)
from schrodg.solutions import ExpSolution, ExpSolutionND


def P(terms, **kw):
    return ScaledPolynomial.from_terms(terms, **kw)


def test_eval_constant():
    p = P({(0, 0): 1.0})
    assert eval_poly_many(p, 0.37, -1.2)[0] == 1.0


def test_eval_hand_example():
    # x^2 + i t at (2, 3) = 4 + 3i
    p = P({(2, 0): 1.0, (0, 1): 1j})
    assert eval_poly_many(p, 2.0, 3.0)[0] == pytest.approx(4.0 + 3.0j)


def test_eval_time_derivative_is_constant():
    p = P({(2, 0): 1.0, (0, 1): 1j})
    xs, ts = np.array([0.0, 2.0, -1.5]), np.array([0.0, 3.0, 0.7])
    assert eval_poly_many(p, xs, ts, deriv=mi(0, 1)) == pytest.approx([1j, 1j, 1j])


def test_eval_out_of_range_derivative_is_zero():
    p = P({(2, 0): 1.0})
    assert eval_poly_many(p, 1.0, 1.0, deriv=mi(0, 3))[0] == 0.0
    assert eval_poly_many(p, 1.0, 1.0, deriv=mi(5, 0))[0] == 0.0


def test_eval_center_returns_constant_coefficient():
    p = P({(0, 0): 2.5 - 1j, (3, 1): 4.0}, center=(0.4, -0.3), scales=(0.5, 2.0))
    assert eval_poly_many(p, 0.4, -0.3)[0] == 2.5 - 1j


def test_eval_scaled_derivative_chain_rule():
    # p = ((x-1)/0.5)^2: p'' = 2 / 0.5^2 = 8
    p = P({(2, 0): 1.0}, center=(1.0, 0.0), scales=(0.5, 1.0))
    assert eval_poly_many(p, 1.3, 0.0, deriv=mi(2, 0))[0] == pytest.approx(8.0)


def test_eval_many_matches_scalar():
    p = P({(2, 0): 1.0, (1, 1): 2j, (0, 2): -0.5}, center=(0.2, 0.1), scales=(0.7, 1.3))
    xs = np.linspace(-1, 1, 7)
    ts = np.linspace(0, 2, 7)
    vals = eval_poly_many(p, xs, ts)
    for x, t, v in zip(xs, ts, vals):
        assert v == pytest.approx(eval_poly_many(p, x, t)[0])


def test_eval_2d_mixed_derivatives_hand_values():
    # p = 2 + 1.5 xi1^2 xi2 tau + i xi1 xi2^3, xi_l = (x_l - z_l)/h_x, tau = (t - s)/h_t
    hx, ht = 0.5, 0.25
    p = P({((0, 0), 0): 2.0, ((2, 1), 1): 1.5, ((1, 3), 0): 1j},
          center=((0.3, -0.2), 0.1), scales=(hx, ht), d=2)
    xs = np.array([[0.3, -0.2], [0.7, 0.4], [-0.1, 0.9]])
    ts = np.array([0.1, 0.35, -0.4])
    xi1, xi2, tau = (xs[:, 0] - 0.3) / hx, (xs[:, 1] + 0.2) / hx, (ts - 0.1) / ht
    cases = [
        (mi((0, 0), 0), 2.0 + 1.5 * xi1 ** 2 * xi2 * tau + 1j * xi1 * xi2 ** 3),
        (mi((1, 0), 1), 3.0 * xi1 * xi2 / (hx * ht)),
        (mi((0, 2), 0), 6j * xi1 * xi2 / hx ** 2),
        (mi((1, 1), 0), (3.0 * xi1 * tau + 3j * xi2 ** 2) / hx ** 2),
        (mi((0, 0), 2), 0.0 * xi1),
    ]
    for deriv, want in cases:
        assert eval_poly_many(p, xs, ts, deriv) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_dense_terms_union_of_disjoint_supports():
    a = P({(0, 0): 1.0, (2, 0): 2.0})
    b = P({(1, 1): 3j})
    exps, coeffs = dense_terms([a, b])
    assert exps.tolist() == [[0, 0], [1, 1], [2, 0]]
    assert coeffs.tolist() == [[1.0, 0.0, 2.0], [0.0, 3j, 0.0]]
    plane = {"center": ((0.0, 0.0), 0.0), "d": 2}
    exps, coeffs = dense_terms([P({((0, 2), 1): 1.0}, **plane), P({((1, 0), 0): -1.0}, **plane)])
    assert exps.tolist() == [[0, 2, 1], [1, 0, 0]]
    assert coeffs.tolist() == [[1.0, 0.0], [0.0, -1.0]]


def test_schrodinger_kernel_members_annihilate():
    # span members of the degree-2 and degree-4 kernel spaces
    assert apply_schrodinger(P({(2, 0): 1.0, (0, 1): 1j})).coeffs == {}
    q = P({(4, 0): 1.0, (2, 1): 6j, (0, 2): -3.0})
    assert apply_schrodinger(q).coeffs == {}


def test_schrodinger_on_t_gives_i():
    out = apply_schrodinger(P({(0, 1): 1.0}))
    assert dict(out.coeffs) == {mi(0, 0): 1j}


def test_schrodinger_scaling_factors():
    # i d/dt ((t-s)/h_t) = i / h_t ; (1/2) d2/dx2 ((x-z)/h_x)^2 = 1 / h_x^2
    out = apply_schrodinger(P({(0, 1): 1.0, (2, 0): 1.0}, scales=(0.5, 0.25)))
    assert out.coeffs[mi(0, 0)] == pytest.approx(4j + 4.0)


@st.composite
def sparse_polys(draw):
    n = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n):
        jx = draw(st.integers(0, 4))
        jt = draw(st.integers(0, 4))
        re = draw(st.floats(-3, 3, allow_nan=False))
        im = draw(st.floats(-3, 3, allow_nan=False))
        terms[(jx, jt)] = complex(re, im)
    return terms


@settings(deadline=None, max_examples=60)
@given(sparse_polys(), sparse_polys(),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_schrodinger_linearity(ta, tb, a, b):
    scales = (0.8, 1.4)
    pa, pb = P(ta, scales=scales), P(tb, scales=scales)
    combo = apply_schrodinger(poly_combination([pa, pb], [a, b]))
    parts = poly_combination([apply_schrodinger(pa), apply_schrodinger(pb)], [a, b])
    keys = set(combo.coeffs) | set(parts.coeffs)
    scale = max(abs(a) * pa.max_coeff() + abs(b) * pb.max_coeff(), 1.0)
    for k in keys:
        assert abs(combo.coeffs.get(k, 0) - parts.coeffs.get(k, 0)) <= 1e-13 * scale


def test_taylor_of_exponential_order2():
    # 1 + x + i t / 2
    sol = ExpSolution(1.0)
    t2 = taylor_poly(sol.derivative, 2, (0.0, 0.0), (1.0, 1.0))
    assert dict(t2.sorted_terms()) == {mi(0, 0): 1.0 + 0j, mi(0, 1): 0.5j, mi(1, 0): 1.0 + 0j}


def test_taylor_of_constant():
    oracle = lambda j, point: 3.0 - 2.0j if j.order == 0 else 0.0
    for m in (1, 2, 5):
        p = taylor_poly(oracle, m, (0.1, 0.2), (0.5, 0.5))
        assert dict(p.coeffs) == {mi(0, 0): 3.0 - 2.0j}


def test_taylor_order_one_is_value():
    sol = ExpSolution(1.0)
    p = taylor_poly(sol.derivative, 1, (0.0, 0.0), (1.0, 1.0))
    assert dict(p.coeffs) == {mi(0, 0): 1.0 + 0j}


def test_taylor_rejects_order_zero():
    with pytest.raises(ValueError):
        taylor_poly(ExpSolution(1.0).derivative, 0, (0.0, 0.0), (1.0, 1.0))


def test_extended_taylor_p1_adds_quadratic():
    # 1 + x + i t / 2 + x^2 / 2
    sol = ExpSolution(1.0)
    et = extended_taylor_poly(sol.derivative, 1, (0.0, 0.0), (1.0, 1.0))
    assert dict(et.sorted_terms()) == {
        mi(0, 0): 1.0 + 0j, mi(0, 1): 0.5j, mi(1, 0): 1.0 + 0j, mi(2, 0): 0.5 + 0j}


def test_extended_taylor_p0_is_value():
    sol = ExpSolution(2.0)
    et = extended_taylor_poly(sol.derivative, 0, (0.3, 0.4), (1.0, 1.0))
    assert dict(et.coeffs) == {mi(0, 0): sol.derivative(mi(0, 0), (0.3, 0.4))}


def test_extended_taylor_general_kappa():
    k = 3.0
    sol = ExpSolution(k)
    et = extended_taylor_poly(sol.derivative, 1, (0.0, 0.0), (1.0, 1.0))
    assert dict(et.sorted_terms()) == {
        mi(0, 0): 1.0 + 0j, mi(0, 1): 0.5j * k ** 2, mi(1, 0): k + 0j,
        mi(2, 0): k ** 2 / 2 + 0j}


def test_extended_taylor_matches_taylor_on_low_orders():
    sol = ExpSolution(5.0)
    for p in (1, 2, 3):
        et = extended_taylor_poly(sol.derivative, p, (0.3, 0.2), (0.7, 0.4))
        tp = taylor_poly(sol.derivative, p + 1, (0.3, 0.2), (0.7, 0.4))
        for j, c in tp.coeffs.items():
            assert et.coeffs[j] == c
        extra = [j for j in et.coeffs if j not in tp.coeffs]
        assert extra and all(j.order >= p + 1 for j in extra)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_extended_taylor_membership_1d(p):
    sol = ExpSolution(5.0)
    for center, scales in [((0.0, 0.0), (1.0, 1.0)), ((0.3, 0.2), (0.7, 0.4))]:
        et = extended_taylor_poly(sol.derivative, p, center, scales)
        res = apply_schrodinger(et)
        assert res.max_coeff() <= 1e-13 * et.max_coeff()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_extended_taylor_membership_2d(p):
    sol = ExpSolutionND((1.5, -0.5))
    et = extended_taylor_poly(sol.derivative, p, ((0.3, 0.1), 0.2), (0.7, 0.4), d=2)
    res = apply_schrodinger(et)
    assert res.max_coeff() <= 1e-13 * et.max_coeff()


def test_plain_taylor_is_not_in_kernel():
    # order-2 Taylor of the kernel member exp(x + it/2) misses x^2/2
    sol = ExpSolution(1.0)
    t2 = taylor_poly(sol.derivative, 2, (0.0, 0.0), (1.0, 1.0))
    res = apply_schrodinger(t2)
    assert dict(res.coeffs) == {mi(0, 0): -0.5 + 0j}


def test_space_multi_indices_counts_and_order():
    idx = space_multi_indices(2, 2)
    assert len(idx) == 6
    assert idx == sorted(idx)
    assert space_multi_indices(3, 6)[0] == (0, 0, 0)
    assert len(space_multi_indices(3, 6)) == math.comb(9, 3)


def test_degree_bound_enforced():
    with pytest.raises(ValueError):
        ScaledPolynomial(1, ((0.0,), 0.0), (1.0, 1.0), {mi(3, 0): 1.0}, 2)


def test_json_dict_deterministic_order():
    p = P({(0, 1): 1j, (2, 0): 1.0, (1, 1): -2.0}, center=(0.25, 0.5), scales=(0.5, 0.1))
    d = p.to_json_dict()
    assert [tuple(e[0]) + (e[1],) for e in d["coeffs"]] == sorted(
        tuple(e[0]) + (e[1],) for e in d["coeffs"])


def test_combination_requires_common_basis():
    a = P({(0, 0): 1.0}, center=(0.0, 0.0))
    b = P({(0, 0): 1.0}, center=(1.0, 0.0))
    with pytest.raises(ValueError):
        poly_combination([a, b], [1.0, 1.0])
