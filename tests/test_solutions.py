import cmath
import math

import numpy as np
import pytest

from schrodg.poly import mi
from schrodg.quadrature import mapped_interval
from schrodg.solutions import ExpSolution, ExpSolutionND, SquareWellSeries, square_well_initial


def test_exp_value_at_origin():
    assert ExpSolution(3.0).derivative(mi(0, 0), (0.0, 0.0)) == pytest.approx(1.0)


def test_exp_value_kappa5():
    sol = ExpSolution(5.0)
    assert sol.derivative(mi(0, 0), (1.0, 0.0)) == pytest.approx(math.exp(5.0))
    assert complex(sol.value(1.0, 0.0)) == pytest.approx(math.exp(5.0))


def test_exp_time_derivative():
    sol = ExpSolution(1.0)
    assert sol.derivative(mi(0, 1), (0.0, 0.0)) == pytest.approx(0.5j)


def test_exp_residual_vanishes_pointwise():
    sol = ExpSolution(5.0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, t = rng.uniform(0, 1, 2)
        res = (1j * sol.derivative(mi(0, 1), (x, t))
               + 0.5 * sol.derivative(mi(2, 0), (x, t)))
        assert abs(res) <= 1e-13 * abs(sol.derivative(mi(0, 0), (x, t)))


def test_exp_nd_residual_vanishes():
    sol = ExpSolutionND((1.5, -0.5))
    point = ((0.2, 0.7), 0.3)
    res = (1j * sol.derivative(mi((0, 0), 1), point)
           + 0.5 * (sol.derivative(mi((2, 0), 0), point)
                    + sol.derivative(mi((0, 2), 0), point)))
    assert abs(res) <= 1e-13 * abs(sol.value(*point))


def test_series_vanishes_at_boundary():
    s = SquareWellSeries(250)
    for t in (0.0, 0.03, 0.1):
        assert abs(s.value(0.0, t)[0]) <= 1e-12
        assert abs(s.value(1.0, t)[0]) <= 1e-12


def test_series_midpoint_alternating_sum():
    # sum (-1)^m / (2m+1)^3 = pi^3 / 32, so psi(1/2, 0) = sqrt(30) / 4
    s = SquareWellSeries(250)
    assert s.value(0.5, 0.0)[0] == pytest.approx(math.sqrt(30.0) / 4.0, rel=1e-7)


def test_series_matches_initial_profile():
    # composite-panel quadrature oracle for the L2 distance at t = 0
    s = SquareWellSeries(250)
    acc = 0.0
    for k in range(256):
        xq, wq = mapped_interval(k / 256, (k + 1) / 256, 8)
        r = s.value(xq, 0.0) - square_well_initial(xq)
        acc += float(np.sum(wq * np.abs(r) ** 2))
    assert math.sqrt(acc) <= 1e-6


def test_series_mass_conservation():
    s = SquareWellSeries(40)
    masses = []
    for t in (0.0, 0.05, 0.1):
        acc = 0.0
        for k in range(200):
            xq, wq = mapped_interval(k / 200, (k + 1) / 200, 10)
            acc += float(np.sum(wq * np.abs(s.value(xq, t)) ** 2))
        masses.append(math.sqrt(acc))
    assert abs(masses[1] - masses[0]) <= 1e-8
    assert abs(masses[2] - masses[0]) <= 1e-8


def test_each_mode_solves_equation():
    # mode_n = sin(n pi x) exp(-i n^2 pi^2 t / 2): i d/dt + (1/2) d2/dx2 = 0
    for m in (0, 3, 17):
        n = 2 * m + 1
        x, t = 0.37, 0.021
        mode = math.sin(n * math.pi * x) * cmath.exp(-0.5j * n ** 2 * math.pi ** 2 * t)
        dt = -0.5j * n ** 2 * math.pi ** 2 * mode
        dxx = -(n * math.pi) ** 2 * mode
        assert abs(1j * dt + 0.5 * dxx) <= 1e-13 * (n * math.pi) ** 2 * abs(mode)


def test_series_spatial_derivative():
    s = SquareWellSeries(100)
    x, t, h = 0.4, 0.05, 1e-6
    fd = (s.value(x + h, t)[0] - s.value(x - h, t)[0]) / (2 * h)
    assert s.dx(x, t)[0] == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("method", ["value", "dx"])
def test_series_keeps_the_input_shape(method):
    # 2-D input, more points than one evaluation block
    series = SquareWellSeries(250)
    rng = np.random.default_rng(3)
    x, t = rng.random((3, 50)), 0.1 * rng.random((3, 50))
    out = getattr(series, method)(x, t)
    assert out.shape == (3, 50)
    flat = getattr(series, method)(x.ravel(), t.ravel())
    assert flat.shape == (150,)
    assert np.array_equal(out.ravel(), flat)
    row = getattr(series, method)(x[1], t[1])
    assert np.max(np.abs(row - out[1])) <= 1e-15 * np.max(np.abs(row))
    assert getattr(series, method)(x[:, :1], 0.05).shape == (3, 1)


def per_point_series(x, t, dx, n_trunc=250):
    """The series summed with one sin/cos and one exp per (point, mode) pair."""
    x, t = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                               np.atleast_1d(np.asarray(t, dtype=float)))
    n = 2.0 * np.arange(n_trunc) + 1.0
    amp = math.sqrt(30.0) * (2.0 / math.pi) ** 3 / n ** 3
    if dx:
        amp = amp * np.pi * n
    wave = np.cos if dx else np.sin
    return (wave(np.pi * x[..., None] * n)
            * np.exp(-0.5j * np.pi ** 2 * t[..., None] * n * n)) @ amp


def _series_inputs():
    rng = np.random.default_rng(11)
    levels, nodes = rng.random(3), np.linspace(0.0, 1.0, 7)
    return {
        # (nF, nq) rows at one t, as on a slab's space-like facets
        "rows_one_t": (rng.random((5, 20)), np.full((5, 1), 0.1 * rng.random()), True),
        # rows with one x each, as on time-like facets; more t than one block
        "rows_one_x": (rng.random((6, 1)), 0.1 * rng.random((1, 40)), True),
        "scattered": (rng.random(100), 0.1 * rng.random(100), False),
        "scalar": (0.3, 0.02, True),
        "repeated": (rng.choice(nodes, (4, 30)), 0.1 * rng.choice(levels, (4, 30)), True),
    }


@pytest.mark.parametrize("dx", [False, True], ids=["value", "dx"])
@pytest.mark.parametrize("case", list(_series_inputs()))
def test_series_matches_per_point_sum(case, dx):
    x, t, on_grid = _series_inputs()[case]
    X, T = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(t))
    # which path the input takes: a tensor grid, or the per-point fallback
    assert (np.unique(X).size * np.unique(T).size <= X.size) == on_grid
    series = SquareWellSeries(250)
    got = series.dx(x, t) if dx else series.value(x, t)
    want = per_point_series(x, t, dx)
    assert got.shape == X.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dx", [False, True], ids=["value", "dx"])
@pytest.mark.parametrize("case, axis", [("rows_one_t", 0), ("rows_one_x", 1),
                                        ("scattered", 0), ("scattered", 1)])
def test_series_nan_stays_at_its_points(case, axis, dx):
    # a NaN x on one point of a grid, a NaN t shared by a grid column, and
    # a NaN x or t on one scattered point
    x, t, on_grid = _series_inputs()[case]
    xt = [np.array(x, dtype=float), np.array(t, dtype=float)]
    xt[axis].flat[7] = np.nan
    X, T = np.broadcast_arrays(*xt)
    assert (np.unique(X).size * np.unique(T).size <= X.size) == on_grid
    series = SquareWellSeries(250)
    got = series.dx(*xt) if dx else series.value(*xt)
    bad = np.isnan(X) | np.isnan(T)
    assert np.array_equal(np.isnan(got), bad)
    want = per_point_series(*xt, dx)
    assert np.max(np.abs(got[~bad] - want[~bad])) <= 1e-13 * np.max(np.abs(want[~bad]))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
def test_series_tables_match_a_long_double_reference():
    # the same formulas in long double; an entry's error is the rounding of its phase
    # (n^2 theta for T, up to ~1e5 here, n pi x for X), about (1 + phase) eps
    rng = np.random.default_rng(5)
    x, t = rng.random(40), np.concatenate(([0.0], 0.1 * rng.random(39)))
    series = SquareWellSeries(250)
    X, X_dx, T = series.x_table(x), series.x_table(x, dx=True), series.t_table(t)
    ld, eps = np.longdouble, np.finfo(float).eps
    pi = 4 * np.arctan(ld(1))
    n = 2 * np.arange(250, dtype=ld) + 1
    phase = np.multiply.outer(n * n, pi * pi * t.astype(ld) / 2)
    err = np.hypot((T.real - np.cos(phase)).astype(float), (T.imag + np.sin(phase)).astype(float))
    assert np.all(err <= 4 * (1 + phase.astype(float)) * eps)
    amp = np.sqrt(ld(30)) * (2 / pi) ** 3 / n ** 3
    arg = np.multiply.outer(x.astype(ld), pi * n)
    for got, scale, want in ((X, amp, amp * np.sin(arg)),
                             (X_dx, amp * pi * n, amp * pi * n * np.cos(arg))):
        err = np.abs((got - want).astype(float))
        assert np.all(err <= 4 * (1 + arg.astype(float)) * eps * scale.astype(float))


@pytest.mark.parametrize("n_trunc", [1, 40, 250, 256, 257])
def test_series_time_column_does_not_depend_on_the_batch(n_trunc):
    # the blocked T is elementwise in time: one time alone gives its column of a
    # batch to the bit, whatever the batch's length
    series = SquareWellSeries(n_trunc)
    t = 0.1 * np.random.default_rng(9).random(37)
    T = series.t_table(t)
    assert T.shape == (n_trunc, t.size)
    n = 2.0 * np.arange(n_trunc) + 1.0  # the last block may be cut short
    assert np.max(np.abs(T - np.exp(-0.5j * np.pi ** 2 * np.outer(n * n, t)))) <= 1e-10
    for j in (0, 5, 16, 36):
        assert np.array_equal(series.t_table(t[j:j + 1])[:, 0], T[:, j])
    assert np.array_equal(series.t_table(t[3:20]), T[:, 3:20])


@pytest.mark.parametrize("dx", [False, True], ids=["value", "dx"])
def test_series_builds_only_the_half_asked_for(monkeypatch, dx):
    # X takes one sine or cosine call and no exponential, T one exponential call and no
    # sine or cosine
    series = SquareWellSeries(250)
    rng = np.random.default_rng(11)
    x, t = rng.random(13), 0.1 * rng.random(7)
    calls = []

    def counted(name):
        ufunc = getattr(np, name)
        return lambda *args, **kwargs: calls.append(name) or ufunc(*args, **kwargs)

    for name in ("exp", "sin", "cos"):
        monkeypatch.setattr(np, name, counted(name))
    X = series.x_table(x, dx)
    assert calls == ["cos" if dx else "sin"]
    calls.clear()
    T = series.t_table(t)
    assert calls == ["exp"]
    assert X.shape == (13, 250) and T.shape == (250, 7)
