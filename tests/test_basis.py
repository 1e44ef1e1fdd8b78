import cmath
import importlib
import math
import pkgutil

import numpy as np
import pytest

import schrodg
from schrodg.basis import (MeshBasis, SpaceKind, Wave, element_basis, eval_basis_many,
                           trefftz_basis)
from schrodg.mesh import SpaceTimeDomain, build_cartesian_mesh
from schrodg.quadrature import mapped_interval, rect_rule
from schrodg.poly import apply_schrodinger, mi, poly_combination
from tests.conftest import named_mesh

UNIT = dict(center=(0.0, 0.0), scales=(1.0, 1.0))


def coeff_dicts(eb):
    return [dict(f.coeffs) for f in eb.functions]


def test_trefftz_d1_p1_span():
    eb = trefftz_basis(1, 1, **UNIT)
    assert coeff_dicts(eb) == [
        {mi(0, 0): 1.0},
        {mi(1, 0): 1.0},
        {mi(2, 0): 1.0, mi(0, 1): 1j},
    ]


def test_trefftz_d1_p2_span():
    eb = trefftz_basis(1, 2, **UNIT)
    assert coeff_dicts(eb)[3] == {mi(3, 0): 1.0, mi(1, 1): 3j}
    assert coeff_dicts(eb)[4] == {mi(4, 0): 1.0, mi(2, 1): 6j, mi(0, 2): -3.0 + 0j}


def test_trefftz_d2_p1_span():
    eb = trefftz_basis(2, 1, center=((0.0, 0.0), 0.0), scales=(1.0, 1.0))
    assert eb.dim == math.comb(4, 2) == 6
    got = coeff_dicts(eb)
    assert {mi((0, 0), 0): 1.0} in got
    assert {mi((2, 0), 0): 1.0, mi((0, 0), 1): 1j} in got
    assert {mi((0, 2), 0): 1.0, mi((0, 0), 1): 1j} in got
    assert {mi((1, 1), 0): 1.0} in got


@pytest.mark.parametrize("d,p", [(1, 0), (1, 1), (1, 3), (2, 2), (3, 1), (3, 3)])
def test_trefftz_dimension_formula(d, p):
    center = (0.0, 0.0) if d == 1 else (tuple([0.0] * d), 0.0)
    eb = trefftz_basis(d, p, center=center, scales=(1.0, 1.0))
    assert eb.dim == math.comb(2 * p + d, d)


@pytest.mark.parametrize("d,p", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 2)])
def test_trefftz_exactness(d, p):
    center = (0.4, 0.2) if d == 1 else (tuple([0.4] * d), 0.2)
    for seed in ("a", "b") if d == 1 else ("a",):
        eb = trefftz_basis(d, p, center=center, scales=(0.5, 0.7), seed_choice=seed)
        for f in eb.functions:
            res = apply_schrodinger(f)
            assert res.max_coeff() <= 1e-13 * max(f.max_coeff(), 1.0)


def test_trefftz_restriction_reproduces_seed():
    eb = trefftz_basis(1, 2, center=(0.3, 0.4), scales=(0.25, 0.5), seed_choice="a")
    for e, f in enumerate(eb.functions):
        assert f.time_slice_coeffs() == {(e,): 1.0}


def test_trefftz_seed_choice_b_scaling():
    # seed e carries (x - x_K)^e / h_x^ceil(e/2), i.e. h_x^floor(e/2) in scaled form
    hx = 0.25
    eb = trefftz_basis(1, 2, center=(0.0, 0.0), scales=(hx, 1.0), seed_choice="b")
    for e, f in enumerate(eb.functions):
        assert f.time_slice_coeffs() == {(e,): hx ** (e // 2)}


def test_trefftz_uniqueness_by_trace():
    from schrodg.basis import _propagate_trefftz

    rng = np.random.default_rng(3)
    eb = trefftz_basis(1, 3, center=(0.1, -0.2), scales=(0.5, 0.7))
    gamma = rng.standard_normal(eb.dim) + 1j * rng.standard_normal(eb.dim)
    member = poly_combination(list(eb.functions), gamma)
    rebuilt = _propagate_trefftz(member.time_slice_coeffs(), 1, 0.5, 0.7)
    keys = set(member.coeffs) | set(rebuilt)
    for k in keys:
        assert abs(member.coeffs.get(k, 0) - rebuilt.get(k, 0)) <= 1e-12 * member.max_coeff()


def test_trefftz_seed_b_rejected_above_1d():
    with pytest.raises(ValueError):
        trefftz_basis(2, 1, center=((0.0, 0.0), 0.0), scales=(1.0, 1.0), seed_choice="b")


def test_quasi_trefftz_p1_span():
    eb = element_basis(SpaceKind.quasi_trefftz(1), **UNIT)
    assert coeff_dicts(eb) == [{mi(0, 0): 1.0}, {mi(1, 0): 1.0}, {mi(0, 1): 1.0}]


def test_quasi_trefftz_p2_span():
    eb = element_basis(SpaceKind.quasi_trefftz(2), **UNIT)
    assert coeff_dicts(eb) == [
        {mi(0, 0): 1.0},
        {mi(1, 0): 1.0},
        {mi(2, 0): 1.0, mi(0, 1): 1j},
        {mi(1, 1): 1.0},
        {mi(0, 2): 1.0},
    ]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_quasi_trefftz_dimension(p):
    eb = element_basis(SpaceKind.quasi_trefftz(p), center=(0.2, 0.1), scales=(0.5, 0.25))
    assert eb.dim == 2 * p + 1


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_quasi_trefftz_operator_zero_of_order(p):
    # D^j (S q)(center) = 0 for |j| <= p - 2, read off exactly from coefficients
    eb = element_basis(SpaceKind.quasi_trefftz(p), center=(0.2, 0.1), scales=(0.5, 0.25))
    for f in eb.functions:
        res = apply_schrodinger(f)
        for j, c in res.coeffs.items():
            if j.order <= p - 2:
                assert abs(c) <= 1e-14 * max(f.max_coeff(), 1.0)


@pytest.mark.parametrize("scales", [(1.0, 1.0), (0.5, 0.7), (0.5, 0.25), (0.1, 0.1),
                                    (0.05, 0.005)])
@pytest.mark.parametrize("p", range(1, 8))
def test_quasi_trefftz_spatial_seed_is_the_trefftz_function(p, scales):
    # one recurrence completes both: x^jx, jx <= p, seeds the same polynomial to the bit
    quasi = element_basis(SpaceKind.quasi_trefftz(p), center=(0.2, 0.1), scales=scales)
    trefftz = trefftz_basis(1, p, center=(0.2, 0.1), scales=scales, seed_choice="a")
    for jx in range(p + 1):
        assert quasi.functions[jx].time_slice_coeffs() == {(jx,): 1.0}
        assert quasi.functions[jx].coeffs == trefftz.functions[jx].coeffs


def test_quasi_trefftz_rejects_p0():
    with pytest.raises(ValueError):
        element_basis(SpaceKind.quasi_trefftz(0), **UNIT)


def test_full_poly_spans():
    assert coeff_dicts(element_basis(SpaceKind.full_poly(0), **UNIT)) == [{mi(0, 0): 1.0}]
    assert coeff_dicts(element_basis(SpaceKind.full_poly(1), **UNIT)) == [
        {mi(0, 0): 1.0}, {mi(0, 1): 1.0}, {mi(1, 0): 1.0}]
    assert element_basis(SpaceKind.full_poly(2), **UNIT).dim == 6


def test_full_poly_dimension_formula():
    eb = element_basis(SpaceKind.full_poly(3), **UNIT)
    assert eb.dim == math.comb(3 + 2, 2) == SpaceKind.full_poly(3).dim(1)


def test_plane_wave_wavenumbers():
    eb = element_basis(SpaceKind.plane_wave(1), **UNIT)
    assert [w.k for w in eb.functions] == [-2.0, 0.0, 2.0]
    eb2 = element_basis(SpaceKind.plane_wave(2), **UNIT)
    assert [w.k for w in eb2.functions] == [-4.0, -2.0, 0.0, 2.0, 4.0]
    with pytest.raises(ValueError):
        element_basis(SpaceKind.plane_wave(0), **UNIT)


def test_wave_satisfies_equation_identically():
    w = Wave(2.0, (0.0, 0.0))
    xs = np.linspace(0, 1, 5)
    ts = np.linspace(0, 1, 5)
    res = (1j * eval_basis_many(w, xs, ts, mi(0, 1))
           + 0.5 * eval_basis_many(w, xs, ts, mi(2, 0)))
    assert np.max(np.abs(res)) <= 1e-14


def test_eval_wave_examples():
    assert eval_basis_many(Wave(0.0, (0.0, 0.0)), 0.77, 0.13)[0] == pytest.approx(1.0)
    got = eval_basis_many(Wave(2.0, (0.0, 0.0)), 0.5, 0.0)[0]
    assert got == pytest.approx(cmath.exp(1j))


def test_wave_is_centred_at_its_element():
    w = Wave(2.0, (0.3, 0.7))
    assert eval_basis_many(w, 0.3, 0.7)[0] == 1.0
    xs, ts = np.linspace(0.0, 1.0, 5), np.linspace(0.2, 0.9, 5)
    at_origin = Wave(2.0, (0.0, 0.0))
    for deriv in (None, mi(1, 0), mi(0, 1)):
        assert np.max(np.abs(eval_basis_many(w, xs, ts, deriv)
                             - eval_basis_many(at_origin, xs - 0.3, ts - 0.7, deriv))) == 0.0


def test_eval_poly_basis_derivative():
    eb = trefftz_basis(1, 1, **UNIT)
    assert eval_basis_many(eb.functions[2], 1.0, 1.0, deriv=mi(1, 0))[0] == pytest.approx(2.0)


def test_wave_rejects_high_derivatives():
    w = Wave(2.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        eval_basis_many(w, 0.0, 0.0, deriv=mi(2, 1))


def test_space_kind_validation():
    with pytest.raises(ValueError):
        SpaceKind("planewave", 0)
    with pytest.raises(ValueError):
        SpaceKind("quasi-trefftz", 0)
    with pytest.raises(ValueError):
        SpaceKind("nope", 1)
    with pytest.raises(ValueError):
        SpaceKind("trefftz", 1, "c")
    assert SpaceKind.trefftz(2).dim(1) == 5
    assert SpaceKind.plane_wave(2).dim(1) == 5
    assert not SpaceKind.trefftz(1).needs_volume_term
    assert SpaceKind.quasi_trefftz(1).needs_volume_term


def test_space_kind_requires_an_integer_p():
    # a float or a bool p is no degree (1.5 gave the dimension 4.0, True passed as 1); a
    # numpy integer is one
    for p in (1.5, 2.0, True, np.bool_(True), "2"):
        with pytest.raises(TypeError, match="p must be an integer"):
            SpaceKind("trefftz", p)
    assert SpaceKind("trefftz", np.int64(2)) == SpaceKind.trefftz(2)
    assert SpaceKind("full", np.int32(2)).dim() == 6


def test_gram_rank_certifies_independence():
    from schrodg.experiments import _gram_time_slice

    for d, p in [(1, 2), (2, 1), (3, 1)]:
        center = (0.3, 0.2) if d == 1 else (tuple([0.3] * d), 0.2)
        eb = trefftz_basis(d, p, center=center, scales=(0.5, 0.7))
        g = _gram_time_slice(eb.functions, d, p, eb.functions[0].center, (0.5, 0.7))
        sv = np.linalg.svd(g, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


TABLE_SPACES = [SpaceKind.trefftz(1), SpaceKind.trefftz(2),
                SpaceKind.quasi_trefftz(1), SpaceKind.quasi_trefftz(2),
                SpaceKind.full_poly(1), SpaceKind.full_poly(2),
                SpaceKind.plane_wave(1), SpaceKind.plane_wave(2)]


def _pointwise(mesh, space, eid, X, T):
    """Values, x-derivatives and operator image (dim, nq) of element eid's basis at the
    global points X, T, one function at a time."""
    funcs = element_basis(space, tuple(mesh.centers[eid]), mesh.h).functions
    value = np.array([eval_basis_many(f, X, T) for f in funcs])
    dx = np.array([eval_basis_many(f, X, T, mi(1, 0)) for f in funcs])
    image = (np.zeros_like(value) if space.family == "planewave" else
             np.array([eval_basis_many(apply_schrodinger(f), X, T) for f in funcs]))
    return value, dx, image


@pytest.mark.parametrize("space", TABLE_SPACES, ids=str)
@pytest.mark.parametrize("mesh_name", ["uniform", "offset"])
def test_facet_tables_equal_pointwise_evaluation(space, mesh_name):
    # the trace table of each place gives every element's basis values, x-derivatives
    # and operator image at the global Gauss nodes of that side (or of its volume)
    mesh = named_mesh(mesh_name, 4, 3)
    basis, n = MeshBasis(mesh, space), 6
    for place in ("top", "bottom", "left", "right", "volume"):
        tables = [basis.table(n, place, **kw)[0] for kw in ({}, {"dx": True}, {"image": True})]
        for el in mesh.elements:
            (x0, x1), (t0, t1) = el.x_range, el.t_range
            if place == "volume":
                X, T, _ = rect_rule(el.x_range, el.t_range, n)
            elif place in ("top", "bottom"):
                X, T = mapped_interval(x0, x1, n)[0], np.full(n, t1 if place == "top" else t0)
            else:
                X, T = np.full(n, x1 if place == "right" else x0), mapped_interval(t0, t1, n)[0]
            for table, ref in zip(tables, _pointwise(mesh, space, el.id, X, T)):
                assert np.max(np.abs(table - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1e-300)


def _lru_caches() -> dict:
    """Every functools.lru_cache of a module of schrodg, by its module and name."""
    caches = {}
    for info in pkgutil.iter_modules(schrodg.__path__):
        module = importlib.import_module(f"schrodg.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj
    return caches


def test_no_cache_grows_with_the_element_size():
    # only size-free quantities are memoised for the life of the process: once the trace
    # tables of every family are built on one mesh, building them on meshes of other
    # element sizes adds no entry to any lru_cache of schrodg
    caches = _lru_caches()
    assert {"schrodg.quadrature.reference_rule", "schrodg.basis._reference_monomials",
            "schrodg.quadrature.gauss_legendre"} <= set(caches)
    kinds = [SpaceKind.trefftz(2), SpaceKind.trefftz(2, "b"), SpaceKind.quasi_trefftz(2),
             SpaceKind.full_poly(2), SpaceKind.plane_wave(2)]
    sizes = []
    for nx in range(4, 13):
        mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), nx, 3)
        for kind in kinds:
            basis = MeshBasis(mesh, kind)
            for place in ("top", "bottom", "left", "right"):
                basis.table(6, place)
                basis.table(6, place, dx=True)
            basis.table(6, "volume", image=True)
        sizes.append({name: cache.cache_info().currsize for name, cache in caches.items()})
    assert all(size == sizes[0] for size in sizes[1:])
