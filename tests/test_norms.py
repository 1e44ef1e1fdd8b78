import math
import tracemalloc

import numpy as np
import pytest

import schrodg.norms
from schrodg.assembly import (BoundaryData, DiscreteSolution, FacetKind, _facets,
                              element_bases, march, solution_data)
from schrodg.basis import SpaceKind
from schrodg.mesh import Mesh, SpaceTimeDomain, build_cartesian_mesh
from schrodg.norms import (ClosedFormField, DifferenceField, PiecewisePolyField,
                           dg_norm, dg_norms, dg_plus_norm, exact_field,
                           l2_slice_error)
from schrodg.poly import ScaledPolynomial, eval_poly_many, extended_taylor_poly, mi
from schrodg.solutions import ExpSolution, SquareWellSeries, square_well_initial
from schrodg.quadrature import mapped_interval
from tests.conftest import constant_field, named_mesh

DOM = SpaceTimeDomain(0.0, 1.0, 1.0)


def zero_field():
    return ClosedFormField(lambda x, t: np.zeros_like(np.asarray(x), dtype=complex),
                           lambda x, t: np.zeros_like(np.asarray(x), dtype=complex))


def test_zero_field_norms():
    mesh = build_cartesian_mesh(DOM, 3, 3)
    assert dg_norm(zero_field(), mesh) == 0.0
    assert dg_plus_norm(zero_field(), mesh) == 0.0
    assert l2_slice_error(zero_field(), 0.5, mesh) == 0.0


def test_constant_on_single_element():
    # dg^2 = (|F_T| + |F_0| + alpha |F_D|) / 2 = (1 + 1 + 2) / 2 = 2
    mesh = build_cartesian_mesh(DOM, 1, 1)
    w = constant_field()
    assert dg_norm(w, mesh) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # no interior facets and zero gradient: the extra terms vanish
    assert dg_plus_norm(w, mesh) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_constant_on_two_slabs_dg_plus():
    # the space-like one-sided trace adds |w^-|^2 / 2 = 1/2
    mesh = build_cartesian_mesh(DOM, 1, 2)
    w = constant_field()
    assert dg_norm(w, mesh) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert dg_plus_norm(w, mesh) == pytest.approx(math.sqrt(2.5), abs=1e-14)


def test_homogeneity():
    mesh = build_cartesian_mesh(DOM, 3, 2)
    sol = ExpSolution(2.0)
    base_v = dg_norm(exact_field(sol), mesh)
    base_p = dg_plus_norm(exact_field(sol), mesh)
    for c in (2.0, 1j, -0.7 + 0.1j):
        scaled = ClosedFormField(lambda x, t: c * sol.value(x, t),
                                 lambda x, t: c * sol.dx(x, t))
        assert dg_norm(scaled, mesh) == pytest.approx(abs(c) * base_v, rel=1e-12)
        assert dg_plus_norm(scaled, mesh) == pytest.approx(abs(c) * base_p, rel=1e-12)


def test_dg_plus_dominates_dg():
    mesh = build_cartesian_mesh(DOM, 4, 4)
    rng = np.random.default_rng(11)
    space = SpaceKind.trefftz(1)
    bases = element_bases(mesh, space)
    sol = DiscreteSolution(mesh, space, bases)
    for el in mesh.elements:
        d = bases[el.id].dim
        sol.set_coeffs(el.id, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    assert dg_plus_norm(sol, mesh) >= dg_norm(sol, mesh)


def test_quadrature_stability_on_smooth_error():
    sol = ExpSolution(5.0)
    mesh = build_cartesian_mesh(DOM, 4, 4)
    polys = [extended_taylor_poly(sol.derivative, 1, el.center, (el.h_x, el.h_t))
             for el in mesh.elements]
    err = DifferenceField(exact_field(sol), PiecewisePolyField(polys))
    for norm in (dg_norm, dg_plus_norm):
        a = norm(err, mesh, n=20)
        b = norm(err, mesh, n=40)
        assert abs(a - b) <= 1e-9 * abs(b)


def test_discrete_error_of_constant_problem_vanishes():
    from schrodg.assembly import constant_data

    mesh = build_cartesian_mesh(DOM, 10, 10)
    sol = march(mesh, SpaceKind.trefftz(1), constant_data(1.0))
    assert dg_norm(DifferenceField(constant_field(), sol), mesh) <= 1e-12


def test_l2_slice_values():
    mesh = build_cartesian_mesh(DOM, 4, 4)
    assert l2_slice_error(constant_field(), 0.0, mesh) == pytest.approx(1.0, abs=1e-14)
    assert l2_slice_error(constant_field(), 1.0, mesh) == pytest.approx(1.0, abs=1e-14)
    assert l2_slice_error(constant_field(), 0.37, mesh) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        l2_slice_error(constant_field(), 2.0, mesh)


def test_l2_slice_uses_earlier_trace_at_interfaces():
    # field that jumps between slabs: trace from below must be used at t = 0.5
    mesh = build_cartesian_mesh(DOM, 1, 2)

    class SlabIndicator:
        def value(self, eid, xs, ts):
            # eid is an id, or an id array (nF,) with points (nF, nq)
            v = np.array([el.slab for el in mesh.elements], dtype=complex)[eid]
            if np.ndim(v):
                v = v[:, None]
            return np.broadcast_to(v, np.broadcast(np.asarray(xs), np.asarray(ts)).shape)

        def dx(self, eid, xs, ts):
            return np.zeros(np.broadcast(np.asarray(xs), np.asarray(ts)).shape,
                            dtype=complex)

    f = SlabIndicator()
    assert l2_slice_error(f, 0.5, mesh) == pytest.approx(0.0, abs=1e-14)
    assert l2_slice_error(f, 0.6, mesh) == pytest.approx(1.0, abs=1e-14)


def test_dg_error_of_smooth_solve_decreases():
    sol = ExpSolution(5.0)
    data = solution_data(sol)
    errs = []
    for n in (5, 10, 20):
        mesh = build_cartesian_mesh(DOM, n, n)
        dsol = march(mesh, SpaceKind.trefftz(1), data)
        errs.append(dg_norm(DifferenceField(exact_field(sol), dsol), mesh))
    assert errs[0] > errs[1] > errs[2]


def _wsum_sq(wq, z):
    z = np.asarray(z)
    return float(np.sum(wq * np.abs(z) ** 2))


def per_facet_norms(field, mesh, n):
    """(dg, dg+) by a walk over the reference walk's single facets with scalar element ids."""
    s_dg = s_plus = 0.0
    for f in _facets(mesh):
        q, wq = mapped_interval(*f.span, n)
        first, second, owner = (el and el.id for el in (f.first, f.second, f.owner))
        if f.kind in (FacetKind.SPACE_INTERIOR, FacetKind.FINAL, FacetKind.INITIAL):
            if f.kind is FacetKind.SPACE_INTERIOR:
                wm = field.value(first, q, f.fixed)
                s_dg += _wsum_sq(wq, wm - field.value(second, q, f.fixed))
                s_plus += _wsum_sq(wq, wm)
            else:
                s_dg += _wsum_sq(wq, field.value(owner, q, f.fixed))
        elif f.kind is FacetKind.TIME_INTERIOR:
            v1, v2 = field.value(first, f.fixed, q), field.value(second, f.fixed, q)
            g1, g2 = field.dx(first, f.fixed, q), field.dx(second, f.fixed, q)
            s_dg += f.alpha * _wsum_sq(wq, v1 - v2) + f.beta * _wsum_sq(wq, g1 - g2)
            s_plus += (_wsum_sq(wq, 0.5 * (g1 + g2)) / f.alpha
                       + _wsum_sq(wq, 0.5 * (v1 + v2)) / f.beta)
        else:
            s_dg += f.alpha * _wsum_sq(wq, field.value(owner, f.fixed, q))
            s_plus += _wsum_sq(wq, field.dx(owner, f.fixed, q)) / f.alpha
    return math.sqrt(0.5 * s_dg), math.sqrt(0.5 * (s_dg + s_plus))


def test_piecewise_poly_field_matches_eval_poly_many():
    # two scales (element 5's polynomial has a 1.3x h_x: the field does not read the
    # mesh), and polynomials whose supports differ between elements
    mesh = build_cartesian_mesh(DOM, 4, 4)
    rng, (h_x, h_t) = np.random.default_rng(3), mesh.h
    polys = []
    for e in range(mesh.n_elements):
        terms = {(jx, jt): complex(*rng.standard_normal(2))
                 for jx in range(4) for jt in range(2) if (jx + jt + e) % 3}
        polys.append(ScaledPolynomial.from_terms(terms, center=tuple(mesh.centers[e]),
                                                 scales=(1.3 * h_x if e == 5 else h_x, h_t)))
    field = PiecewisePolyField(polys)
    eids = np.arange(mesh.n_elements)
    u = rng.uniform(size=(2, mesh.n_elements, 5))
    ix, s = eids % mesh.nx, eids // mesh.nx
    X = mesh.xs[ix, None] + u[0] * np.diff(mesh.xs)[ix, None]
    T = mesh.ts[s, None] + u[1] * np.diff(mesh.ts)[s, None]
    for got, deriv in ((field.value(eids, X, T), None), (field.dx(eids, X, T), mi(1, 0))):
        want = np.stack([eval_poly_many(polys[e], X[e], T[e], deriv) for e in eids])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _field(kind, mesh):
    sol = ExpSolution(3.0)
    if kind == "closed":
        return exact_field(sol)
    if kind == "series":  # minus a discrete field, so that every trace must sit on its facet
        return DifferenceField(exact_field(SquareWellSeries(250)), _field("discrete", mesh))
    if kind == "piecewise":
        return PiecewisePolyField([extended_taylor_poly(sol.derivative, 2, el.center,
                                                        (el.h_x, el.h_t))
                                   for el in mesh.elements])
    rng = np.random.default_rng(8)
    space = SpaceKind.trefftz(2)
    dsol = DiscreteSolution(mesh, space)
    shape = (mesh.n_elements, space.dim(1))
    dsol.set_coeffs(np.arange(mesh.n_elements),
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return dsol


@pytest.mark.parametrize("mesh_name", ["uniform", "offset", "chunked", "one_slab_chunks",
                                       "one_column", "one_slab"])
@pytest.mark.parametrize("kind", ["discrete", "piecewise", "closed", "series"])
def test_norms_match_per_facet_walk(monkeypatch, kind, mesh_name):
    mesh = {"uniform": lambda: build_cartesian_mesh(DOM, 5, 4),
            # the Dirichlet pair, left of column 0 and right of column nx - 1, is wider
            # than the columns: both sides of the one column, and no interior x-line
            "one_column": lambda: build_cartesian_mesh(DOM, 1, 4),
            # the only t-lines are the initial and the final one, both in one chunk
            "one_slab": lambda: build_cartesian_mesh(DOM, 5, 1),
            # grid lines away from x = 0 and 2/7 apart
            "offset": lambda: build_cartesian_mesh(SpaceTimeDomain(-0.5, 1.5, 0.3), 7, 4),
            # chunks of 3 of these 16 slabs, below: the Dirichlet rows of a closed-form
            # part are read chunk by chunk
            "chunked": lambda: build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 0.1), 16, 16),
            # a chunk per slab, below: every interior t-line lies between two chunks,
            # and the chunk above it reads the top of the slab below from the carried row
            "one_slab_chunks": lambda: build_cartesian_mesh(DOM, 5, 4),
            }[mesh_name]()
    if mesh_name in ("one_slab_chunks", "chunked"):
        monkeypatch.setattr(schrodg.norms, "_CHUNK_POINTS",
                            1 if mesh_name == "one_slab_chunks" else 3 * 12 * 17)
    field = _field(kind, mesh)
    ref_dg, ref_plus = per_facet_norms(field, mesh, 12)
    assert dg_norm(field, mesh, n=12) == pytest.approx(ref_dg, rel=1e-12)
    assert dg_plus_norm(field, mesh, n=12) == pytest.approx(ref_plus, rel=1e-12)


@pytest.mark.parametrize("step", [1, 2, 3, 7])
def test_a_chunk_reads_only_its_own_slabs(monkeypatch, step):
    # chunks of ``step`` of the 7 slabs: every trace a chunk asks of a discrete field, its
    # bottoms included, is of the chunk's own slabs, so the ranges in call order partition
    # the slabs; what a chunk needs of the slab below its first is the carried top row,
    # and the norms equal those of a walk in one chunk
    mesh = build_cartesian_mesh(DOM, 3, 7)
    dsol = _field("discrete", mesh)
    fields = [dsol, DifferenceField(exact_field(ExpSolution(3.0)), dsol)]
    whole = [(dg_norm(f, mesh), dg_plus_norm(f, mesh)) for f in fields]
    traces, asked = DiscreteSolution.traces, []

    def spy(self, slabs, *args, **kwargs):
        asked.append(slabs)
        return traces(self, slabs, *args, **kwargs)

    monkeypatch.setattr(DiscreteSolution, "traces", spy)
    monkeypatch.setattr(schrodg.norms, "_CHUNK_POINTS", step * 20 * (mesh.nx + 1))
    chunks = [range(s, min(s + step, 7)) for s in range(0, 7, step)]
    for field, norms in zip(fields, whole):
        for norm, want in zip((dg_norm, dg_plus_norm), norms):
            asked.clear()
            assert norm(field, mesh) == pytest.approx(want, rel=1e-13)
            # six places per chunk: top, bottom, right, left and the sides' dx
            assert asked == [slabs for slabs in chunks for _ in range(6)]


class CountingSeries:
    """The square-well series, recording the number of points (x and t broadcast) of
    each value and dx call."""

    def __init__(self):
        self.series = SquareWellSeries(250)
        self.calls = {"value": [], "dx": []}

    def value(self, x, t):
        self.calls["value"].append(np.broadcast(x, t).size)
        return self.series.value(x, t)

    def dx(self, x, t):
        self.calls["dx"].append(np.broadcast(x, t).size)
        return self.series.dx(x, t)


class DuckField:
    """A field that forwards to another; not a ClosedFormField."""

    def __init__(self, field):
        self.field = field

    def value(self, eid, xs, ts):
        return self.field.value(eid, xs, ts)

    def dx(self, eid, xs, ts):
        return self.field.dx(eid, xs, ts)


def _square_well_solve():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 0.1), 4, 3)
    data = BoundaryData(psi0=square_well_initial,
                        g_D=lambda x, t: np.zeros(np.shape(x), dtype=complex))
    return mesh, march(mesh, SpaceKind.trefftz(1), data)


def test_a_closed_form_part_read_on_the_boundary_only_moves_the_norm_by_rounding():
    # dg_norm reads a ClosedFormField on the boundary only, and traces a field of any
    # other type on every facet, where its two sides cancel in each interior jump up to
    # rounding; dg_plus_norm traces both on every facet, so they agree to the bit
    mesh, dsol = _square_well_solve()
    exact = exact_field(SquareWellSeries(250))
    boundary_only = dg_norm(DifferenceField(exact, dsol), mesh)
    assert boundary_only == pytest.approx(dg_norm(DifferenceField(DuckField(exact), dsol), mesh),
                                          rel=1e-14)
    assert (dg_plus_norm(DifferenceField(exact, dsol), mesh)
            == dg_plus_norm(DifferenceField(DuckField(exact), dsol), mesh))


def _square_well_solutions(nx, nt):
    """The square-well mesh of nx x nt elements and the p = 1 solutions of the four
    families on it."""
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 0.1), nx, nt)
    data = BoundaryData(psi0=square_well_initial,
                        g_D=lambda x, t: np.zeros(np.shape(x), dtype=complex))
    return mesh, [march(mesh, SpaceKind(family, 1), data)
                  for family in ("trefftz", "quasi-trefftz", "full", "planewave")]


def test_dg_norms_equal_each_dg_norm(monkeypatch):
    # 16 x 16 at n = 20, in chunks of 3 slabs
    mesh, sols = _square_well_solutions(16, 16)
    monkeypatch.setattr(schrodg.norms, "_CHUNK_POINTS", 3 * 20 * 17)
    exact = exact_field(SquareWellSeries(250))
    fields = [DifferenceField(exact, s) for s in sols]
    together = dg_norms(fields, mesh)
    assert together == [dg_norm(f, mesh) for f in fields]
    assert len(set(together)) == 4
    # a series of its own is read on its own
    mixed = fields + [DifferenceField(exact_field(SquareWellSeries(250)), sols[0])]
    assert dg_norms(mixed, mesh) == [dg_norm(f, mesh) for f in mixed]
    assert dg_norms([], mesh) == []


def test_dg_norms_of_unequal_fields_equal_each_dg_norm(monkeypatch):
    # fields of every kind stacked in one walk: trefftz p2 (dim 5) and full p2 (dim 6)
    # errors of an exact field, an elementwise interpolant, and the exact field alone;
    # chunks of 2, 2 and 1 slabs, so the last chunk fills part of each buffer
    mesh, sol = build_cartesian_mesh(DOM, 6, 5), ExpSolution(3.0)
    monkeypatch.setattr(schrodg.norms, "_CHUNK_POINTS", 2 * 20 * (mesh.nx + 1))
    exact = exact_field(sol)
    fields = [DifferenceField(exact, march(mesh, space, solution_data(sol)))
              for space in (SpaceKind.trefftz(2), SpaceKind.full_poly(2))]
    fields += [PiecewisePolyField([extended_taylor_poly(sol.derivative, 2, el.center,
                                                        (el.h_x, el.h_t))
                                   for el in mesh.elements]),
               ClosedFormField(sol.value, sol.dx)]
    together = dg_norms(fields, mesh)
    assert together == [dg_norm(f, mesh) for f in fields]
    assert len(set(together)) == 4
    assert dg_norms(fields[::-1], mesh) == together[::-1]


def test_the_exact_field_is_read_once_per_walk_on_the_boundary_only(monkeypatch):
    # the series' value at t = 0 and t = T on the columns' Gauss nodes, in one call, then
    # at x_lo and x_hi at the Gauss times of each chunk of 3 slabs (6 chunks): 2 nx n +
    # 2 nt n points per walk, however many fields share it, and never its dx; the rules of
    # one walk are a row along the space-like facets and one along the time-like ones
    mesh, sols = _square_well_solutions(16, 16)
    monkeypatch.setattr(schrodg.norms, "_CHUNK_POINTS", 3 * 20 * 17)
    dg_norms(sols, mesh)  # every trace table the walk reads, built before counting
    rule, rules = Mesh.rule, []
    monkeypatch.setattr(Mesh, "rule",
                        lambda mesh, n, place: rules.append(place) or rule(mesh, n, place))
    calls = []
    for fields in (sols[:1], sols):
        series = CountingSeries()
        exact = exact_field(series)
        rules.clear()
        norms = dg_norms([DifferenceField(exact, s) for s in fields], mesh)
        calls.append((series.calls, list(rules)))
        assert norms == dg_norms([DifferenceField(exact_field(SquareWellSeries(250)), s)
                                  for s in fields], mesh)
    assert calls[0] == calls[1]
    assert calls[0] == ({"value": [2 * 16 * 20] + [2 * 3 * 20] * 5 + [2 * 1 * 20], "dx": []},
                        ["top", "left"])
    assert sum(calls[0][0]["value"]) == 2 * 16 * 20 + 2 * 16 * 20


def test_series_value_on_unbroadcast_points_equals_the_broadcast_call():
    # X over x's own entries and T over t's, then one dot per point: the same sums as at
    # the broadcast arrays, or at each point alone, to the bit
    series = SquareWellSeries(250)
    rng = np.random.default_rng(4)
    x, t = rng.random(23), 0.1 * rng.random(17)
    for trace in (series.value, series.dx):
        got = trace(x[:, None], t[None])
        assert got.shape == (23, 17)
        assert got.tobytes() == trace(*np.broadcast_arrays(x[:, None], t[None])).tobytes()
        assert trace(x[None, :, None], t[:, None, None]).tobytes() == got.T[..., None].tobytes()
        for i, j in ((0, 0), (5, 16), (22, 3), (11, 9)):
            assert got[i, j] == trace(x[i], t[j])[0]


def test_plus_norm_reads_the_series_at_the_grids_own_points():
    # dg_plus_norm traces a closed-form part at every place, at the grid's points
    # unbroadcast: the 250-mode X over the columns' nodes (or the two x-lines) and T over
    # the slabs' times, not over every element's row of points (32 MB measured when each
    # element's points were tiled; 2.6 MB at the grid's points)
    mesh, sols = _square_well_solutions(16, 16)
    err = DifferenceField(exact_field(SquareWellSeries(250)), sols[0])
    want = dg_plus_norm(err, mesh)  # every trace table the walk reads, built before
    tracemalloc.start()
    try:
        assert dg_plus_norm(err, mesh) == want
        assert tracemalloc.get_traced_memory()[1] <= 4e6
    finally:
        tracemalloc.stop()


def test_norm_memory_does_not_grow_with_the_number_of_slabs():
    # a chunk of the 40-column meshes holds at most 19 slabs (the point budget over
    # 41 x 20 points per slab): the 10-slab norm is one chunk, and the 80-slab one peaks
    # at about 19 / 10 of it (2.0 measured); a walk over every slab at once would hold 8
    # times as much
    sol, space = ExpSolution(3.0), SpaceKind.trefftz(3)

    def peak(nt):
        mesh = build_cartesian_mesh(DOM, 40, nt)
        err = DifferenceField(exact_field(sol), march(mesh, space, solution_data(sol)))
        tracemalloc.start()
        try:
            dg_norm(err, mesh, n=20)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(80) <= 2.5 * peak(10)


@pytest.mark.parametrize("mesh_name", ["uniform", "offset"])
def test_discrete_traces_match_value_at_global_points(mesh_name):
    # traces at a place of the elements of a range of slabs is one product of those slabs'
    # coefficient rows with the place's trace table, (slabs, nx, n), equal to value and dx
    # at the centres plus the place's rule; evaluate at a shared row of offsets gives one
    # row of values for every element, and keeps none
    mesh = named_mesh(mesh_name, 4, 4)
    dsol, center = _field("discrete", mesh), mesh.centers
    row = np.linspace(-0.1, 0.12, 5)[None], np.linspace(-0.11, 0.1, 5)[None]
    values = dsol.basis.evaluate(*row)
    assert values.shape == (1, dsol.basis.dim, 5) and dsol.basis.evaluate(*row) is not values
    for slabs in (range(0, 4), range(1, 3), range(3, 3)):
        eids = np.arange(slabs.start * mesh.nx, slabs.stop * mesh.nx)
        for place in ("top", "bottom", "left", "right", "volume"):
            x, t, _ = mesh.rule(5, place)
            for dx, trace in ((False, dsol.value), (True, dsol.dx)):
                got = dsol.traces(slabs, 5, place, dx)
                assert got.shape == (len(slabs), mesh.nx, 5 if place != "volume" else 25)
                if len(slabs):
                    want = trace(eids, center[eids, :1] + x, center[eids, 1:] + t)
                    assert (np.max(np.abs(got.reshape(want.shape) - want))
                            <= 1e-13 * np.max(np.abs(want)))


def test_discrete_traces_need_every_coefficient():
    mesh = build_cartesian_mesh(DOM, 2, 3)
    dsol = DiscreteSolution(mesh, SpaceKind.trefftz(1))
    dsol.set_coeffs(np.arange(4), np.ones((4, 3)))
    assert dsol.traces(range(0, 2), 3, "top").shape == (2, 2, 3)
    with pytest.raises(ValueError, match="element 4"):
        dsol.traces(range(1, 3), 3, "top")
    with pytest.raises(ValueError, match="element 4"):
        dg_norm(dsol, mesh)


def test_norms_reject_a_solution_of_another_mesh():
    # a discrete solution is measured on its own mesh: a mesh of another domain with the
    # same nx x nt (which read the solution's coefficients as its own) or of another nx or
    # nt raises; a separately built copy of its mesh is the same mesh
    sol = ExpSolution(2.0)
    mesh = build_cartesian_mesh(DOM, 4, 3)
    psi = march(mesh, SpaceKind.trefftz(1), solution_data(sol))
    err = DifferenceField(exact_field(sol), psi)
    copy = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 4, 3)
    assert dg_norm(err, copy) == dg_norm(err, mesh) > 0.0
    assert l2_slice_error(err, 0.5, copy) == l2_slice_error(err, 0.5, mesh)
    for other in (build_cartesian_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), 4, 3),
                  build_cartesian_mesh(DOM, 5, 3), build_cartesian_mesh(DOM, 4, 6)):
        for norm in (lambda f: dg_norm(f, other), lambda f: dg_norms([zero_field(), f], other),
                     lambda f: dg_plus_norm(f, other), lambda f: l2_slice_error(f, 0.5, other)):
            for field in (psi, err, DifferenceField(zero_field(), err)):
                with pytest.raises(ValueError, match="measured on"):
                    norm(field)


def test_field_calls_reject_element_ids_outside_the_mesh():
    # an id outside [0, n_elements) raises, -1 included, where indexing would have read
    # the last element
    sol = ExpSolution(1.0)
    mesh = build_cartesian_mesh(DOM, 2, 2)
    psi = march(mesh, SpaceKind.trefftz(1), solution_data(sol))
    poly = PiecewisePolyField([extended_taylor_poly(sol.derivative, 1, el.center,
                                                    (el.h_x, el.h_t)) for el in mesh.elements])
    for field in (psi, poly):
        assert field.value(3, 0.75, 0.75).shape == (1,)
        for call in (field.value, field.dx):
            for eids in (-1, 4, np.array([0, -1]), np.array([3, 4])):
                with pytest.raises(ValueError, match=r"must lie in \[0, 4\)"):
                    call(eids, np.full((np.size(eids), 1), 0.75), 0.75)


def test_field_calls_and_set_coeffs_reject_non_integer_element_ids():
    # a float id raises, where a cast to intp would have read element 1 for 1.7; ints,
    # numpy integers and intp arrays still index
    sol = ExpSolution(1.0)
    mesh = build_cartesian_mesh(DOM, 2, 2)
    psi = march(mesh, SpaceKind.trefftz(1), solution_data(sol))
    poly = PiecewisePolyField([extended_taylor_poly(sol.derivative, 1, el.center,
                                                    (el.h_x, el.h_t)) for el in mesh.elements])
    for field in (psi, poly):
        for call in (field.value, field.dx):
            for eids in (1.7, np.array([0.0, 1.5])):
                with pytest.raises(ValueError, match="element ids must be integers"):
                    call(eids, np.full((np.size(eids), 1), 0.75), 0.25)
            want = call(np.array([1, 3]), np.full((2, 1), 0.75), 0.25)
            for eid, row in ((1, 0), (np.int32(3), 1)):
                assert np.array_equal(call(eid, 0.75, 0.25), want[row])
    rows = psi.coeffs[[1, 3]].copy()
    for eids in (1.7, np.array([0.0, 1.5])):
        with pytest.raises(ValueError, match="element ids must be integers"):
            psi.set_coeffs(eids, np.zeros(psi.coeffs.shape[1]))
    assert np.array_equal(psi.coeffs[[1, 3]], rows)
    psi.set_coeffs(np.int64(1), rows[0])
    psi.set_coeffs(np.array([3], dtype=np.intp), rows[1:])
    assert np.array_equal(psi.coeffs[[1, 3]], rows)
