import math
from collections import Counter

import numpy as np
import pytest

from schrodg.assembly import FacetKind, _facets
from schrodg.mesh import Mesh, SpaceTimeDomain, build_cartesian_mesh
from schrodg.quadrature import mapped_interval, rect_rule
from tests.conftest import named_mesh

# the facets of a mesh are the reference walk's, found from the element records alone
HORIZONTAL = (FacetKind.SPACE_INTERIOR, FacetKind.FINAL, FacetKind.INITIAL)


def slots(f):
    """(slot, element) of each neighbour of facet f: below/above, or left/right."""
    names = ("below", "above") if f.kind in HORIZONTAL else ("left", "right")
    return [(name, el) for name, el in zip(names, (f.first, f.second)) if el is not None]


def kind_counts(mesh):
    return Counter(f.kind for f in _facets(mesh))


def incidences(mesh, eid):
    """(kind, slot) for every facet of element ``eid``; the slot is the one holding eid."""
    return [(f.kind, slot) for f in _facets(mesh) for slot, el in slots(f) if el.id == eid]


def test_domain_validation():
    with pytest.raises(ValueError):
        SpaceTimeDomain(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SpaceTimeDomain(0.0, 1.0, 0.0)


def test_single_element_taxonomy():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 1, 1)
    assert mesh.n_elements == 1
    counts = kind_counts(mesh)
    assert counts == {FacetKind.INITIAL: 1, FacetKind.FINAL: 1, FacetKind.DIRICHLET: 2}
    kinds = sorted(kind.value for kind, _ in incidences(mesh, 0))
    assert kinds == ["dirichlet", "dirichlet", "final", "initial"]


def test_2x3_counts_by_enumeration():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 2, 3)
    assert mesh.n_elements == 6
    counts = kind_counts(mesh)
    assert counts[FacetKind.SPACE_INTERIOR] == 4   # 2 per interface x 2 interfaces
    assert counts[FacetKind.TIME_INTERIOR] == 3    # at x = 0.5, one per slab
    assert counts[FacetKind.DIRICHLET] == 6
    assert counts[FacetKind.INITIAL] == 2
    assert counts[FacetKind.FINAL] == 2
    for f in _facets(mesh):
        if f.kind is FacetKind.TIME_INTERIOR:
            assert f.fixed == pytest.approx(0.5)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_experiment_mesh_family_spacing(j):
    n = 10 * 2 ** j
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), n, n)
    h_x, h_t = mesh.h
    assert math.isclose(h_x, 0.1 * 2.0 ** (-j), rel_tol=1e-15)
    assert math.isclose(h_t, 0.1 * 2.0 ** (-j), rel_tol=1e-15)


def test_every_element_has_four_facets():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 3, 4)
    for eid in range(mesh.n_elements):
        assert len(incidences(mesh, eid)) == 4


def test_roles_time_like_left():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 2, 1)
    roles = dict(incidences(mesh, 0))
    assert roles[FacetKind.TIME_INTERIOR] == "left"
    roles1 = dict(incidences(mesh, 1))
    assert roles1[FacetKind.TIME_INTERIOR] == "right"


def test_roles_space_like_above():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 1, 2)
    top_elem = mesh.slab_elements[1][0]
    bottom = [side for kind, side in incidences(mesh, top_elem)
              if kind is FacetKind.SPACE_INTERIOR]
    assert bottom == ["above"]


def test_invalid_inputs():
    dom = SpaceTimeDomain(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_cartesian_mesh(dom, 0, 1)
    with pytest.raises(ValueError):
        build_cartesian_mesh(dom, 1, 0)


def test_areas_tile_domain():
    dom = SpaceTimeDomain(-0.5, 2.0, 0.7)
    mesh = build_cartesian_mesh(dom, 7, 5)
    total = sum(el.h_x * el.h_t for el in mesh.elements)
    area = dom.width * dom.t_final
    assert abs(total - area) <= 1e-13 * area


def test_neighbor_counts():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 3, 3)
    for f in _facets(mesh):
        expected = 2 if f.kind in (FacetKind.SPACE_INTERIOR, FacetKind.TIME_INTERIOR) else 1
        assert len(slots(f)) == expected


def test_stabilization_values_exact():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 4, 3)
    for f in _facets(mesh):
        if f.kind is FacetKind.DIRICHLET:  # h_Fx is the owner's width
            assert f.alpha * f.owner.h_x == 1.0 and f.beta == 0.0
        elif f.kind is FacetKind.TIME_INTERIOR:  # h_Fx = beta, between the two widths
            assert f.alpha * f.beta == 1.0
            h1, h2 = f.first.h_x, f.second.h_x
            assert min(h1, h2) <= f.beta <= max(h1, h2)


def test_horizontal_partition_property():
    # space-like interior + initial + final cover each horizontal line exactly once
    dom = SpaceTimeDomain(0.0, 1.0, 1.0)
    nx, nt = 4, 3
    mesh = build_cartesian_mesh(dom, nx, nt)
    by_level = {}
    for f in _facets(mesh):
        if f.kind in HORIZONTAL:
            by_level.setdefault(round(float(f.fixed), 12), []).append(f.span)
    assert len(by_level) == nt + 1
    for level, spans in by_level.items():
        assert len(spans) == nx
        total = sum(hi - lo for lo, hi in spans)
        assert total == pytest.approx(dom.width, rel=1e-13)
        spans = sorted(spans)
        for a, b in zip(spans, spans[1:]):
            assert a[1] == pytest.approx(b[0])  # no overlap, no gap


def test_lqu_uniform_is_one():
    # local quasi-uniformity: the largest width ratio of two elements sharing a facet
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 5, 4)
    lqu = 1.0
    for f in _facets(mesh):
        if f.first and f.second:
            ratio = f.first.h_x / f.second.h_x
            lqu = max(lqu, ratio, 1.0 / ratio)
    assert lqu == pytest.approx(1.0)


def test_exact_spacing_gives_one_element_size():
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 80, 80)
    assert {(el.h_x, el.h_t) for el in mesh.elements} == {mesh.h} == {(1.0 / 80, 1.0 / 80)}


GRID_CASES = [(SpaceTimeDomain(0.0, 1.0, 1.0), 1, 1), (SpaceTimeDomain(-0.5, 2.0, 0.7), 7, 5),
              (SpaceTimeDomain(0.0, 1.0, 0.1), 80, 16)]


@pytest.mark.parametrize("dom, nx, nt", GRID_CASES)
def test_built_meshes_are_their_grid(dom, nx, nt):
    # a built mesh passes the grid check, and its size and centres are the elements'
    mesh = build_cartesian_mesh(dom, nx, nt)
    assert Mesh(dom, mesh.xs, mesh.ts).h == mesh.h == (dom.width / nx, dom.t_final / nt)
    assert mesh.centers.shape == (nx * nt, 2) and not mesh.centers.flags.writeable
    assert mesh.centers.tolist() == [list(el.center) for el in mesh.elements]
    assert all((el.h_x, el.h_t) == mesh.h for el in mesh.elements)


@pytest.mark.parametrize("fault", ["xs moved one ulp", "ts reversed", "one x-line"])
def test_mesh_rejects_lines_that_are_not_its_grid(fault):
    # every size and offset is read off the domain and the line counts, so lines that are
    # not, to the bit, the uniform grid would get the wrong alpha, beta and offsets
    dom = SpaceTimeDomain(-0.5, 2.0, 0.7)
    mesh = build_cartesian_mesh(dom, 4, 3)
    xs, ts = mesh.xs.copy(), mesh.ts.copy()
    if fault == "xs moved one ulp":
        xs[2] = np.nextafter(xs[2], np.inf)
    elif fault == "ts reversed":
        ts = ts[::-1].copy()
    else:
        xs = xs[:1]
    with pytest.raises(ValueError, match="grid lines"):
        Mesh(dom, xs, ts)


def test_oracle_facets_cover_every_facet_once():
    nx, nt = 3, 4
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), nx, nt)
    facets = _facets(mesh)
    assert Counter(f.kind for f in facets) == {
        FacetKind.SPACE_INTERIOR: nx * (nt - 1), FacetKind.FINAL: nx, FacetKind.INITIAL: nx,
        FacetKind.TIME_INTERIOR: (nx - 1) * nt, FacetKind.DIRICHLET: 2 * nt}
    assert len({(f.kind, f.span, f.fixed) for f in facets}) == len(facets)
    assert len({(f.kind, *(el.id for _, el in slots(f))) for f in facets
                if f.kind is not FacetKind.DIRICHLET}) == len(facets) - 2 * nt
    (f,) = [f for f in facets if f.kind is FacetKind.TIME_INTERIOR
            and f.first.slab == 2 and f.first.ix == 0]
    T, W = mapped_interval(*f.span, 5)
    assert f.fixed == pytest.approx(1 / 3) and np.all((0.5 < T) & (T < 0.75))
    assert W.sum() == pytest.approx(0.25)


def grid_facets(mesh, kind):
    """The facets of ``kind`` by the (slab, column) arithmetic of the kernel and the norms:
    (first id, second id, span, fixed), None where there is no such neighbour."""
    nx, nt, xs, ts = mesh.nx, mesh.nt, mesh.xs.tolist(), mesh.ts.tolist()
    lines = {FacetKind.INITIAL: [0], FacetKind.SPACE_INTERIOR: range(1, nt),
             FacetKind.FINAL: [nt], FacetKind.TIME_INTERIOR: range(1, nx),
             FacetKind.DIRICHLET: [0, nx]}[kind]
    if kind in HORIZONTAL:  # the t-line above slab line - 1, column ix
        return {((line - 1) * nx + ix if line > 0 else None, line * nx + ix if line < nt else None,
                 (xs[ix], xs[ix + 1]), ts[line]) for line in lines for ix in range(nx)}
    return {(s * nx + k - 1 if k > 0 else None, s * nx + k if k < nx else None,
             (ts[s], ts[s + 1]), xs[k]) for s in range(nt) for k in lines}


@pytest.mark.parametrize("kind", list(FacetKind))
def test_oracle_facets_match_the_grid_indices(kind):
    # the reference walk finds its facets by matching the elements' sides; they are the
    # ones that the (slab, column) layout of the kernel and the norms names, every one on
    # a grid line
    mesh = build_cartesian_mesh(SpaceTimeDomain(-0.5, 2.0, 0.7), 3, 4)
    found = {(f.first and f.first.id, f.second and f.second.id, f.span, f.fixed)
             for f in _facets(mesh) if f.kind is kind}
    assert found == grid_facets(mesh, kind)


def test_rule_is_computed_once_per_mesh_and_read_only(monkeypatch):
    # Mesh.rule scales the reference rule by h once for each (n, place) and keeps it: march
    # and dg_norm ask for rules many times and compute each once; a mesh of another size
    # computes its own, with offsets h times the reference offsets, to the bit
    import schrodg.mesh
    from schrodg import ExpSolution, SpaceKind, march, solution_data
    from schrodg.norms import DifferenceField, dg_norm, exact_field

    computed, reference = [], schrodg.mesh.reference_rule
    monkeypatch.setattr(schrodg.mesh, "reference_rule",
                        lambda n, place: computed.append((n, place)) or reference(n, place))
    sol, space = ExpSolution(5.0), SpaceKind.full_poly(2)
    meshes = [build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), nx, 3) for nx in (4, 5)]
    for mesh in meshes:
        dg_norm(DifferenceField(exact_field(sol), march(mesh, space, solution_data(sol))), mesh)
    assert len(computed) == 2 * len(set(computed)) > 0
    mesh, (hx, ht) = meshes[1], meshes[1].h
    x, t, w = rule = mesh.rule(6, "volume")
    assert mesh.rule(6, "volume") is rule
    assert np.array_equal(x, hx * reference(6, "volume")[0])
    assert np.array_equal(t, ht * reference(6, "volume")[1])
    with pytest.raises(ValueError):
        w[0, 0] = 0.0


@pytest.mark.parametrize("mesh_name", ["uniform", "offset"])
def test_rule_matches_the_global_quadrature(mesh_name):
    # every element's centre plus the offsets of Mesh.rule at a place are the global
    # Gauss nodes of that side, with its weights; over the volume they are rect_rule's,
    # in its order
    mesh, n = named_mesh(mesh_name, 3, 4), 5
    rules = {place: mesh.rule(n, place) for place in ("top", "bottom", "left", "right", "volume")}
    for place, (x, t, w) in rules.items():
        assert x.shape == t.shape == w.shape == (1, n * n if place == "volume" else n)
    for el in mesh.elements:
        (x0, x1), (t0, t1) = el.x_range, el.t_range
        (xq, wx), (tq, wt) = mapped_interval(x0, x1, n), mapped_interval(t0, t1, n)
        want = {"top": (xq, np.full(n, t1), wx), "bottom": (xq, np.full(n, t0), wx),
                "right": (np.full(n, x1), tq, wt), "left": (np.full(n, x0), tq, wt),
                "volume": rect_rule(el.x_range, el.t_range, n)}
        for place, (x, t, w) in rules.items():
            X, T, W = want[place]
            assert np.allclose(el.center[0] + x[0], X, rtol=0, atol=1e-14)
            assert np.allclose(el.center[1] + t[0], T, rtol=0, atol=1e-14)
            assert np.allclose(w[0], W, rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="place"):  # a slot is not a place
        mesh.rule(n, "below")
